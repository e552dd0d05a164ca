"""IntMatrix helpers that only the tests need: identity, product,
transpose, horizontal stacking and matrix-vector product."""

from tmh.errors import DimensionError
from tmh.exactlin import IntMatrix


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, tuple(m.col(j) for j in range(m.cols)))


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise DimensionError("hstack needs equal row counts")
    return IntMatrix(a.rows, a.cols + b.cols,
                     tuple(ra + rb for ra, rb in zip(a.entries, b.entries)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise DimensionError("inner dimensions do not match")
    return IntMatrix(a.rows, b.cols, tuple(
        tuple(sum(x * b.entries[k][j] for k, x in enumerate(row)) for j in range(b.cols))
        for row in a.entries))


def mul_vector(m: IntMatrix, vec) -> tuple[int, ...]:
    if len(vec) != m.cols:
        raise DimensionError("vector length mismatch")
    return tuple(sum(x * v for x, v in zip(row, vec)) for row in m.entries)
