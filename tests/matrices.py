"""Helpers on integer matrices given as tuples of row tuples that only the
tests need: identity, product, transpose, horizontal stacking and
matrix-vector product."""

from tmh.errors import DimensionError


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*m))


def hstack(a, b) -> tuple[tuple[int, ...], ...]:
    if len(a) != len(b):
        raise DimensionError("hstack needs equal row counts")
    return tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a, b))


def matmul(a, b) -> tuple[tuple[int, ...], ...]:
    if any(len(row) != len(b) for row in a):
        raise DimensionError("inner dimensions do not match")
    cols = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mul_vector(m, vec) -> tuple[int, ...]:
    if any(len(row) != len(vec) for row in m):
        raise DimensionError("vector length mismatch")
    return tuple(sum(x * v for x, v in zip(row, vec)) for row in m)
