"""Exact integer and rational linear algebra on small dense matrices.

Everything here works with arbitrary-precision Python ints and
fractions.Fraction; no floating point is used anywhere.  Matrices are
immutable and all operations are pure functions, so values can be shared
freely between threads.

Determinants, rational solves and unimodular inverses share one
fraction-free Gauss-Jordan routine (Bareiss 1968), with rational rows
scaled to integers first.  Smith and Hermite forms keep their own integer
operations, which divide with remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, NotUnimodularError

# A rational vector is a plain tuple of Fractions; Fraction normalizes
# itself, so reduced representation is automatic.
RatVector = tuple[Fraction, ...]


def rat_vector(values) -> RatVector:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(v) for v in values)


def vector_gcd(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def is_primitive(vec) -> bool:
    """True for a nonzero integer vector whose entries have gcd 1."""
    return vector_gcd(vec) == 1


def primitive_part(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign kept)."""
    g = vector_gcd(vec)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(v // g for v in vec)


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix stored row-major as nested tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionError("ragged rows")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        ncols = len(entries[0]) if entries else 0
        return cls(len(entries), ncols, entries)

    @classmethod
    def from_columns(cls, cols, rows: int | None = None) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if rows is None:
            if not cols:
                raise DimensionError("cannot infer row count of empty matrix")
            rows = len(cols[0])
        entries = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return cls(rows, len(cols), entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


def _eliminate(rows: list[list[int]], width: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place.

    Pivots are taken in the first ``width`` columns, top to bottom, and
    every division is exact.  Afterwards the first r rows are the pivot
    rows; each holds the last pivot p at its own pivot column and 0 at the
    other pivot columns.  When those columns form a nonsingular square A,
    the row operations amount to multiplying by p A^-1, so any further
    columns B become p A^-1 B.  Returns r and p times the sign of the row
    swaps, which is det A in that case.
    """
    rank, sign, prev = 0, 1, 1
    for c in range(width):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
            sign = -sign
        top = rows[rank]
        pivot = top[c]
        for i, row in enumerate(rows):
            if i != rank:
                f = row[c]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
        rank += 1
    return rank, sign * prev


def _integer_row(values) -> list[int]:
    """Rational values times the lcm of their denominators, as integers."""
    values = [Fraction(x) for x in values]
    mult = lcm(*(x.denominator for x in values))
    return [x.numerator * (mult // x.denominator) for x in values]


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    rank, det = _eliminate([list(row) for row in m.entries], m.cols)
    return det if rank == m.rows else 0


def _snf_diagonalize(mat: IntMatrix, track_cols: bool):
    """Bring a copy of ``mat`` to Smith form; optionally track column ops.

    Returns (diagonal entries incl. zeros, V) where V is the unimodular
    column-operation matrix with mat . V congruent to the Smith form up to
    untracked row operations.  Row operations never change the kernel, so V
    is all that kernel extraction needs.
    """
    rows, cols = mat.rows, mat.cols
    d = [list(row) for row in mat.entries]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if track_cols else None

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]

    def add_col(dst, src, q):
        # column dst += q * column src
        for r in d:
            r[dst] += q * r[src]
        if v is not None:
            for r in v:
                r[dst] += q * r[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate the nonzero entry of smallest magnitude as pivot
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            restart = False
            # clear the pivot column with row operations
            for i in range(t + 1, rows):
                if d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                d[i] = [d[i][j] - q * d[t][j] for j in range(cols)]
                if d[i][t] != 0:
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, cols):
                if d[t][j] == 0:
                    continue
                q = d[t][j] // d[t][t]
                add_col(j, t, -q)
                if d[t][j] != 0:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # force the pivot to divide the remaining block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            d[t] = [d[t][j] + d[offender][j] for j in range(cols)]

        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1

    diag = [d[i][i] for i in range(limit)]
    vmat = IntMatrix.from_rows(v) if track_cols else None
    return diag, vmat


def smith_normal_form(m: IntMatrix) -> tuple[tuple[int, ...], int]:
    """Nonzero elementary divisors d1 | d2 | ... and the rank of ``m``."""
    diag, _ = _snf_diagonalize(m, track_cols=False)
    divisors = tuple(x for x in diag if x != 0)
    return divisors, len(divisors)


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (positive pivots, reduced above) in place."""
    if not rows:
        return rows
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0 and (pivot is None or abs(rows[i][c]) < abs(rows[pivot][c])):
                pivot = i
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            while rows[i][c] != 0:
                q = rows[r][c] // rows[i][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def kernel_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel lattice, as matrix columns.

    The result has cols(m) - rank(m) columns, each annihilated by ``m``.
    Columns are Hermite-reduced so the output is deterministic.
    """
    diag, v = _snf_diagonalize(m, track_cols=True)
    rank = sum(1 for x in diag if x != 0)
    kernel_cols = [v.col(j) for j in range(rank, m.cols)]
    if not kernel_cols:
        return IntMatrix(m.cols, 0, tuple(() for _ in range(m.cols)))
    reduced = _row_hnf([list(c) for c in kernel_cols])
    return IntMatrix.from_columns([tuple(r) for r in reduced], rows=m.cols)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    if not m.is_square:
        raise DimensionError("inverse of a non-square matrix")
    n = m.rows
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    rank, det = _eliminate(rows, n)
    if rank < n or det not in (1, -1):
        raise NotUnimodularError(f"determinant is {det if rank == n else 0}, expected +-1")
    # each row is now p * (row of m^-1) with p = +-1 on the diagonal
    return IntMatrix(n, n, tuple(tuple(x * row[i] for x in row[n:])
                                 for i, row in enumerate(rows)))


# ---------------------------------------------------------------------------
# rational helpers shared by the geometry modules


def solve_rational(a_rows, b) -> RatVector | None:
    """Solve the square rational system A x = b; None if A is singular."""
    n = len(a_rows)
    rows = [_integer_row([*row, rhs]) for row, rhs in zip(a_rows, b)]
    rank, _ = _eliminate(rows, n)
    if rank < n:
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(rows))
