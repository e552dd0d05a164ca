"""Exact integer and rational linear algebra on small matrices.

Everything here works with arbitrary-precision Python ints and
fractions.Fraction; no floating point is used anywhere.  Matrices are
sequences of integer rows and all operations are pure functions, so
values can be shared freely between threads.

Up to 3x3, the vertex matrices, a determinant is a cofactor sum and a unimodular
inverse is det * adjugate.  Above, determinants come from elimination on sparse
rows, O(r) row updates on the banded forms of tmh.dim4; the Smith form, inverses
and tmh.mac's kernel come from row Hermite forms: [I | A^-1 B] of [A | B], A unimodular.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, NotUnimodularError

# A rational vector is a plain tuple of Fractions; Fraction normalizes
# itself, so reduced representation is automatic.
RatVector = tuple[Fraction, ...]


def rat_vector(values) -> RatVector:
    """Coerce an iterable of numbers into a tuple of Fractions; a Fraction is kept as is."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def int_vector(values) -> tuple[int, ...]:
    """The entries as a tuple of ints; ValueError if any is not an integer,
    so 3/2 or -1.7 is refused rather than truncated."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(v for v, i in zip(values, ints) if v != i)
        raise ValueError(f"entry {bad} is not an integer")
    return ints


def is_primitive(vec) -> bool:
    """True for a nonzero integer vector whose entries have gcd 1."""
    return gcd(*vec) == 1


def primitive_part(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign kept)."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(v // g for v in vec)


def _integer_row(values) -> list[int]:
    """Int or Fraction values times the lcm of their denominators, as integers."""
    mult = lcm(*(x.denominator for x in values))
    return [x.numerator * (mult // x.denominator) for x in values]


def _cofactors(m) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det and adjugate of a 2x2 or 3x3 matrix; the 3x3 columns are r1 x r2, r2 x r0, r0 x r1."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c, ((d, -b), (-c, a))
    cross = [(b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0])
             for b, c in ((m[1], m[2]), (m[2], m[0]), (m[0], m[1]))]
    return sum(x * y for x, y in zip(m[0], cross[0])), tuple(zip(*cross))


def det_exact(rows) -> int:
    """Exact determinant of a square integer matrix; above 3x3 by elimination on
    sparse rows {column: entry}: a row r that meets the pivot row top becomes
    (p r - f top) / g, g the gcd of its entries, and num / den undoes p / g."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("determinant of a non-square matrix")
    if n in (2, 3):
        return _cofactors(rows)[0]
    rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
    num = den = 1
    for c in range(n):
        for i in range(c, n):
            if c in rows[i]:
                break
        else:
            return 0
        if i != c:
            rows[c], rows[i], num = rows[i], rows[c], -num
        top = rows[c]
        p = top.pop(c)
        num *= p
        for i, r in enumerate(rows[c + 1:], c + 1):
            f = r.pop(c, 0)
            if f:
                new = {j: p * r.get(j, 0) - f * top.get(j, 0) for j in r.keys() | top.keys()}
                g = gcd(*new.values()) or 1  # a vanished row leaves a column without pivot
                rows[i] = {j: x // g for j, x in new.items() if x}
                num, den = num * g, den * p
    return num // den


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (positive pivots, reduced above) in place."""
    if not rows:
        return rows
    r = 0
    for c in range(len(rows[0])):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0 and (pivot is None or abs(rows[i][c]) < abs(rows[pivot][c])):
                pivot = i
                if abs(rows[i][c]) == 1:
                    break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            while rows[i][c] != 0:
                q = rows[r][c] // rows[i][c]
                if q:
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def smith_normal_form(rows) -> tuple[tuple[int, ...], int]:
    """Nonzero elementary divisors d1 | d2 | ... and the rank of the matrix
    with the given integer rows."""
    rows = [list(row) for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise DimensionError("ragged rows")
    # m and m^T have one Smith form; start from the one with more rows
    d = _row_hnf(rows if not rows or len(rows) >= len(rows[0]) else
                 [list(col) for col in zip(*rows)])
    # Alternate row and column Hermite forms (Kannan and Bachem 1979).  Each
    # pass takes the previous first row as its first column, so the (1,1)
    # entry, their positive gcd, never grows.  Once it stops falling it
    # divides that column, and as the Hermite form of a lattice is unique,
    # the pass clears its row and column for good; the same holds for the
    # block below, so the loop ends.
    while any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        d = _row_hnf([list(col) for col in zip(*d)])
    divisors = [d[i][i] for i in range(len(d))]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return tuple(divisors), len(divisors)


def unimodular_inverse(rows) -> tuple[tuple[int, ...], ...]:
    """Rows of the exact integer inverse of a matrix with determinant +-1: det * adjugate
    up to 3x3, above it the row Hermite form [I | m^-1] of [m | I], if m is unimodular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("inverse of a non-square matrix")
    if n in (2, 3):
        det, adj = _cofactors(rows)
        if det in (1, -1):
            return tuple(tuple(det * x for x in row) for row in adj)
        raise NotUnimodularError(f"determinant is {det}, expected +-1")
    h = _row_hnf([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if any(h[i][i] != 1 for i in range(n)):
        raise NotUnimodularError(f"determinant is {det_exact(rows)}, expected +-1")
    return tuple(tuple(row[n:]) for row in h)
