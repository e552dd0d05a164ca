"""Moment-angle-complex data: the m-coordinate embedding functions, the
kernel lattice of the characteristic map, read off one unimodular vertex,
and the freeness check for the kernel torus action.

The embedding realizes the body inside R^(n+s) first: each hole gets an
auxiliary coordinate that is 1 on the hole boundary and falls off to 0
affinely across a collar around the hole, then one nonnegative coordinate
per facet measures a weighted distance to that facet.  Collar widths stay
below the threshold where a hole's collar first meets the outer boundary
or another hole, which one exact linear program per obstacle gives
(tmh.polytope), so that distinct facets never share a zero locus.  Facet
values and the ratio tests of those programs run in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .charpair import CharacteristicPair, vertex_determinants
from .errors import DimensionError, DomainError, NotValidatedError
from .exactlin import RatVector, _eliminate, _row_hnf, rat_vector, smith_normal_form
from .polytope import PolytopeWithHoles, _Dictionary
from .value import Value


def _l1(normal) -> int:
    return sum(abs(c) for c in normal)


def _certified_collar_widths(body: PolytopeWithHoles) -> tuple[Fraction, ...]:
    """A positive collar width per hole: half the clearance of the hole
    from the outer facets, halved just below the threshold where the collar
    {violation <= width} meets an obstacle (an outer facet's closed
    complement, or another hole): per obstacle, the least t with
    violation(x) <= t for some x in it, one linear program in (x, t).  The
    closed holes are disjoint and interior, so the threshold is positive."""
    outside = [[((*(-c for c in h.normal), 0), -h.offset)] for h in body.outer.halfspaces]
    widths = []
    for k, hole in enumerate(body.holes):
        gauge = [((*h.normal, _l1(h.normal)), h.offset) for h in hole.halfspaces]
        others = [[((*h.normal, 0), h.offset) for h in other.halfspaces]
                  for j, other in enumerate(body.holes) if j != k]
        threshold = min(_Dictionary(body.dim + 1, gauge + rows).least(body.dim)
                        for rows in outside + others)
        guess = min(value / _l1(h.normal) for v in hole.vertices
                    for value, h in zip(body.outer.values(v.point), body.outer.halfspaces)) / 2
        # 2^j > guess / threshold iff 2^j > floor(guess / threshold)
        widths.append(guess / 2 ** (guess // threshold).bit_length())
    return tuple(widths)


class EmbeddingChart(Value):
    """Evaluator for the facet coordinate functions d_1 ... d_m."""

    # hole_constants: the padding constant per hole facet, in global order
    __slots__ = ("body", "collar_widths", "hole_constants")

    def evaluate(self, point) -> RatVector:
        """The facet coordinates (d_1(x), ..., d_m(x))."""
        point = rat_vector(point)
        if len(point) != self.body.dim:
            raise DimensionError(f"point needs {self.body.dim} coordinates, got {len(point)}")
        values = [c.values(point) for c in self.body.components]  # h(x), each read once
        # outside the outer body, or in the open interior of a hole
        if min(values[0]) < 0 or any(min(vals) > 0 for vals in values[1:]):
            raise DomainError(f"point {tuple(map(str, point))} is not in the body")
        p_hole = []  # the hole coordinates max(0, 1 - depth / width)
        for vals, hole, w in zip(values[1:], self.body.holes, self.collar_widths):
            # weighted depth of the point outside the hole; 0 exactly on the hole
            depth = max(-v / _l1(h.normal) for v, h in zip(vals, hole.halfspaces))
            p_hole.append(max(Fraction(0), 1 - depth / w))
        total_hole = sum(p_hole)
        out = [v + total_hole for v in values[0]]
        constants = iter(self.hole_constants)
        for vals, p_k in zip(values[1:], p_hole):
            a_k = 1 - p_k
            shift = a_k + total_hole - p_k  # a_k plus the other holes' coordinates
            out.extend(v + next(constants) * a_k + shift for v in vals)
        return tuple(out)


def embedding_chart(pair: CharacteristicPair) -> EmbeddingChart:
    body = pair.body
    widths = _certified_collar_widths(body)
    constants = []
    for hole, w in zip(body.holes, widths):
        # keep the padded functional positive away from the hole boundary
        lows = map(min, zip(*(hole.values(v.point) for v in body.outer.vertices)))
        constants += [w * _l1(h.normal) + max(Fraction(0), -low) + 1
                      for h, low in zip(hole.halfspaces, lows)]
    return EmbeddingChart(body, widths, tuple(constants))


def embedding_coordinates(pair: CharacteristicPair, point) -> RatVector:
    """Convenience wrapper building a chart for a single evaluation."""
    return embedding_chart(pair).evaluate(point)


# ---------------------------------------------------------------------------
# kernel lattice of the characteristic map


class KernelData(Value):
    # the n rows of Lambda, and m - n kernel vectors of length m
    __slots__ = ("lambda_matrix", "kernel_basis", "torus_rank")


def kernel_data(pair: CharacteristicPair) -> KernelData:
    """Lambda and the Hermite basis of its kernel.  L_v is unimodular at a
    vertex v of a valid pair, so e_j - sum_k (L_v^-1 lambda_j)_k e_(i_k), for
    the facets j off v and i_1 < ... < i_n at v, span the kernel; on the last
    facets that basis is nearly echelon, and Hermite forms are unique."""
    if not pair.validated:
        raise NotValidatedError("kernel data needs a validated pair")
    lam = pair.lambda_matrix()
    n, m = pair.body.dim, pair.body.facet_count
    at = sorted(max((gv.facets for gv in pair.body.global_vertices()),
                    key=lambda facets: sorted(facets, reverse=True)))
    off = [j for j in range(m) if j not in at]
    rows = [[row[j] for j in at + off] for row in lam]
    _eliminate(rows, n)  # row k: p = +-1 at column k, then p * (L_v^-1 lambda_off)_k
    basis = [[int(i == j) for i in range(m)] for j in off]
    for t, vec in enumerate(basis, start=n):
        for k, i in enumerate(at):
            vec[i] = -rows[k][k] * rows[k][t]
    kernel = tuple(map(tuple, _row_hnf(basis)))
    return KernelData(lam, kernel, len(kernel))


def freeness_check(pair: CharacteristicPair) -> bool:
    """Whether the kernel torus acts freely on the moment angle complex.

    It does when the kernel K of Lambda complements the coordinate lattice
    of the facets through each vertex.  As Z^m / K is the image Lambda Z^m,
    that means the vertex's columns span the image: Lambda has rank n and
    |det L_v| = [Z^n : Lambda Z^m], the product of its Smith divisors.
    No validation is assumed.  With index 1 this is validity; if every
    vector lies in a proper sublattice the action can be free although the
    pair is not characteristic.
    """
    divisors, rank = smith_normal_form(pair.lam)  # Lambda^T has the Smith form of Lambda
    if rank != pair.body.dim:
        return False  # rank-deficient characteristic map
    index = prod(divisors)
    return all(abs(d) == index for d in vertex_determinants(pair).values())
