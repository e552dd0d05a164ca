"""Moment-angle-complex data: the m-coordinate embedding functions, the
kernel lattice of the characteristic map, read off one unimodular vertex,
and the freeness check for the kernel torus action.

The embedding realizes the body inside R^(n+s) first: each hole gets an
auxiliary coordinate that is 1 on the hole boundary and falls off to 0
affinely across a collar around the hole, then one nonnegative coordinate
per facet measures a weighted distance to that facet.  Collar widths stay
below the threshold where a hole's collar first meets the outer boundary
or another hole, so that distinct facets never share a zero locus: the
hole's least dual bound, where a primal point at it proves it (in practice
for nearly every hole), else one exact LP (tmh.polytope) per obstacle whose
bound is below the least threshold found.  Bounds, primal points, ratio
tests, the padding constants and a point's coordinates run in integers; the
chart keeps its integer data, so evaluating a point lifts only the point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap
from math import inf, prod
from operator import itemgetter, mul

from .charpair import CharacteristicPair, vertex_determinants
from .errors import DimensionError, DomainError, NotValidatedError
from .exactlin import RatVector, _integer_row, _row_hnf, det_exact, rat_vector, smith_normal_form
from .polytope import PolytopeWithHoles, _Dictionary
from .value import Value


def _l1(normal) -> int:
    return sum(map(abs, normal))


def _least(ratios) -> int:
    """The first index of the least n / d over pairs (n, d), d > 0, by cross-multiplying."""
    low = 0
    for i, (n, d) in enumerate(ratios):
        low = i if n * ratios[low][1] < ratios[low][0] * d else low
    return low


def _offset_rows(body: PolytopeWithHoles) -> tuple:
    """Per component its facet normals, its offsets P / q as the integers P, and q."""
    lifts = [_integer_row([*(h.offset for h in c.halfspaces), 1]) for c in body.components]
    return tuple((tuple(h.normal for h in c.halfspaces), tuple(r[:-1]), r[-1])
                 for c, r in zip(body.components, lifts))


def _collar_bounds(body: PolytopeWithHoles, rows):
    """Yields, per hole, half its least l1-weighted clearance from the outer facets, a
    lower bound (T, D), D > 0, on each obstacle's threshold T / D, outer facets first, and
    the least bound if a primal point proves it the threshold, else None.  The collar of
    width t has the vertex v - t Y / e, N_v Y = e l1_v over the normals at v (Cramer's
    rule).  For v least on an outer facet a.x >= c, a = N_v^T mu, mu >= 0, is dual
    feasible, so its threshold is at least (a.v - c) e / a.Y (weak duality, Chvatal 1983),
    reached at that collar vertex.  Another hole O is at least max over the hole's facets
    f of (offset - max_O n.u) / l1 away, reached at O's vertex farthest along f."""
    dim, outer, (_, cs, q0) = body.dim, body.outer.halfspaces, rows[0]  # outer offsets C / q0
    lifts = [_integer_row([*(c for v in hole.vertices for c in v.point), 1]) for hole in body.holes]
    lifted = [(list(zip(*[iter(r[:-1])] * dim)), r[-1]) for r in lifts]  # X / d
    for k, (hole, (xs, d), (normals, ps, q)) in enumerate(zip(body.holes, lifted, rows[1:])):
        drifts, gaps, bounds, points = {}, [], [], []
        for h, c in zip(outer, cs):
            ax = [sum(map(mul, h.normal, x)) for x in xs]
            if (i := ax.index(min(ax))) not in drifts:  # Y and e > 0 at a least vertex
                nv = [normals[f] for f in sorted(hole.vertices[i].facets)]
                ys, e = [det_exact([(*a[:j], _l1(a), *a[j + 1:]) for a in nv])
                         for j in range(dim)], det_exact(nv)
                drifts[i] = (ys, e) if e > 0 else ([-y for y in ys], -e)
            (ys, e), gap = drifts[i], ax[i] * q0 - c * d  # a.v - c = gap / (d q0)
            r = sum(map(mul, h.normal, ys))  # r / e = mu . l1_v > 0
            gaps.append((gap, _l1(h.normal)))
            bounds.append((gap * e, d * q0 * r))
            points.append((xs[i], ys, gap, r))
        for us, du in lifted[:k] + lifted[k + 1:]:  # -(offset - max_O n.u) q du, by l1
            far = [(q * max(sum(map(mul, n, u)) for u in us) - p * du, _l1(n))
                   for n, p in zip(normals, ps)]
            f = _least(far)
            bounds.append((-far[f][0], q * du * far[f][1]))
            points.append((normals[f], us, du))
        t, s = bounds[least := _least(bounds)]
        if least < len(outer):  # v - t Y / e = (X q0 r - gap Y) / (d q0 r)
            v, ys, gap, r = points[least]
            x, w = [a * q0 * r - gap * y for a, y in zip(v, ys)], d * q0 * r
        else:
            n, us, w = points[least]
            x = max(us, key=lambda u: sum(map(mul, n, u)))
        # violation(X / w) <= T / D: (P w - q n.X) D <= q w l1 T on every hole facet
        proved = all((p * w - q * sum(map(mul, n, x))) * s <= q * w * _l1(n) * t
                     for n, p in zip(normals, ps))
        gap, l1 = gaps[_least(gaps)]
        yield Fraction(gap, 2 * d * q0 * l1), bounds, Fraction(t, s) if proved else None


def _certified_collar_widths(body: PolytopeWithHoles, rows) -> tuple[Fraction, ...]:
    """A positive collar width per hole: half its clearance from the outer
    facets, halved below the threshold where the collar {violation <= width}
    meets an obstacle (an outer facet's closed complement, or another hole):
    the least t with violation(x) <= t at some x in one: the least bound if its
    primal point proves it, else by an LP in (x, t) per obstacle, run in the order
    of their bounds until a bound reaches the least t.  It is positive, as the
    closed holes are disjoint and interior.  rows are the components' _offset_rows."""
    widths = []
    for k, (hole, (guess, bounds, threshold)) in enumerate(zip(body.holes,
                                                                _collar_bounds(body, rows))):
        if threshold is None:
            outside = [[((*(-c for c in h.normal), 0), -h.offset)] for h in body.outer.halfspaces]
            inside = [[((*h.normal, 0), h.offset) for h in o.halfspaces] for o in body.holes]
            gauge = [((*h.normal, _l1(h.normal)), h.offset) for h in hole.halfspaces]
            threshold = inf
            obstacles = zip(starmap(Fraction, bounds), outside + inside[:k] + inside[k + 1:])
            for bound, rows in sorted(obstacles, key=itemgetter(0)):
                if bound >= threshold:
                    break  # every LP left is at least its bound
                lp = _Dictionary(body.dim + 1, gauge + rows)
                threshold = min(threshold, lp.least(body.dim))
        # 2^j > guess / threshold iff 2^j > floor(guess / threshold)
        widths.append(guess / 2 ** (guess // threshold).bit_length())
    return tuple(widths)


class EmbeddingChart(Value):
    """Evaluator for the facet coordinate functions d_1 ... d_m.  It keeps per component the
    facet normals and the offsets P / q over their lcm q (rows, lifted unless given), per
    hole each facet's l1 weight and the width w_n / w_d, and each padding constant (c_n, c_d)."""

    # hole_constants: the padding constant per hole facet, in global order
    __slots__ = ("body", "collar_widths", "hole_constants", "_rows", "_holes", "_constants")

    def __init__(self, body: PolytopeWithHoles, collar_widths, hole_constants, rows=None):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "collar_widths", collar_widths)
        object.__setattr__(self, "hole_constants", hole_constants)
        object.__setattr__(self, "_rows", _offset_rows(body) if rows is None else rows)
        object.__setattr__(self, "_holes", tuple(
            (tuple(_l1(h.normal) for h in hole.halfspaces), w.numerator, w.denominator)
            for hole, w in zip(body.holes, collar_widths)))
        object.__setattr__(self, "_constants", tuple((c.numerator, c.denominator)
                                                     for c in hole_constants))

    def evaluate(self, point) -> RatVector:
        """The facet coordinates (d_1(x), ..., d_m(x)), one Fraction each: x = X / d, the
        one lift per call, and h(x) = V / (d q) in integers from the chart's kept rows."""
        point = rat_vector(point)
        if len(point) != self.body.dim:
            raise DimensionError(f"point needs {self.body.dim} coordinates, got {len(point)}")
        *x, d = _integer_row([*point, 1])
        # per component, its facet values V and their denominator d q
        values = [([sum(map(mul, a, x)) * q - o * d for a, o in zip(normals, offsets)], d * q)
                  for normals, offsets, q in self._rows]
        if min(values[0][0]) < 0:
            raise DomainError(f"point {tuple(map(str, point))} is outside the outer body")
        p_hole = []  # the hole coordinates max(0, 1 - depth / width)
        for k, ((vals, den), (l1s, w_n, w_d)) in enumerate(zip(values[1:], self._holes), start=1):
            if min(vals) > 0:
                raise DomainError(f"point {tuple(map(str, point))} is in the open interior "
                                  f"of hole {k}")
            # depth max -V / (den l1) by cross-multiplication, 0 exactly on the hole
            v, l1 = 0, 1  # the least V / l1 is <= 0, as some V <= 0
            for u, n in zip(vals, l1s):
                v, l1 = (u, n) if u * l1 < v * n else (v, l1)
            scale = den * l1 * w_n  # 1 - depth / w = (scale + v w_d) / scale
            p_hole.append(Fraction(max(0, scale + v * w_d), scale))
        t = sum(p_hole)  # the int 0 without holes
        vals, den = values[0]
        out = [Fraction(v * t.denominator + t.numerator * den, den * t.denominator) for v in vals]
        constants = iter(self._constants)
        for (vals, den), p in zip(values[1:], p_hole):
            # V / den + c a_k + shift over e = p_d t_d: a_k = 1 - p_k, shift = a_k + t - p_k
            e = p.denominator * t.denominator
            a = (p.denominator - p.numerator) * t.denominator
            shift = a + t.numerator * p.denominator - p.numerator * t.denominator
            out.extend(Fraction(v * c_d * e + den * (c_n * a + shift * c_d), den * c_d * e)
                       for v, (c_n, c_d) in zip(vals, constants))
        return tuple(out)


def embedding_chart(pair: CharacteristicPair) -> EmbeddingChart:
    body, rows = pair.body, _offset_rows(pair.body)  # the offsets lifted once per chart
    widths = _certified_collar_widths(body, rows)
    *row, d = _integer_row([*(c for v in body.outer.vertices for c in v.point), 1])
    xs = list(zip(*[iter(row)] * body.dim))  # the outer vertices as X / d
    constants = []
    for hole, w in zip(body.holes, widths):
        # keep the padded functional positive away from the hole boundary
        for h in hole.halfspaces:
            low = Fraction(min(sum(map(mul, h.normal, x)) for x in xs) * h.offset.denominator
                           - h.offset.numerator * d, d * h.offset.denominator)
            constants.append(w * _l1(h.normal) + max(Fraction(0), -low) + 1)
    return EmbeddingChart(body, widths, tuple(constants), rows)


# ---------------------------------------------------------------------------
# kernel lattice of the characteristic map


class KernelData(Value):
    # m - n kernel vectors of length m
    __slots__ = ("kernel_basis", "torus_rank")


def kernel_data(pair: CharacteristicPair) -> KernelData:
    """The Hermite basis of the kernel of Lambda.  L_v is unimodular at a
    vertex v of a valid pair, so the row Hermite form of [L_v | lambda_off]
    is [I | L_v^-1 lambda_off], and e_j - sum_k (L_v^-1 lambda_j)_k e_(i_k),
    for the facets j off v and i_1 < ... < i_n at v, span the kernel.  When v
    is on the last n facets that basis is [I | X], already its row Hermite
    form, which is unique; otherwise it is reduced to that form."""
    if not pair.validated:
        raise NotValidatedError("kernel data needs a validated pair")
    n, m = pair.body.dim, pair.body.facet_count
    at = sorted(max((gv.facets for gv in pair.body.global_vertices()),
                    key=lambda facets: sorted(facets, reverse=True)))
    off = [j for j in range(m) if j not in at]
    rows = _row_hnf(list(zip(*(pair.lam[j] for j in at + off))))  # [I | L_v^-1 lambda_off]
    basis = [[0] * m for _ in off]
    for t, (j, vec) in enumerate(zip(off, basis), start=n):
        vec[j] = 1
        for k, i in enumerate(at):
            vec[i] = -rows[k][t]
    kernel = tuple(map(tuple, basis if at[0] == m - n else _row_hnf(basis)))  # [I | X] as is
    return KernelData(kernel, len(kernel))


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
