"""Exact geometry and combinatorics of simple polytopes with holes.

Polytopes are given by half-spaces ``normal . x >= offset`` with integer
normals and rational offsets.  One small simplex on integer dictionaries
(least-index pivot rules, exact division by the previous pivot) decides
emptiness and boundedness; its walk from the first feasible vertex along
every edge finds the vertices and the facets through each.  Two vertices
are adjacent exactly when they share all but one facet.
Polygons are read off their vertex cycle over one common denominator.  A
facet of one hole negative at every vertex of another separates them; only
a pair with no such facet takes an LP.  Every test runs in integers, and
every decision is exact.
"""

from __future__ import annotations

import copy
import itertools
from fractions import Fraction
from operator import mul

from .errors import (
    ContainmentError,
    DimensionError,
    DisjointnessError,
    EmptyError,
    NotSimpleError,
    PlacementError,
    RedundantFacetError,
    UnboundedError,
)
from .exactlin import RatVector, _integer_row, int_vector, primitive_part, rat_vector
from .value import Value


class HalfSpace(Value):
    """The closed half-space normal . x >= offset."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal: tuple[int, ...], offset: Fraction):
        if all(c == 0 for c in normal):
            raise DimensionError("half-space normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)

    def value(self, point) -> Fraction:
        """normal . point - offset for int or Fraction coordinates; >= 0 inside."""
        return sum(map(mul, self.normal, point)) - self.offset


class Vertex(Value):
    __slots__ = ("point", "facets")

    def __init__(self, point: RatVector, facets: frozenset[int]):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "facets", facets)


class SimplePolytope(Value):
    """A bounded full-dimensional simple polytope with exact combinatorics."""

    __slots__ = ("dim", "halfspaces", "vertices")

    @property
    def facet_count(self) -> int:
        return len(self.halfspaces)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def values(self, point) -> tuple[Fraction, ...]:
        """h.value(point) per facet h, in integers on the point's row X / d."""
        *x, d = _integer_row([*point, 1])
        return tuple(Fraction(sum(map(mul, h.normal, x)) * h.offset.denominator
                              - h.offset.numerator * d, d * h.offset.denominator)
                     for h in self.halfspaces)

    def contains(self, point, strict: bool = False) -> bool:
        point = rat_vector(point)
        if len(point) != self.dim:
            raise DimensionError(f"point needs {self.dim} coordinates, got {len(point)}")
        return all(v > 0 if strict else v >= 0 for v in self.values(point))

    def centroid(self) -> RatVector:
        n = len(self.vertices)
        return tuple(sum(v.point[d] for v in self.vertices) / n for d in range(self.dim))

    def bounding_box(self) -> tuple[RatVector, RatVector]:
        lo = tuple(min(v.point[d] for v in self.vertices) for d in range(self.dim))
        hi = tuple(max(v.point[d] for v in self.vertices) for d in range(self.dim))
        return lo, hi

    def transformed(self, scale: Fraction, shift: RatVector) -> "SimplePolytope":
        """Uniformly scale by a positive rational, then translate.

        Normals are untouched, so facet identity and all combinatorics
        survive verbatim.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        halfspaces = tuple(
            HalfSpace(h.normal, scale * h.offset
                      + sum(n * s for n, s in zip(h.normal, shift)))
            for h in self.halfspaces)
        vertices = tuple(
            Vertex(tuple(scale * x + s for x, s in zip(v.point, shift)), v.facets)
            for v in self.vertices)
        return SimplePolytope(self.dim, halfspaces, vertices)


# ---------------------------------------------------------------------------
# an exact simplex: integer dictionaries and least-index pivot rules


class _Dictionary:
    """The system coeffs . y >= rhs, y free, as an integer simplex
    dictionary (Chvatal 1983).  Ids: y_j is -1 - j, the slack coeffs_i . y
    - rhs_i >= 0 of row i (scaled to integers) is i.  Row r reads p *
    basis[r] = rows[r][-1] + sum_k rows[r][k] * cols[k], p > 0.  Entries
    are minors of the integer system, so a pivot divides exactly by the
    previous p (Bareiss 1968).  A basic free variable never leaves; one
    that cannot enter spans a lineality direction and stays 0."""

    def __init__(self, dim, rows):
        self.rows = [_integer_row([*c, b]) for c, b in rows]
        for row in self.rows:  # negate rhs as an integer, not as a Fraction
            row[-1] = -row[-1]
        self.basis, self.p = list(range(len(self.rows))), 1
        self.cols = [-1 - j for j in range(dim)]
        for j in range(dim):
            r = next((i for i, b in enumerate(self.basis) if b >= 0 and self.rows[i][j]), None)
            if r is not None:
                self.pivot(r, j)

    def pivot(self, r, k):
        """Exchange basis[r] and cols[k], rebinding (never mutating) lists."""
        top, p, q = self.rows[r], self.p, self.rows[r][k]
        rows = [[(q * x - row[k] * y) // p for x, y in zip(row, top)] for row in self.rows]
        for row, old in zip(rows, self.rows):
            row[k] = old[k]
        rows[r] = [-y for y in top]
        rows[r][k] = p
        self.rows = rows if q > 0 else [[-x for x in row] for row in rows]
        self.p, self.basis, self.cols = abs(q), self.basis[:], self.cols[:]
        self.basis[r], self.cols[k] = self.cols[k], self.basis[r]

    def blocking(self, k) -> list[int]:
        """The rows whose slack first reaches 0 as cols[k] grows, ascending:
        least rhs_i / -a_ik, by cross-multiplying, as every -a_ik > 0."""
        out, num, den = [], 0, 0
        for i, row in enumerate(self.rows):
            if row[k] < 0 and self.basis[i] >= 0:
                cross = row[-1] * den + num * row[k]  # sign of step_i - num / den
                if cross < 0 or not out:
                    out, num, den = [i], row[-1], -row[k]
                elif cross == 0:
                    out.append(i)
        return out

    def phase_one(self) -> bool:
        """Pivot to a basis with no negative slack; False if the system is
        empty.  Least-index criss-cross steps (Terlaky 1985): the least
        negative slack leaves for the least slack whose increase raises it.
        If none raises it, it stays negative whatever the others are."""
        while low := [i for i, b in enumerate(self.basis) if b >= 0 and self.rows[i][-1] < 0]:
            r = min(low, key=self.basis.__getitem__)
            rising = [k for k, c in enumerate(self.cols) if c >= 0 and self.rows[r][k] > 0]
            if not rising:
                return False
            self.pivot(r, min(rising, key=self.cols.__getitem__))
        return True

    def least(self, j) -> Fraction:
        """The least y_j over a nonempty system that bounds it below, by
        Bland's rule (Bland 1977): the least slack that lowers y_j enters,
        the least slack among the blocking rows leaves."""
        self.phase_one()
        objective = self.basis.index(-1 - j)
        while entering := [k for k, c in enumerate(self.cols)
                           if c >= 0 and self.rows[objective][k] < 0]:
            k = min(entering, key=self.cols.__getitem__)
            self.pivot(min(self.blocking(k), key=self.basis.__getitem__), k)
        return Fraction(self.rows[objective][-1], self.p)


def feasible(dim, rows) -> bool:
    """Whether some x satisfies coeffs . x >= rhs for every row (coeffs, rhs)."""
    return _Dictionary(dim, rows).phase_one()


def _assemble(dim, halfspaces, points, key=None) -> SimplePolytope:
    """The polytope with vertices {facets: point}, sorted by point or a key."""
    order = sorted(points, key=key or points.__getitem__)
    return SimplePolytope(dim, tuple(halfspaces),
                          tuple(Vertex(points[facets], facets) for facets in order))


def build_polytope(dim: int, halfspaces) -> SimplePolytope:
    """The vertices of a simple polytope from half-spaces, each with its facet
    set, by pivoting from the first feasible vertex along every edge (Avis
    and Fukuda 1992).  Errors come in the order empty, unbounded, not
    simple, redundant."""
    if dim < 2:
        raise DimensionError("dimension must be at least 2")
    hs = tuple(h if isinstance(h, HalfSpace)
               else HalfSpace(int_vector(h[0]), Fraction(h[1]))
               for h in halfspaces)
    for h in hs:
        if len(h.normal) != dim:
            raise DimensionError("normal length does not match dimension")

    start = _Dictionary(dim, [(h.normal, h.offset) for h in hs])
    if not start.phase_one():
        raise EmptyError("half-space system is infeasible")
    # With normals of full rank (every free variable entered), each d != 0
    # with normal . d >= 0 has s . d > 0 for s their sum.
    normals = [h.normal for h in hs]
    s = tuple(map(sum, zip(*normals)))
    if min(start.cols) < 0 or feasible(dim, [(c, 0) for c in normals] + [(s, 1)]):
        raise UnboundedError("half-space system is unbounded")

    # A vertex on more than dim facets means the body is not simple.  If
    # each vertex reached lies on dim facets, each (dim-1)-subset of them
    # spans an edge with two endpoints: dim edges, all walked.  The graph is
    # connected, so every vertex is reached, and the vertices span the
    # space: a lower-dimensional body has a vertex on more than dim facets.
    free_rows = [start.basis.index(-1 - j) for j in range(dim)]

    def point(tab):
        return tuple(Fraction(tab.rows[i][-1], tab.p) for i in free_rows)

    queue, found = [start], {frozenset(start.cols): start}
    for tab in queue:
        tight = sum(b >= 0 and row[-1] == 0 for b, row in zip(tab.basis, tab.rows))
        if tight:
            raise NotSimpleError(
                f"point {tuple(map(str, point(tab)))} lies on {dim + tight} facets")
        here = frozenset(tab.cols)
        for k, f in enumerate(tab.cols):
            # after a tie, the vertex queued lies on more than dim facets
            i = tab.blocking(k)[0]
            there = here - {f} | {tab.basis[i]}
            if there not in found:
                found[there] = copy.copy(tab)
                found[there].pivot(i, k)
                queue.append(found[there])
    unused = set(range(len(hs))).difference(*found)
    if unused:
        raise RedundantFacetError(f"facet {min(unused)} supports no vertex")
    return _assemble(dim, hs, {facets: point(tab) for facets, tab in found.items()})


def polygon_from_vertices(points) -> SimplePolytope:
    """Build a 2D polytope from a counter-clockwise strictly convex cycle;
    facet i is the edge from point i to point i + 1."""
    pts = [rat_vector(p) for p in points]
    if len(pts) < 3:
        raise DimensionError("a polygon needs at least three vertices")
    if any(len(p) != 2 for p in pts):
        raise DimensionError("polygon vertices must be 2-dimensional")
    k = len(pts)
    *flat, d = _integer_row([*itertools.chain.from_iterable(pts), 1])
    xs = list(zip(flat[::2], flat[1::2]))  # point i is xs[i] / d, d > 0
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(xs, xs[1:] + xs[:1])]
    turns = list(zip(steps, steps[1:] + steps[:1]))
    # left turns alone admit a cycle that winds w > 1 times; its steps then
    # pass +x, from (dy, dx) < (0, 0) to the rest, w times
    if (not all(t[0] * u[1] - t[1] * u[0] > 0 for t, u in turns)
            or sum((t[1], t[0]) < (0, 0) <= (u[1], u[0]) for t, u in turns) != 1):
        raise NotSimpleError("vertex cycle is not strictly convex counter-clockwise")
    normals = [primitive_part((-t[1], t[0])) for t in steps]  # inward
    hs = [HalfSpace(n, Fraction(n[0] * a[0] + n[1] * a[1], d)) for n, a in zip(normals, xs)]
    corners = [frozenset({(i - 1) % k, i}) for i in range(k)]  # point i's facets
    return _assemble(2, hs, dict(zip(corners, pts)), dict(zip(corners, xs)).__getitem__)


# ---------------------------------------------------------------------------
# polytopes with holes


class GlobalVertex(Value):
    __slots__ = ("gid", "component", "point", "facets")

    def __init__(self, gid: int, component: int, point: RatVector, facets: frozenset[int]):
        object.__setattr__(self, "gid", gid)
        object.__setattr__(self, "component", component)  # 0 = outer, k >= 1 = hole k
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "facets", facets)  # global facet ids


def _disjoint(dim, rows, points, a, b) -> bool:
    """Whether closed components a and b (facet rows rows[c], vertex rows points[c])
    are disjoint: a facet row of one negative at every vertex row of the other, or one LP."""
    separated = any(all(sum(map(mul, row, x)) < 0 for x in points[j])
                    for i, j in ((a, b), (b, a)) for row in rows[i])
    return separated or not feasible(dim, [(r[:-1], -r[-1]) for r in rows[a] + rows[b]])


class PolytopeWithHoles(Value):
    """Outer simple polytope minus the open interiors of hole polytopes,
    which must lie strictly inside it and be pairwise disjoint.  Ids run outer
    first, then by hole: local facet f of component c is global facet_offsets[c]
    + f, local vertex v is vertex_offsets[c] + v, and global_vertices()[gid]
    gives a vertex's component and global facet ids."""

    __slots__ = ("components", "facet_offsets", "vertex_offsets", "_vertex_table")

    def __init__(self, components: tuple[SimplePolytope, ...]):
        outer, holes = components[0], components[1:]
        # h.value(x) > 0 in integers: row . (X, d) > 0 with x = X / d, d > 0
        rows = [[_integer_row([*h.normal, -h.offset]) for h in c.halfspaces] for c in components]
        points = [[], *([_integer_row([*v.point, 1]) for v in c.vertices] for c in holes)]
        for k, hole in enumerate(holes, start=1):
            if hole.dim != outer.dim:
                raise DimensionError(f"hole {k} has dimension {hole.dim} != {outer.dim}")
            for v, point in zip(hole.vertices, points[k]):
                if not all(sum(map(mul, row, point)) > 0 for row in rows[0]):
                    raise ContainmentError(
                        f"hole {k} vertex {tuple(map(str, v.point))} is not in the "
                        "strict interior of the outer polytope")
        for a, b in itertools.combinations(range(1, len(components)), 2):
            if not _disjoint(outer.dim, rows, points, a, b):
                raise DisjointnessError(f"holes {a} and {b} intersect")
        fo = (0, *itertools.accumulate(c.facet_count for c in components))
        vo = (0, *itertools.accumulate(c.vertex_count for c in components))
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "facet_offsets", fo)
        object.__setattr__(self, "vertex_offsets", vo)
        object.__setattr__(self, "_vertex_table", tuple(
            GlobalVertex(vo[ci] + li, ci, v.point, frozenset(fo[ci] + f for f in v.facets))
            for ci, comp in enumerate(components) for li, v in enumerate(comp.vertices)))

    def __reduce__(self):
        return PolytopeWithHoles, (self.components,)

    @property
    def outer(self) -> SimplePolytope:
        return self.components[0]

    @property
    def holes(self) -> tuple[SimplePolytope, ...]:
        return self.components[1:]

    @property
    def dim(self) -> int:
        return self.outer.dim

    @property
    def hole_count(self) -> int:
        return len(self.components) - 1

    @property
    def facet_count(self) -> int:
        return self.facet_offsets[-1]

    @property
    def vertex_count(self) -> int:
        return self.vertex_offsets[-1]

    def global_vertices(self) -> tuple[GlobalVertex, ...]:
        """Every vertex of every component, in global vertex order."""
        return self._vertex_table

    def contains(self, point) -> bool:
        """Membership in P = outer minus the open hole interiors."""
        point = rat_vector(point)
        if not self.outer.contains(point):
            return False
        return not any(h.contains(point, strict=True) for h in self.holes)


def build_with_holes(outer: SimplePolytope, holes) -> PolytopeWithHoles:
    """The body of the outer polytope minus the holes (checked on construction)."""
    return PolytopeWithHoles((outer, *holes))


def place_holes(outer: SimplePolytope, pieces, scale: Fraction | None = None) -> PolytopeWithHoles:
    """Scale and translate pieces so they sit strictly inside the outer body.

    With scale=None each piece is shrunk so its half-extent equals
    1/(4k) of the outer inradius (l-infinity proxy at the centroid) and the
    copies are packed in a row through the centroid; this always succeeds.
    An explicit scale factor is applied verbatim instead, and the packing
    may legitimately fail with PlacementError.
    """
    pieces = list(pieces)
    if not pieces:
        raise PlacementError("no pieces to place")
    for p in pieces:
        if p.dim != outer.dim:
            raise DimensionError("piece dimension does not match the outer body")
    dim = outer.dim
    centroid = outer.centroid()
    # l1-normalized facet clearance at the centroid: the l-infinity ball of
    # this radius around the centroid is contained in the outer body.
    rho = min(v / sum(map(abs, h.normal))
              for v, h in zip(outer.values(centroid), outer.halfspaces))
    if rho <= 0:
        raise PlacementError("outer centroid is not interior")

    half_extents = []
    centers = []
    for p in pieces:
        lo, hi = p.bounding_box()
        half_extents.append(max((h - l) / 2 for l, h in zip(lo, hi)))
        centers.append(tuple((l + h) / 2 for l, h in zip(lo, hi)))

    if scale is None:
        target = rho / (4 * len(pieces))
        factors = [target / e for e in half_extents]
    else:
        factors = [Fraction(scale)] * len(pieces)

    scaled_extents = [f * e for f, e in zip(factors, half_extents)]
    # row packing along the first axis: consecutive boxes get a gap equal to
    # the mean of their half-extents, and the row is centered on the centroid
    positions = [Fraction(0)]
    for j in range(1, len(pieces)):
        step = (scaled_extents[j - 1] + scaled_extents[j]) * Fraction(3, 2)
        positions.append(positions[-1] + step)
    mid = (positions[0] - scaled_extents[0] + positions[-1] + scaled_extents[-1]) / 2
    positions = [p - mid for p in positions]

    placed = []
    for p, f, c, x in zip(pieces, factors, centers, positions):
        target_center = list(centroid)
        target_center[0] += x
        shift = tuple(tc - f * cc for tc, cc in zip(target_center, c))
        placed.append(p.transformed(f, shift))
    try:
        return build_with_holes(outer, placed)
    except (ContainmentError, DisjointnessError) as exc:
        raise PlacementError(f"pieces do not fit: {exc}") from exc
