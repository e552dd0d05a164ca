"""Exact geometry and combinatorics of simple polytopes with holes.

Polytopes are given by half-spaces ``normal . x >= offset`` with integer
normals and rational offsets.  One enumeration of basic points (solve n
rows with equality over the rationals, keep the solutions that satisfy
every row) gives the vertices, decides feasibility and boundedness, and
decides whether two holes meet, so every containment and disjointness
decision below is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

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
from .exactlin import RatVector, primitive_part, rat_vector, rational_rank, solve_rational


@dataclass(frozen=True)
class HalfSpace:
    """The closed half-space normal . x >= offset."""

    normal: tuple[int, ...]
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise DimensionError("half-space normal must be nonzero")

    def value(self, point) -> Fraction:
        """normal . point - offset; nonnegative inside the half-space."""
        return sum(n * Fraction(x) for n, x in zip(self.normal, point)) - self.offset


@dataclass(frozen=True)
class Vertex:
    point: RatVector
    facets: frozenset[int]


@dataclass(frozen=True)
class Edge:
    endpoints: tuple[int, int]      # vertex indices, ascending
    facets: frozenset[int]          # the n-1 facets containing the edge


@dataclass(frozen=True)
class SimplePolytope:
    """A bounded full-dimensional simple polytope with exact combinatorics."""

    dim: int
    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @property
    def facet_count(self) -> int:
        return len(self.halfspaces)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def contains(self, point, strict: bool = False) -> bool:
        if len(point) != self.dim:
            raise DimensionError(f"point needs {self.dim} coordinates, got {len(point)}")
        if strict:
            return all(h.value(point) > 0 for h in self.halfspaces)
        return all(h.value(point) >= 0 for h in self.halfspaces)

    def centroid(self) -> RatVector:
        n = len(self.vertices)
        return tuple(sum(v.point[d] for v in self.vertices) / n for d in range(self.dim))

    def bounding_box(self) -> tuple[RatVector, RatVector]:
        lo = tuple(min(v.point[d] for v in self.vertices) for d in range(self.dim))
        hi = tuple(max(v.point[d] for v in self.vertices) for d in range(self.dim))
        return lo, hi

    def edges_at_vertex(self, vid: int) -> list[Edge]:
        return [e for e in self.edges if vid in e.endpoints]

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
        return SimplePolytope(self.dim, halfspaces, vertices, self.edges)


# ---------------------------------------------------------------------------
# basic points: feasibility, boundedness and vertices by one enumeration


def _basic_points(dim, rows, equalities=()):
    """Yield (point, tight) for each point that satisfies every row
    (coeffs, rhs), coeffs . x >= rhs, and solves dim independent equations:
    the equalities and dim - len(equalities) of the rows.  ``tight`` holds
    the indices of the rows with equality there.  A pointed nonempty
    region has such a point, a vertex (Avis and Fukuda 1992)."""
    for subset in itertools.combinations(range(len(rows)), dim - len(equalities)):
        system = [rows[i] for i in subset] + list(equalities)
        point = solve_rational([c for c, _ in system], [r for _, r in system])
        if point is None:
            continue
        values = []
        for coeffs, rhs in rows:
            values.append(sum(c * x for c, x in zip(coeffs, point)) - rhs)
            if values[-1] < 0:
                break
        else:
            yield point, frozenset(i for i, v in enumerate(values) if v == 0)


def _pins(dim, normals):
    """Equalities x_j = 0 on coordinates that complete the rank of the
    normals.  They keep a region nonempty (its lineality space maps onto
    those coordinates) and make it pointed."""
    pins, rank = [], rational_rank(normals)
    for j in range(dim):
        unit = tuple(int(i == j) for i in range(dim))
        if rank < dim and rational_rank([*normals, *(c for c, _ in pins), unit]) > rank:
            pins.append((unit, 0))
            rank += 1
    return pins


def feasible(dim, rows) -> bool:
    """Whether some x satisfies coeffs . x >= rhs for every row (coeffs, rhs)."""
    pins = _pins(dim, [c for c, _ in rows])
    return next(_basic_points(dim, rows, pins), None) is not None


def build_polytope(dim: int, halfspaces) -> SimplePolytope:
    """Enumerate vertices and edges of a simple polytope from half-spaces."""
    if dim < 2:
        raise DimensionError("dimension must be at least 2")
    hs = tuple(h if isinstance(h, HalfSpace)
               else HalfSpace(tuple(int(c) for c in h[0]), Fraction(h[1]))
               for h in halfspaces)
    for h in hs:
        if len(h.normal) != dim:
            raise DimensionError("normal length does not match dimension")

    normals = [h.normal for h in hs]
    pins = _pins(dim, normals)
    basic = list(_basic_points(dim, [(h.normal, h.offset) for h in hs], pins))
    if not basic:
        raise EmptyError("half-space system is infeasible")
    # With normals of full rank, each d != 0 with normal . d >= 0 has s . d > 0
    # for s their sum, so one exists iff an extreme ray meets s . d = 1.
    s = tuple(map(sum, zip(*normals)))
    if pins or next(_basic_points(dim, [(c, 0) for c in normals], [(s, 1)]), None):
        raise UnboundedError("half-space system is unbounded")

    vertices_by_facets: dict[frozenset[int], RatVector] = {}
    for point, active in basic:
        if len(active) > dim:
            raise NotSimpleError(
                f"point {tuple(map(str, point))} lies on {len(active)} facets")
        vertices_by_facets[active] = point

    items = sorted(vertices_by_facets.items(), key=lambda kv: kv[1])
    vertices = tuple(Vertex(pt, facets) for facets, pt in items)

    points = [v.point for v in vertices]
    base = points[0]
    if rational_rank([[p[d] - base[d] for d in range(dim)] for p in points[1:]]) != dim:
        raise NotSimpleError("vertices do not affinely span the ambient space")

    for i in range(len(hs)):
        if not any(i in v.facets for v in vertices):
            raise RedundantFacetError(f"facet {i} supports no vertex")

    edge_map: dict[frozenset[int], set[int]] = {}
    for vid, v in enumerate(vertices):
        for subset in itertools.combinations(sorted(v.facets), dim - 1):
            edge_map.setdefault(frozenset(subset), set()).add(vid)
    edges = []
    for facets, vids in sorted(edge_map.items(), key=lambda kv: sorted(kv[0])):
        if len(vids) != 2:
            raise NotSimpleError(
                f"facet set {sorted(facets)} is shared by {len(vids)} vertices")
        a, b = sorted(vids)
        edges.append(Edge((a, b), facets))
    poly = SimplePolytope(dim, hs, vertices, tuple(edges))
    for vid in range(len(vertices)):
        if len(poly.edges_at_vertex(vid)) != dim:
            raise NotSimpleError(f"vertex {vid} does not have {dim} edges")
    return poly


def polygon_from_vertices(points) -> SimplePolytope:
    """Build a 2D polytope from a counter-clockwise strictly convex cycle."""
    pts = [rat_vector(p) for p in points]
    if len(pts) < 3:
        raise DimensionError("a polygon needs at least three vertices")
    if any(len(p) != 2 for p in pts):
        raise DimensionError("polygon vertices must be 2-dimensional")
    k = len(pts)
    for i in range(k):
        a, b, c = pts[i], pts[(i + 1) % k], pts[(i + 2) % k]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0:
            raise NotSimpleError(
                "vertex cycle is not strictly convex counter-clockwise")
    halfspaces = []
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        t = (b[0] - a[0], b[1] - a[1])
        normal = (-t[1], t[0])  # inward for a CCW cycle
        mult = normal[0].denominator * normal[1].denominator
        ints = (int(normal[0] * mult), int(normal[1] * mult))
        ints = primitive_part(ints)
        offset = ints[0] * a[0] + ints[1] * a[1]
        halfspaces.append(HalfSpace(ints, offset))
    poly = build_polytope(2, halfspaces)
    # a cycle that winds more than once turns left at every vertex too
    if {v.point for v in poly.vertices} != set(pts):
        raise NotSimpleError("vertex cycle is not strictly convex counter-clockwise")
    return poly


# ---------------------------------------------------------------------------
# polytopes with holes


@dataclass(frozen=True)
class GlobalVertex:
    gid: int
    component: int        # 0 = outer, k >= 1 = hole k
    local_id: int
    point: RatVector
    facets: frozenset[int]  # global facet ids


@dataclass(frozen=True)
class PolytopeWithHoles:
    """Outer simple polytope minus the open interiors of hole polytopes,
    which must lie strictly inside it and be pairwise disjoint."""

    components: tuple[SimplePolytope, ...]
    facet_offsets: tuple[int, ...] = field(init=False)
    vertex_offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        outer, holes = self.components[0], self.components[1:]
        for k, hole in enumerate(holes, start=1):
            if hole.dim != outer.dim:
                raise DimensionError(f"hole {k} has dimension {hole.dim} != {outer.dim}")
            for v in hole.vertices:
                if not outer.contains(v.point, strict=True):
                    raise ContainmentError(
                        f"hole {k} vertex {tuple(map(str, v.point))} is not in the "
                        "strict interior of the outer polytope")
        for a, b in itertools.combinations(range(len(holes)), 2):
            rows = [(h.normal, h.offset) for h in holes[a].halfspaces + holes[b].halfspaces]
            if feasible(outer.dim, rows):
                raise DisjointnessError(f"holes {a + 1} and {b + 1} intersect")
        fo, vo = [0], [0]
        for c in self.components:
            fo.append(fo[-1] + c.facet_count)
            vo.append(vo[-1] + c.vertex_count)
        object.__setattr__(self, "facet_offsets", tuple(fo))
        object.__setattr__(self, "vertex_offsets", tuple(vo))

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

    def facet_gid(self, component: int, local: int) -> int:
        return self.facet_offsets[component] + local

    def facet_location(self, gid: int) -> tuple[int, int]:
        for c in range(len(self.components)):
            if gid < self.facet_offsets[c + 1]:
                return c, gid - self.facet_offsets[c]
        raise KeyError(f"facet id {gid} out of range")

    def vertex_gid(self, component: int, local: int) -> int:
        return self.vertex_offsets[component] + local

    def vertex_location(self, gid: int) -> tuple[int, int]:
        for c in range(len(self.components)):
            if gid < self.vertex_offsets[c + 1]:
                return c, gid - self.vertex_offsets[c]
        raise KeyError(f"vertex id {gid} out of range")

    def global_vertices(self) -> list[GlobalVertex]:
        out = []
        for ci, comp in enumerate(self.components):
            for li, v in enumerate(comp.vertices):
                facets = frozenset(self.facet_gid(ci, f) for f in v.facets)
                out.append(GlobalVertex(self.vertex_gid(ci, li), ci, li, v.point, facets))
        return out

    def contains(self, point) -> bool:
        """Membership in P = outer minus the open hole interiors."""
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
    rho = min((h.value(centroid)) / sum(abs(c) for c in h.normal)
              for h in outer.halfspaces)
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
