import copy
import functools
import itertools
import json
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest

from tmh import polytope
from tmh.charpair import _oriented_facets
from tmh.cli import parse_spec
from tmh.dim4 import _cycle
from tmh.errors import (
    ContainmentError,
    DimensionError,
    DisjointnessError,
    EmptyError,
    NotSimpleError,
    PlacementError,
    RedundantFacetError,
    UnboundedError,
)
from tmh.polytope import (
    GlobalVertex,
    HalfSpace,
    PolytopeWithHoles,
    _Dictionary,
    build_polytope,
    build_with_holes,
    feasible,
    place_holes,
    polygon_from_vertices,
)

from counting import count_calls
from golden_corpus import SPECS
from instances import (
    cp1xcp1_square,
    cp2_triangle,
    hirzebruch_cp2_fibersum,
    hirzebruch_square,
    pentagon_y,
    prism_3d,
    random_convex_lattice_polygon,
    random_many_sided_quasitoric_2d,
    random_multi_hole_2d,
    random_one_hole_2d,
    random_one_hole_3d,
    random_prism_3d,
    simplex_3d,
    square_in_square,
    unit_cube,
)
from oracles import (
    blocking_by_fractions,
    body_contains,
    build_by_enumeration,
    collar_thresholds_by_lps,
    contains,
    edge_directions_at_vertex,
    edges_of,
    facet_location,
    fm_feasible,
    fm_screen,
    polygon_by_fractions,
    transformed_by_fractions,
    value_by_fractions,
)

F = Fraction


def unit_square():
    return build_polytope(2, [
        ((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])


def walk(dim, rows):
    """build_polytope's fallback alone: the simplex walk, in 2D too."""
    return polytope._walk(dim, tuple(HalfSpace(tuple(c), F(b)) for c, b in rows))


# every test of the walk runs through both: in 2D, build_polytope mostly
# takes the angular route
ROUTES = (build_polytope, walk)


def box(x0, y0, x1, y1):
    return build_polytope(2, [
        ((1, 0), x0), ((0, 1), y0), ((-1, 0), -x1), ((0, -1), -y1)])


def coordinate_triangle():
    # {y >= 0, x >= 0, -x - y >= -1}
    return build_polytope(2, [((0, 1), 0), ((1, 0), 0), ((-1, -1), -1)])


class TestBuildPolytope:
    def test_unit_square(self):
        p = unit_square()
        assert p.vertex_count == 4
        assert len(edges_of(p)) == 4
        assert {v.point for v in p.vertices} == {
            (0, 0), (1, 0), (0, 1), (1, 1)}

    def test_triangle_vertices(self):
        p = coordinate_triangle()
        assert {v.point for v in p.vertices} == {(0, 0), (1, 0), (0, 1)}

    def test_non_integer_normal_is_refused(self):
        rows = [((0, 1), 0), ((1, 0), 0), ((-1, -1), -1)]
        with pytest.raises(ValueError, match="1.9 is not an integer"):
            build_polytope(2, [((0, 1.9), 0)] + rows[1:])
        with pytest.raises(ValueError, match="1/2 is not an integer"):
            build_polytope(2, rows[:2] + [((-1, Fraction(-1, 2)), -1)])
        integral = build_polytope(2, [((0, Fraction(2, 2)), 0)] + rows[1:])
        assert integral == coordinate_triangle()
        assert type(integral.halfspaces[0].normal[1]) is int

    def test_redundant_facet(self):
        with pytest.raises(RedundantFacetError):
            build_polytope(2, [
                ((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
                ((1, 1), -1)])

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            build_polytope(2, [((1, 0), 0), ((0, 1), 0)])

    def test_empty(self):
        with pytest.raises(EmptyError):
            build_polytope(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])

    def test_not_simple(self):
        # square with one corner sliced exactly through a vertex
        with pytest.raises(NotSimpleError):
            build_polytope(2, [
                ((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1),
                ((1, 1), 0)])

    def test_simple_3d_cube(self):
        cube = build_polytope(3, [
            ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
            ((-1, 0, 0), -1), ((0, -1, 0), -1), ((0, 0, -1), -1)])
        assert cube.vertex_count == 8
        assert len(edges_of(cube)) == 12
        assert all(len(v.facets) == 3 for v in cube.vertices)

    def test_octahedron_rejected_not_simple(self):
        octa = [((sx, sy, sz), -1)
                for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
        with pytest.raises(NotSimpleError):
            build_polytope(3, octa)

    def test_contains_wrong_length(self):
        square = box(0, 0, 4, 4)
        for point in ((1, 1, -99), (1,)):
            with pytest.raises(DimensionError):
                contains(square, point)


class TestPolygonFromVertices:
    def test_square_cycle(self):
        p = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert p.facet_count == 4
        # facet i is the edge from cycle vertex i to i+1
        assert p.halfspaces[0].normal == (0, 1)
        assert p.halfspaces[0].offset == 0

    def test_rejects_clockwise(self):
        with pytest.raises(NotSimpleError):
            polygon_from_vertices([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_collinear(self):
        with pytest.raises(NotSimpleError):
            polygon_from_vertices([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_rational_coordinates(self):
        p = polygon_from_vertices([(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 3)), (0, F(1, 3))])
        assert p.vertex_count == 4

    def test_rejects_pentagram(self):
        # every turn is a left turn, but the cycle winds twice; its
        # half-planes cut out the inner pentagon, none of whose vertices
        # is an input point
        with pytest.raises(NotSimpleError, match="not strictly convex counter-clockwise"):
            polygon_from_vertices([(0, 10), (-6, -8), (10, 3), (-10, 3), (6, -8)])


class TestBuildWithHoles:
    def test_square_in_square(self):
        body = build_with_holes(box(0, 0, 4, 4), [box(1, 1, 2, 2)])
        assert body.hole_count == 1
        assert body.facet_count == 8
        assert body.vertex_count == 8

    def test_containment_error(self):
        with pytest.raises(ContainmentError):
            build_with_holes(box(0, 0, 4, 4), [box(3, 1, 5, 2)])

    def test_touching_hole_rejected(self):
        with pytest.raises(ContainmentError):
            build_with_holes(box(0, 0, 4, 4), [box(0, 1, 1, 2)])

    def test_disjointness_error(self):
        with pytest.raises(DisjointnessError):
            build_with_holes(box(0, 0, 6, 6),
                             [box(1, 1, 2, 2), box(F(3, 2), 1, F(5, 2), 2)])

    def test_touching_holes_rejected(self):
        with pytest.raises(DisjointnessError):
            build_with_holes(box(0, 0, 6, 6), [box(1, 1, 2, 2), box(2, 1, 3, 2)])

    def test_each_hole_is_checked_for_dimension_then_containment(self):
        # hole 1's containment check runs before hole 2's dimension check
        outer, far, cube = box(0, 0, 10, 10), box(20, 20, 21, 21), unit_cube()
        with pytest.raises(ContainmentError) as info:
            build_with_holes(outer, [far, cube])
        assert str(info.value) == ("hole 1 vertex ('20', '20') is not in the strict "
                                   "interior of the outer polytope")
        with pytest.raises(DimensionError) as info:
            build_with_holes(outer, [cube, far])
        assert str(info.value) == "hole 1 has dimension 3 != 2"

    def test_contains_points(self):
        body = build_with_holes(box(0, 0, 4, 4), [box(1, 1, 2, 2)])
        assert body_contains(body, (F(1, 2), F(1, 2)))
        assert body_contains(body, (1, 1))          # on the hole boundary
        assert not body_contains(body, (F(3, 2), F(3, 2)))  # inside the hole
        assert not body_contains(body, (5, 0))

    def test_contains_wrong_length(self):
        body = build_with_holes(box(0, 0, 4, 4), [box(1, 1, 2, 2)])
        with pytest.raises(DimensionError):
            body_contains(body, (F(1, 2), F(1, 2), 7))


class TestEdgeDirections:
    """The edge-direction oracle that vertex frames are checked against."""

    def test_triangle_origin(self):
        body = build_with_holes(coordinate_triangle(), [])
        vid = next(v.gid for v in body.global_vertices() if v.point == (0, 0))
        dirs = dict(edge_directions_at_vertex(body, vid))
        # facet 0 is {y=0}, facet 1 is {x=0}
        assert dirs[0] == (0, 1)
        assert dirs[1] == (1, 0)

    def test_square_vertex(self):
        body = build_with_holes(unit_square(), [])
        vid = next(v.gid for v in body.global_vertices() if v.point == (1, 0))
        dirs = dict(edge_directions_at_vertex(body, vid))
        # facet 1 is {y=0}, facet 2 is {x=1}
        assert dirs[1] == (0, 1)
        assert dirs[2] == (-1, 0)

    def test_hole_vertex_follows_drop_one_facet_rule(self):
        body = build_with_holes(box(0, 0, 4, 4), [box(1, 1, 2, 2)])
        vid = next(v.gid for v in body.global_vertices()
                   if v.component == 1 and v.point == (1, 1))
        dirs = dict(edge_directions_at_vertex(body, vid))
        # global hole facets: 4={x>=1}, 5={y>=1}; the edge paired with a
        # facet is the one meeting it only at the vertex
        assert dirs[4] == (1, 0)
        assert dirs[5] == (0, 1)

    def test_directions_stay_inside_component(self):
        body = build_with_holes(box(0, 0, 4, 4), [box(1, 1, 2, 2)])
        for gv in body.global_vertices():
            comp = body.components[gv.component]
            local_facets = {facet_location(body, f)[1] for f in gv.facets}
            for fid, direction in edge_directions_at_vertex(body, gv.gid):
                assert any(d != 0 for d in direction)
                probe = tuple(p + F(1, 1000) * d for p, d in zip(gv.point, direction))
                assert contains(comp, probe)
                _, local = facet_location(body, fid)
                # the probe stays on the edge's facets (the other facets at
                # the vertex) and strictly inside everything else
                for i, h in enumerate(comp.halfspaces):
                    if i in local_facets and i != local:
                        assert h.value(probe) == 0
                    else:
                        assert h.value(probe) > 0


class TestPlaceHoles:
    def test_one_triangle_auto(self):
        body = place_holes(box(0, 0, 10, 10), [coordinate_triangle()])
        assert body.hole_count == 1
        assert body.facet_count == 7

    def test_pentagon_in_itself(self):
        pentagon = polygon_from_vertices([(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
        body = place_holes(pentagon, [pentagon])
        assert body.hole_count == 1
        assert body.facet_count == 10
        # normals survive the transform, so characteristic data transports
        for a, b in zip(pentagon.halfspaces, body.holes[0].halfspaces):
            assert a.normal == b.normal

    def test_three_unit_squares_at_unit_scale_fail(self):
        with pytest.raises(PlacementError):
            place_holes(box(0, 0, 2, 2), [unit_square()] * 3, scale=F(1))

    def test_auto_placement_multiple_pieces(self):
        body = place_holes(box(0, 0, 2, 2), [unit_square()] * 3)
        assert body.hole_count == 3

    def test_placement_passes_validation(self):
        tri = coordinate_triangle()
        sq = unit_square()
        body = place_holes(box(0, 0, 8, 8), [tri, sq, tri])
        rebuilt = build_with_holes(body.outer, body.holes)
        assert rebuilt.facet_count == body.facet_count


class TestTwoDimensionalCounts:
    def test_vertices_equal_facets_per_component_and_globally(self):
        body = build_with_holes(box(0, 0, 8, 8), [
            box(1, 1, 2, 2),
            polygon_from_vertices([(4, 4), (6, 4), (5, 6)]),
        ])
        for comp in body.components:
            assert comp.vertex_count == comp.facet_count
        assert body.vertex_count == body.facet_count


class TestGlobalIds:
    def test_negative_ids_raise(self):
        body = build_with_holes(box(0, 0, 4, 4), [box(1, 1, 2, 2)])
        for gid in (-1, -3, -8, -9, 8, 9):
            with pytest.raises(KeyError, match="out of range"):
                facet_location(body, gid)
            with pytest.raises(KeyError, match="out of range"):
                _oriented_facets(body, gid)

    def test_locations_invert_gids(self):
        body = build_with_holes(box(0, 0, 8, 8), [
            box(1, 1, 2, 2), polygon_from_vertices([(4, 4), (6, 4), (5, 6)])])
        table = body.global_vertices()
        for c, comp in enumerate(body.components):
            fo, vo = body.facet_offsets[c], body.vertex_offsets[c]
            for local in range(comp.facet_count):
                assert facet_location(body, fo + local) == (c, local)
            for local, v in enumerate(comp.vertices):
                gv = table[vo + local]
                assert (gv.gid, gv.component, gv.point) == (vo + local, c, v.point)
                assert gv.facets == {fo + f for f in v.facets}

    @pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
    def test_vertex_location_on_golden_bodies(self, name):
        # the table's component holds each vertex and each of its facets
        body = parse_spec(str(SPECS / f"{name}.json")).body
        for gid, gv in enumerate(body.global_vertices()):
            c, comp = gv.component, body.components[gv.component]
            assert gv.gid == gid
            assert 0 <= gid - body.vertex_offsets[c] < comp.vertex_count
            assert all(0 <= f - body.facet_offsets[c] < comp.facet_count for f in gv.facets)

    def test_global_vertex_table_is_built_once(self):
        rng = random.Random(61)
        outer = polygon_from_vertices([(0, 0), (12, 0), (12, 12), (0, 12)])
        pieces = [polygon_from_vertices(_lattice_cycle(rng, k, 2)) for k in (3, 5, 4)]
        bodies = [build_with_holes(box(0, 0, 4, 4), [box(1, 1, 2, 2)]),
                  place_holes(outer, pieces),
                  build_with_holes(build_polytope(3, _box_rows((0, 0, 0), (4, 4, 4))),
                                   [build_polytope(3, _box_rows((1, 1, 1), (2, 2, 2)))])]
        for body in bodies:
            table = body.global_vertices()
            assert isinstance(table, tuple)
            assert body.global_vertices() is table
            # the loop that built a new list on every call
            old = []
            for ci, comp in enumerate(body.components):
                for li, v in enumerate(comp.vertices):
                    facets = frozenset(body.facet_offsets[ci] + f for f in v.facets)
                    old.append(GlobalVertex(body.vertex_offsets[ci] + li, ci, v.point, facets))
            assert table == tuple(old)
            # equality, hash and repr see the components and offsets only
            twin = PolytopeWithHoles(body.components)
            assert twin == body and twin.global_vertices() is not table
            assert hash(twin) == hash(body) == hash(
                (body.components, body.facet_offsets, body.vertex_offsets))
            assert "_vertex_table" not in repr(body)


class TestTablesOnFirstRead:
    """A body builds its integer rows and its global vertex table on the first read:
    a body without holes that no one reads lifts nothing and builds no table."""

    @pytest.mark.parametrize("name, lifts, table", [("polygon_128", 128, 128),
                                                     ("prism_98", 197, 192)])
    def test_built_once_on_first_read(self, name, lifts, table, monkeypatch):
        calls = count_calls(monkeypatch, ["_integer_row", "GlobalVertex"])
        body = parse_spec(str(SPECS / f"{name}.json")).body
        assert (calls["_integer_row"], calls["GlobalVertex"]) == (lifts, 0)
        calls.clear()
        rows = body.integer_rows()
        assert (calls["_integer_row"], calls["GlobalVertex"]) == (2, 0)
        vertices = body.global_vertices()
        assert (calls["_integer_row"], calls["GlobalVertex"]) == (2, table)
        assert body.integer_rows() is rows and body.global_vertices() is vertices
        assert (calls["_integer_row"], calls["GlobalVertex"]) == (2, table)

    @pytest.mark.parametrize("name", ["polygon_128", "prism_98", "square_in_square"])
    def test_copies_of_an_unread_body(self, name):
        body = parse_spec(str(SPECS / f"{name}.json")).body
        for dup in (copy.copy(body), copy.deepcopy(body), pickle.loads(pickle.dumps(body))):
            assert dup == body and hash(dup) == hash(body)
        assert "_vertex_table" not in repr(body) and "_lifts" not in repr(body)


# outer offsets over large, pairwise coprime denominators
LEFT = F(10**20 + 1, 3 * 10**20 + 7)          # x >= ~1/3
BOTTOM = F(-(10**21 + 3), 7 * 10**21 + 13)    # y >= ~-1/7
SLANT = F(-(5 * 10**22 + 1), 10**22 + 9)      # -x - y >= ~-5
TINY = F(1, 10**30)


def _slanted_triangle():
    return build_polytope(2, [((1, 0), LEFT), ((0, 1), BOTTOM), ((-1, -1), SLANT)])


def _hole_at(point, interior):
    """A triangle with one vertex at the point and two at interior points,
    counter-clockwise; None if the three are collinear."""
    a, b = interior
    turn = (a[0] - point[0]) * (b[1] - point[1]) - (a[1] - point[1]) * (b[0] - point[0])
    if turn == 0:
        return None
    return polygon_from_vertices([point, a, b] if turn > 0 else [point, b, a])


def _accepts(outer, hole):
    try:
        build_with_holes(outer, [hole])
    except ContainmentError:
        return False
    return True


class TestIntegerContainment:
    INTERIOR = ((F(3, 2), F(1, 4)), (F(3, 2), F(3, 4)))

    def test_vertex_on_each_outer_facet_is_rejected(self):
        dens = [x.denominator for x in (LEFT, BOTTOM, SLANT)]
        assert min(dens) > 10**20
        assert all(gcd(a, b) == 1 for a, b in zip(dens, dens[1:] + dens[:1]))
        outer = _slanted_triangle()
        on_facets = [(LEFT, F(1, 2)), (1, BOTTOM), (-SLANT - 1, 1)]
        for point in on_facets:
            assert any(h.value(point) == 0 for h in outer.halfspaces)
            with pytest.raises(ContainmentError, match=r"hole 1 vertex \(.*\) is not in the "
                               "strict interior of the outer polytope"):
                build_with_holes(outer, [_hole_at(point, self.INTERIOR)])

    def test_one_part_in_10_30_decides(self):
        outer = _slanted_triangle()
        for normal, point in zip([(1, 0), (0, 1), (-1, -1)],
                                 [(LEFT, F(1, 2)), (1, BOTTOM), (-SLANT - 1, 1)]):
            inside = tuple(x + TINY * c for x, c in zip(point, normal))
            outside = tuple(x - TINY * c for x, c in zip(point, normal))
            assert _accepts(outer, _hole_at(inside, self.INTERIOR))
            assert not _accepts(outer, _hole_at(outside, self.INTERIOR))

    def test_agrees_with_strict_contains(self):
        rng = random.Random(67)
        verdicts = {True: 0, False: 0}
        for _ in range(12):
            scale = F(rng.randint(10**12, 10**13), rng.randint(10**12, 10**13))
            shift = (F(rng.randint(-10**9, 10**9), rng.randint(10**9, 2 * 10**9)),
                     F(rng.randint(-10**9, 10**9), rng.randint(10**9, 2 * 10**9)))
            outer = polygon_from_vertices(
                _lattice_cycle(rng, rng.randint(3, 8), 3)).transformed(scale, shift)
            c = outer.centroid()
            interior = (c, (c[0] + F(1, 10**6), c[1] + F(1, 3 * 10**6)))
            vs = [v.point for v in outer.vertices]
            points = []
            for a, b in zip(vs, vs[1:] + vs[:1]):
                t = F(rng.randint(1, 99), 100)
                on_edge = tuple(x + t * (y - x) for x, y in zip(a, b))
                toward = tuple(x - y for x, y in zip(c, on_edge))
                points += [a, on_edge] + [tuple(x + e * d for x, d in zip(on_edge, toward))
                                          for e in (TINY, -TINY, F(1, 2), F(-1, 2))]
            lo, hi = outer.bounding_box()
            points += [tuple(l + F(rng.randint(-200, 1200), 1000) * (h - l)
                             for l, h in zip(lo, hi)) for _ in range(10)]
            for point in points:
                hole = _hole_at(point, interior)
                if hole is None:
                    continue
                expect = contains(outer, point, strict=True)
                assert _accepts(outer, hole) == expect
                verdicts[expect] += 1
        assert min(verdicts.values()) >= 100


class TestFmFeasible:
    def test_simple_feasible(self):
        assert feasible(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])

    def test_simple_infeasible(self):
        assert not feasible(2, [((1, 0), 2), ((-1, 0), 0)])

    def test_equality_encoded(self):
        rows = [((1, 0), 1), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -5)]
        assert feasible(2, rows)


# ---------------------------------------------------------------------------
# agreement with the Fourier-Motzkin oracles


def _unimodular(rng, dim, steps=6):
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        q = rng.choice((-1, 1))
        for c in range(dim):
            u[i][c] += q * u[j][c]
    return u


def _skew(u, rows):
    """The same system in coordinates y with x = U y: normals c become c U."""
    dim = len(u)
    return [(tuple(sum(c[r] * u[r][k] for r in range(dim)) for k in range(dim)), rhs)
            for c, rhs in rows]


def _nonzero(rng, dim, bound=2):
    while True:
        c = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(c):
            return c


def _random_rows(rng, dim, count):
    return [(_nonzero(rng, dim), rng.randint(-3, 1)) for _ in range(count)]


def _box_rows(lo, hi):
    dim = len(lo)
    rows = []
    for d in range(dim):
        unit = tuple(int(i == d) for i in range(dim))
        rows += [(unit, lo[d]), (tuple(-x for x in unit), -hi[d])]
    return rows


def _flat_normals(rng, dim, count):
    """Nonzero normals spanning a proper subspace."""
    basis = [_nonzero(rng, dim) for _ in range(dim - 1)]
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-2, 2) for _ in basis]
        c = tuple(sum(a * b[k] for a, b in zip(coeffs, basis)) for k in range(dim))
        if any(c):
            out.append(c)
    return out


def _feasibility_pool(seed, per_kind=40):
    """Seeded (kind, dim, rows) systems: random, infeasible (two parallel
    rows with a gap), rank-deficient, and touching (two boxes sharing part
    of their boundary, in skewed coordinates)."""
    rng = random.Random(seed)
    for i in range(per_kind):
        dim = 2 + i % 2
        yield "random", dim, _random_rows(rng, dim, rng.randint(dim + 1, dim + 4))

        rows = _random_rows(rng, dim, rng.randint(1, dim + 2))
        c, r = _nonzero(rng, dim), rng.randint(-2, 2)
        rows += [(c, r), (tuple(-x for x in c), -r + rng.randint(1, 2))]
        rng.shuffle(rows)
        yield "infeasible", dim, rows

        yield "rank-deficient", dim, [(c, rng.randint(-3, 2))
                                      for c in _flat_normals(rng, dim, rng.randint(2, 5))]

        lo = [rng.randint(-2, 0) for _ in range(dim)]
        hi = [x + rng.randint(1, 3) for x in lo]
        # the second box starts where the first ends along axis 0, and
        # shares an interval or only an endpoint along the others
        lo2 = [hi[0]] + [rng.choice((a, b)) for a, b in zip(lo[1:], hi[1:])]
        hi2 = [x + rng.randint(1, 3) for x in lo2]
        yield "touching", dim, _skew(_unimodular(rng, dim),
                                     _box_rows(lo, hi) + _box_rows(lo2, hi2))


def _error_pool(seed, per_kind=40):
    """Seeded (kind, dim, rows) systems: empty (a box cut off by one row),
    unbounded (every normal pairs nonnegatively with one direction, the
    origin feasible), strips (rank-deficient normals) and random ones."""
    rng = random.Random(seed)
    for i in range(per_kind):
        dim = 2 + i % 2
        u = _unimodular(rng, dim)
        size = rng.randint(1, 3)
        c = _nonzero(rng, dim)
        top = sum(max(0, x) for x in c) * size
        rows = _box_rows([0] * dim, [size] * dim) + [(c, top + rng.randint(1, 2))]
        yield "empty", dim, _skew(u, rows)

        d, count = _nonzero(rng, dim), rng.randint(dim, dim + 3)
        normals = []
        while len(normals) < count:
            n = _nonzero(rng, dim)
            if sum(a * b for a, b in zip(n, d)) >= 0:
                normals.append(n)
        yield "unbounded", dim, [(n, rng.randint(-3, 0)) for n in normals]

        yield "strip", dim, [(n, rng.randint(-3, 1))
                             for n in _flat_normals(rng, dim, rng.randint(2, 5))]

        yield "random", dim, _random_rows(rng, dim, rng.randint(dim + 1, dim + 4))


def _screen_class(dim, rows):
    try:
        fm_screen(dim, rows)
    except (EmptyError, UnboundedError) as exc:
        return type(exc)
    return None


def _build_class(build, dim, rows):
    try:
        build(dim, rows)
    except (EmptyError, UnboundedError) as exc:
        return type(exc)
    except (NotSimpleError, RedundantFacetError):
        pass
    return None


class TestFourierMotzkinAgreement:
    def test_feasible_matches_fm_feasible(self):
        outcomes = {}
        for kind, dim, rows in _feasibility_pool(2024):
            got = feasible(dim, rows)
            assert got == fm_feasible(rows), (kind, rows)
            outcomes.setdefault(kind, set()).add(got)
        assert outcomes == {"random": {True, False}, "infeasible": {False},
                            "rank-deficient": {True, False}, "touching": {True}}

    def test_fm_feasible_refuses_to_grow_past_its_row_cap(self):
        # 12 rows in 4 variables with no zero coefficient: the row count
        # roughly squares at each elimination step
        rng = random.Random(0)
        rows = [([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4)], rng.randint(-5, 5))
                for _ in range(12)]
        with pytest.raises(RuntimeError, match="Fourier-Motzkin elimination passed"):
            fm_feasible(rows)

    def test_build_polytope_raises_the_oracle_class(self):
        classes = {}
        for kind, dim, rows in _error_pool(2025):
            want = _screen_class(dim, rows)
            for build in ROUTES:
                assert _build_class(build, dim, rows) is want, (build, kind, rows)
            classes.setdefault(kind, set()).add(want)
        assert classes["empty"] == {EmptyError}
        assert classes["unbounded"] == {UnboundedError}
        assert classes["strip"] == {EmptyError, UnboundedError}
        assert None in classes["random"]


# ---------------------------------------------------------------------------
# agreement with the basic-point enumeration


def _by_angle(a, b):
    """Order directions by angle in [0, 2 pi), exactly."""
    half_a, half_b = (a[1], a[0]) < (0, 0), (b[1], b[0]) < (0, 0)
    return (half_a - half_b) or -(a[0] * b[1] - a[1] * b[0])


def _lattice_cycle(rng, sides, bound):
    """Counter-clockwise vertex cycle of a strictly convex lattice polygon:
    sides - 1 distinct primitive edge vectors and the one closing them up,
    taken in angle order."""
    while True:
        steps = []
        while len(steps) < sides - 1:
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if gcd(*v) == 1 and v not in steps:
                steps.append(v)
        close = (-sum(v[0] for v in steps), -sum(v[1] for v in steps))
        g = gcd(*close)
        if g == 0 or (close[0] // g, close[1] // g) in steps:
            continue
        steps = sorted([*steps, close], key=cmp_to_key(_by_angle))
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        pts = []
        for v in steps:
            pts.append((x, y))
            x, y = x + v[0], y + v[1]
        return pts


def _rows(poly):
    return [(h.normal, h.offset) for h in poly.halfspaces]


def _simple_bodies(seed):
    """Seeded (kind, dim, rows) simple bounded bodies: lattice polygons as
    half-planes, prisms over 4- to 24-gons, and boxes and simplices in
    skewed coordinates, each with its rows shuffled."""
    rng = random.Random(seed)
    for sides in range(3, 25):
        rows = _rows(polygon_from_vertices(_lattice_cycle(rng, sides, 2 + sides // 6)))
        rng.shuffle(rows)
        yield "polygon", 2, rows
    for sides in (4, 8, 12, 16, 20, 24):
        base = _rows(polygon_from_vertices(_lattice_cycle(rng, sides, 2 + sides // 6)))
        rows = [((*c, 0), b) for c, b in base]
        rows += [((0, 0, 1), F(rng.randint(-3, 3), 2)), ((0, 0, -1), -rng.randint(4, 6))]
        rng.shuffle(rows)
        yield "prism", 3, _skew(_unimodular(rng, 3), rows)
    for i in range(24):
        dim = 2 + i % 2
        lo = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)]
        hi = [x + rng.randint(1, 3) for x in lo]
        rows = _box_rows(lo, hi)
        rng.shuffle(rows)
        yield "box", dim, _skew(_unimodular(rng, dim), rows)
        rows = [(tuple(int(k == d) for k in range(dim)), lo[d]) for d in range(dim)]
        rows.append(((-1,) * dim, -sum(lo) - rng.randint(1, 4)))
        rng.shuffle(rows)
        yield "simplex", dim, _skew(_unimodular(rng, dim), rows)


def _not_simple_systems(seed):
    """Seeded (kind, dim, rows) bounded nonempty systems that are not simple
    polytopes: flat boxes, an extra facet through a vertex, and a facet
    that only touches the body (at a vertex, along a face, or a copy)."""
    rng = random.Random(seed)
    for i in range(24):
        dim = 2 + i % 2
        u = _unimodular(rng, dim)
        lo = [rng.randint(-3, 1) for _ in range(dim)]
        hi = [x + rng.randint(1, 3) for x in lo]
        flat = rng.sample(range(dim), rng.randint(1, dim))
        yield "flat", dim, _skew(u, _box_rows(lo, [lo[d] if d in flat else hi[d]
                                                   for d in range(dim)]))

        box = _box_rows(lo, hi)
        corner = [rng.choice(pair) for pair in zip(lo, hi)]
        c = _nonzero(rng, dim)
        rows = box + [(c, sum(a * x for a, x in zip(c, corner)))]
        rng.shuffle(rows)
        yield "through-vertex", dim, _skew(u, rows)

        # min of c over the box sits at a vertex, or along a face when c
        # has zero entries
        c = _nonzero(rng, dim)
        low = sum(a * (x if a > 0 else y) for a, x, y in zip(c, lo, hi))
        rows = box + [(c, low)]
        rng.shuffle(rows)
        yield "touching", dim, _skew(u, rows)


def _error_class(build, dim, rows):
    try:
        build(dim, rows)
    except (EmptyError, UnboundedError, NotSimpleError, RedundantFacetError) as exc:
        return type(exc)
    return None


class TestEnumerationAgreement:
    def test_walk_matches_enumeration(self):
        kinds = set()
        for kind, dim, rows in _simple_bodies(2026):
            want = build_by_enumeration(dim, rows)
            assert all(build(dim, rows) == want for build in ROUTES), (kind, rows)
            kinds.add(kind)
        assert kinds == {"polygon", "prism", "box", "simplex"}

    def test_polygon_matches_enumeration_of_its_half_planes(self):
        rng = random.Random(2027)
        for sides in [*range(3, 25), *range(3, 25)]:
            poly = polygon_from_vertices(_lattice_cycle(rng, sides, 2 + sides // 6))
            assert poly == build_by_enumeration(2, poly.halfspaces), sides

    @pytest.mark.parametrize("sides, step", [(5, 2), (7, 2), (7, 3), (8, 3)],
                             ids=lambda x: str(x))
    def test_star_cycles_rejected(self, sides, step):
        rng = random.Random(sides * 10 + step)
        pts = _lattice_cycle(rng, sides, 4)
        star = [pts[i * step % sides] for i in range(sides)]
        # every turn is a left turn; only the winding number is wrong
        for a, b, c in zip(star, star[1:] + star[:1], star[2:] + star[:2]):
            assert (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > 0
        with pytest.raises(NotSimpleError, match="not strictly convex counter-clockwise"):
            polygon_from_vertices(star)

    def test_not_simple_raises_the_oracle_class(self):
        classes = {}
        for kind, dim, rows in _not_simple_systems(2028):
            want = _error_class(build_by_enumeration, dim, rows)
            for build in ROUTES:
                assert _error_class(build, dim, rows) is want, (build, kind, rows)
            classes.setdefault(kind, set()).add(want)
        assert classes == {kind: {NotSimpleError}
                           for kind in ("flat", "through-vertex", "touching")}


# ---------------------------------------------------------------------------
# 2D half-space systems by angular order, against the walk and the enumeration


# x >= 1, y >= 1, x + y <= 1 is empty, yet its lines meet in angle order in
# the strictly convex cycle (1, 1), (0, 1), (1, 0), run clockwise
EMPTY_TRIANGLE = [((1, 0), 1), ((0, 1), 1), ((-1, -1), -1)]
# the normals at 0, 90 and 270 degrees turn left by less than pi and then by
# pi exactly: x >= 0 and 0 <= y <= 1 is a half-strip
HALF_STRIP = [((1, 0), 0), ((0, 1), 0), ((0, -1), -1)]


def _planar_systems(seed):
    """Seeded (kind, rows) 2D systems: the 2D ones of the seeded pools, every
    component of every golden 2D spec, and the components the 2D instance
    generators build, each with its rows shuffled and some of them scaled
    by 2 or 3."""
    for pool in (_simple_bodies(seed), _error_pool(seed), _not_simple_systems(seed)):
        yield from ((kind, rows) for kind, dim, rows in pool if dim == 2)
    for path in sorted(SPECS.glob("*.json")):
        body = parse_spec(str(path)).body
        if body.dim == 2:
            yield from (("golden", _rows(c)) for c in body.components)
    rng = random.Random(seed)
    pairs = [cp2_triangle(), cp1xcp1_square(), hirzebruch_square(3), pentagon_y(),
             square_in_square(), hirzebruch_cp2_fibersum(1), random_one_hole_2d(rng),
             random_multi_hole_2d(rng, holes=4)]
    pairs += [random_many_sided_quasitoric_2d(rng, m, bound=8) for m in (5, 17, 48, 96)]
    polygons = [c for pair in pairs for c in pair.body.components]
    for poly in polygons + [random_convex_lattice_polygon(rng, k) for k in range(3, 9)]:
        rows = [(tuple(k * x for x in c), k * b)
                for (c, b), k in zip(_rows(poly), rng.choices((1, 1, 2, 3), k=poly.facet_count))]
        rng.shuffle(rows)
        yield "generated", rows


def _agree(rows):
    """The angular route's polygon equals the walk's and the enumeration's
    where it accepts; where it refuses, the walk raises the enumeration's
    error class.  Returns that class, None for a polygon.  Past 50 rows the
    enumeration, C(m, 2) solves checked on m rows each, is left out."""
    got = polytope._by_angle(tuple(HalfSpace(tuple(c), F(b)) for c, b in rows))
    want = _error_class(walk, 2, rows)
    oracles = [walk] + [build_by_enumeration] * (len(rows) <= 50)
    assert all(_error_class(build, 2, rows) is want for build in oracles), rows
    if want is None:
        assert all(got == build(2, rows) for build in oracles), rows
        assert build_polytope(2, rows) == got
    else:
        assert got is None, rows
    return want


def _symmetric_polygon(m, bound):
    """The counter-clockwise vertex cycle of a centrally symmetric m-gon whose
    edge directions, primitive with entries up to bound, are spread evenly in
    angle: the shape of the benchmark's polygons."""
    upper = sorted((v for v in itertools.product(range(-bound, bound + 1), repeat=2)
                    if (v[1], v[0]) > (0, 0) and gcd(*v) == 1), key=cmp_to_key(_by_angle))
    steps = [upper[k * len(upper) // (m // 2)] for k in range(m // 2)]
    pts = [(0, 0)]
    for x, y in (steps + [(-x, -y) for x, y in steps])[:-1]:
        pts.append((pts[-1][0] + x, pts[-1][1] + y))
    return pts


class TestAngularRoute:
    def test_agrees_on_the_seeded_systems(self):
        outcomes = {}
        for kind, rows in _planar_systems(2030):
            outcomes.setdefault(kind, set()).add(_agree(rows))
        assert outcomes["polygon"] == outcomes["golden"] == outcomes["generated"] == {None}
        assert outcomes["empty"] == {EmptyError} and outcomes["unbounded"] == {UnboundedError}
        assert outcomes["flat"] == outcomes["through-vertex"] == {NotSimpleError}
        assert None in outcomes["random"] and len(outcomes["random"]) >= 3

    def test_refuses_the_empty_triangle_and_the_half_strip(self):
        assert _agree(EMPTY_TRIANGLE) is EmptyError
        assert _agree(HALF_STRIP) is UnboundedError

    def test_agrees_on_generated_systems(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        point = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        rational = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
        edits = st.lists(st.sampled_from(
            ("duplicate", "parallel", "opposite", "strip", "drop", "random", "short")),
            max_size=3)

        @st.composite
        def systems(draw):
            """Shuffled polygon rows with normals scaled by 1 to 3, shifted by
            a rational vector, then edited: a duplicate, a parallel or an
            opposite row, a row dropped, a random row added, all but at most
            2 rows dropped, or a strip between a row and an opposite one cut
            by a random row.  Hulls of collinear points give no rows."""
            cycle = _hull(draw(st.lists(point, min_size=3, max_size=7)))
            shift = draw(st.tuples(rational, rational))
            rows = []
            if len(cycle) >= 3:
                for c, b in _rows(polygon_from_vertices(cycle).transformed(F(1), shift)):
                    k = draw(st.integers(1, 3))
                    rows.append((tuple(k * x for x in c), k * b))
            for edit in draw(edits):
                if edit == "random" or not rows:
                    rows.append((draw(point.filter(any)), draw(rational)))
                    continue
                c, b = rows[draw(st.integers(0, len(rows) - 1))]
                if edit == "duplicate":
                    rows.append((c, b))
                elif edit == "parallel":
                    rows.append((c, b + draw(rational)))
                elif edit == "opposite":
                    rows.append((tuple(-x for x in c), -b + draw(rational)))
                elif edit == "strip":
                    rows = [(c, b), (tuple(-x for x in c), -b - draw(rational)),
                            (draw(point.filter(any)), draw(rational))]
                elif edit == "drop":
                    rows.remove((c, b))
                else:
                    rows = rows[:draw(st.integers(0, 2))]
            return draw(st.permutations(rows))

        outcomes = []

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None,
                             database=None)
        @hypothesis.example(EMPTY_TRIANGLE)
        @hypothesis.example(HALF_STRIP)
        @hypothesis.given(systems())
        def check(rows):
            outcomes.append((len(rows) < 3, _agree(rows)))

        check()
        classes = {want for _, want in outcomes}
        assert classes == {None, EmptyError, UnboundedError, NotSimpleError, RedundantFacetError}
        assert sum(short for short, _ in outcomes) >= 10
        assert min(sum(want is c for _, want in outcomes) for c in classes) >= 5

    def test_symmetric_polygons_make_no_dictionary(self, monkeypatch):
        # the walk's row updates grew 4x per doubling of m on these polygons
        counts = {"dictionaries": 0, "pivots": 0}
        init, pivot = _Dictionary.__init__, _Dictionary.pivot

        def counted_init(tab, *args):
            counts["dictionaries"] += 1
            init(tab, *args)

        def counted_pivot(tab, *args):
            counts["pivots"] += 1
            pivot(tab, *args)

        monkeypatch.setattr(_Dictionary, "__init__", counted_init)
        monkeypatch.setattr(_Dictionary, "pivot", counted_pivot)
        for m in (16, 32, 64, 128, 256):
            rows = _rows(polygon_from_vertices(_symmetric_polygon(m, 40)))
            assert build_polytope(2, rows).vertex_count == m
        assert counts == {"dictionaries": 0, "pivots": 0}
        base = _rows(polygon_from_vertices(_symmetric_polygon(16, 40)))
        build_polytope(3, [((*c, 0), b) for c, b in base] + [((0, 0, 1), 0), ((0, 0, -1), -1)])
        assert counts["dictionaries"] >= 1 and counts["pivots"] >= 16


def _graph_bodies():
    """Every component of every golden spec, and the bodies the instance
    generators build: the walk's in 2D and 3D, vertex cycles and placed holes."""
    for path in sorted(SPECS.glob("*.json")):
        yield from parse_spec(str(path)).body.components
    yield from (cp2_triangle().body.outer, unit_cube(), simplex_3d(), prism_3d())
    rng = random.Random(2029)
    for _ in range(8):
        yield from random_one_hole_3d(rng).body.components
        yield from random_multi_hole_2d(rng).body.components
    for sides in (3, 8, 21):
        yield random_prism_3d(rng, sides).body.outer


def _vertex_cycle_components():
    """(spec name, component, points) for each component a golden spec gives
    by its vertex cycle."""
    for path in sorted(SPECS.glob("*.json")):
        doc = json.loads(path.read_text())
        for c, obj in enumerate([doc["outer"], *doc.get("holes", [])]):
            if "vertices" in obj:
                yield path.stem, c, [tuple(map(F, p)) for p in obj["vertices"]]


class TestVertexGraph:
    def test_graph_from_facet_sets_is_regular_and_connected(self):
        # with the vertices adjacent that share dim - 1 facets, a walk that
        # missed a vertex would leave some vertex short of dim neighbours
        dims = []
        for poly in _graph_bodies():
            neighbours = {v: set() for v in range(poly.vertex_count)}
            for (a, b), _ in edges_of(poly):
                neighbours[a].add(b)
                neighbours[b].add(a)
            assert all(len(n) == poly.dim for n in neighbours.values())
            reached, stack = {0}, [0]
            while stack:
                new = neighbours[stack.pop()] - reached
                reached |= new
                stack.extend(new)
            assert len(reached) == poly.vertex_count
            dims.append(poly.dim)
        assert dims.count(2) >= 60 and dims.count(3) >= 20

    def test_cycle_follows_the_spec_order(self):
        # facet i of a vertex cycle runs from point i to point i + 1
        seen = []
        for name, c, points in _vertex_cycle_components():
            comp = parse_spec(str(SPECS / f"{name}.json")).body.components[c]
            order, facets = _cycle(comp)
            k = len(points)
            assert facets == [(facets[0] + i) % k for i in range(k)], (name, c)
            assert [comp.vertices[v].point for v in order] == [points[f] for f in facets]
            seen.append(facets[0])
        assert len(seen) >= 10 and any(seen)  # not every cycle starts at facet 0


# ---------------------------------------------------------------------------
# facet values and the ratio test in integers, against Fraction sums and steps


def _values_bodies(seed):
    """Seeded simple polytopes with non-integer offsets: lattice polygons
    scaled and shifted by rationals, skewed prisms, and placed holes in 2D
    and in 3D."""
    rng = random.Random(seed)
    for sides in range(3, 13):
        scale = F(rng.randint(1, 40), rng.choice((3, 7, 9, 11)))
        shift = (F(rng.randint(-30, 30), 7), F(rng.randint(-30, 30), 5))
        yield polygon_from_vertices(_lattice_cycle(rng, sides, 3)).transformed(scale, shift)
    yield from (build_polytope(dim, rows) for kind, dim, rows in _simple_bodies(seed)
                if kind == "prism")
    outer = polygon_from_vertices(_lattice_cycle(rng, 9, 4))
    yield from place_holes(outer, [polygon_from_vertices(_lattice_cycle(rng, k, 2))
                                   for k in (3, 5, 4)]).holes
    yield from random_one_hole_3d(rng).body.components


def _sample_points(rng, poly):
    """The vertices, the centroid and points around it, with negative and
    non-dyadic rational coordinates and some integer ones."""
    c = poly.centroid()
    coords = (F(1, 3), F(-7, 5), F(-2, 9), 0, -3, 4)
    points = [v.point for v in poly.vertices] + [c]
    for _ in range(12):
        points.append(tuple(x + rng.choice(coords) for x in c))
        points.append(tuple(rng.choice(coords) for _ in c))
        points.append(tuple(F(rng.randint(-99, 99), rng.choice((3, 5, 7, 13))) for _ in c))
    return points


class TestIntegerArithmetic:
    def test_values_match_fraction_sums(self):
        rng = random.Random(71)
        inside = outside = fractional = 0
        for poly in _values_bodies(71):
            fractional += any(h.offset.denominator > 1 for h in poly.halfspaces)
            for point in _sample_points(rng, poly):
                want = tuple(value_by_fractions(h, point) for h in poly.halfspaces)
                assert poly.values(point) == want, point
                assert tuple(h.value(point) for h in poly.halfspaces) == want
                assert contains(poly, point) == (min(want) >= 0)
                assert contains(poly, point, strict=True) == (min(want) > 0)
                assert contains(poly, [str(x) for x in point]) == (min(want) >= 0)
                inside += min(want) > 0
                outside += min(want) < 0
        assert min(inside, outside) >= 100 and fractional >= 15

    def test_blocking_matches_fraction_steps(self, monkeypatch):
        rng = random.Random(73)
        pairs = [random_one_hole_2d(rng) for _ in range(4)]
        pairs += [random_multi_hole_2d(rng, holes=h) for h in (3, 6, 8)]
        pairs.append(random_one_hole_3d(rng))
        seen = []
        blocking = _Dictionary.blocking

        def checked(tab, k):
            rows = blocking(tab, k)
            assert rows == blocking_by_fractions(tab, k), (tab.rows, tab.basis, k)
            seen.append(len(rows))
            return rows

        monkeypatch.setattr(_Dictionary, "blocking", checked)
        for build in ROUTES:
            for kind, dim, rows in _simple_bodies(73):
                build(dim, rows)
            for kind, dim, rows in _not_simple_systems(73):
                with pytest.raises(NotSimpleError):
                    build(dim, rows)
        built = len(seen)
        for pair in pairs:
            collar_thresholds_by_lps(pair.body)  # one LP per (hole, obstacle)
        # ties come from the bodies that are not simple
        assert built >= 1000 and len(seen) - built >= 50
        assert sum(n > 1 for n in seen[:built]) >= 10


# ---------------------------------------------------------------------------
# polygons over one common denominator, against the Fraction route


_DENOMINATED = (F(1, 3), F(-7, 5), F(-2, 9), F(5, 7), F(-11, 4), 2, -1)


def _affine(rng, cycle):
    """The cycle under a rational map with positive determinant, then a
    rational shift, so coordinates get mixed denominators."""
    while True:
        a, b, c, d = (rng.choice(_DENOMINATED) for _ in range(4))
        if a * d - b * c > 0:
            break
    shift = (rng.choice(_DENOMINATED), rng.choice(_DENOMINATED))
    return [(a * x + b * y + shift[0], c * x + d * y + shift[1]) for x, y in cycle]


def _polygon_cycles(seed):
    """Seeded (kind, cycle) counter-clockwise strictly convex cycles: lattice
    cycles, the same under rational maps with mixed denominators, lattice
    cycles scaled and shifted by rationals, and mapped cycles that start at
    another vertex."""
    rng = random.Random(seed)
    for sides in range(3, 19):
        cycle = _lattice_cycle(rng, sides, 2 + sides // 5)
        yield "integer", cycle
        yield "mixed", _affine(rng, cycle)
        scale = F(rng.randint(1, 40), rng.choice((3, 7, 9, 11)))
        shift = (F(rng.randint(-30, 30), 7), F(rng.randint(-30, 30), 5))
        yield "scaled", [(scale * x + shift[0], scale * y + shift[1]) for x, y in cycle]
        start = rng.randrange(sides)
        yield "rotated", _affine(rng, cycle[start:] + cycle[:start])


def _bad_cycles(seed):
    """Seeded (kind, cycle) inputs that both routes must refuse."""
    rng = random.Random(seed)
    yield "short", [(0, 0), (1, 0)]
    yield "3d", [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    yield "pentagram", [(0, 10), (-6, -8), (10, 3), (-10, 3), (6, -8)]
    for sides in range(3, 13):
        cycle = _affine(rng, _lattice_cycle(rng, sides, 3))
        yield "clockwise", cycle[::-1]
        i = rng.randrange(sides)
        a, b = cycle[i], cycle[(i + 1) % sides]
        yield "collinear", [*cycle[:i + 1], (F(a[0] + b[0], 2), F(a[1] + b[1], 2)),
                            *cycle[i + 1:]]
        yield "twice", cycle + cycle
        if sides >= 5:
            yield "star", cycle[::2] + cycle[1::2] if sides % 2 else cycle[::2] * 2


def _raised(build, cycle):
    try:
        build(cycle)
    except (DimensionError, NotSimpleError) as exc:
        return type(exc), str(exc)
    return None


class TestPolygonByFractions:
    def test_same_polytope_as_the_fraction_route(self):
        kinds = {}
        for kind, cycle in _polygon_cycles(83):
            got, want = polygon_from_vertices(cycle), polygon_by_fractions(cycle)
            assert got == want, cycle
            assert [h.offset for h in got.halfspaces] == [h.offset for h in want.halfspaces]
            assert all(type(h.offset) is F for h in got.halfspaces)
            assert [v.point for v in got.vertices] == [v.point for v in want.vertices]
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "mixed":
                dens = {x.denominator for p in cycle for x in p}
                kinds["mixed-dens"] = kinds.get("mixed-dens", 0) + (len(dens) > 2)
        assert kinds["integer"] == kinds["mixed"] == kinds["scaled"] == kinds["rotated"] == 16
        assert kinds["mixed-dens"] >= 12

    def test_same_error_as_the_fraction_route(self):
        kinds = {}
        for kind, cycle in _bad_cycles(89):
            raised = _raised(polygon_from_vertices, cycle)
            assert raised is not None, (kind, cycle)
            assert raised == _raised(polygon_by_fractions, cycle), (kind, cycle)
            kinds.setdefault(kind, set()).add(raised)
        assert kinds["short"] == {(DimensionError, "a polygon needs at least three vertices")}
        assert kinds["3d"] == {(DimensionError, "polygon vertices must be 2-dimensional")}
        bad_cycle = {(NotSimpleError, "vertex cycle is not strictly convex counter-clockwise")}
        for kind in ("pentagram", "clockwise", "collinear", "twice", "star"):
            assert kinds[kind] == bad_cycle, kind


class TestTransformedByFractions:
    @staticmethod
    def _bodies(seed):
        """Seeded 2D polygons with mixed denominators and 3D bodies, outer and hole."""
        rng = random.Random(seed)
        for kind, cycle in _polygon_cycles(seed):
            if kind in ("mixed", "scaled"):
                yield polygon_from_vertices(cycle)
        for _ in range(4):
            yield from random_one_hole_3d(rng).body.components

    def test_same_polytope_as_the_fraction_route(self):
        rng = random.Random(97)
        seen = {2: 0, 3: 0}
        for poly in self._bodies(97):
            shifts = [tuple(F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(poly.dim)),
                      tuple(rng.randint(-9, 9) for _ in range(poly.dim)),
                      tuple(-F(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(poly.dim))]
            for scale in (F(1), 1, F(rng.randint(1, 40), rng.randint(1, 9)), F(3)):
                for shift in shifts:
                    got = poly.transformed(scale, shift)
                    want = transformed_by_fractions(poly, scale, shift)
                    assert got == want, (poly, scale, shift)
                    assert all(type(h.offset) is F for h in got.halfspaces)
                    assert all(type(x) is F for v in got.vertices for x in v.point)
            seen[poly.dim] += 1
        assert seen[2] >= 30 and seen[3] >= 8, seen

    @pytest.mark.parametrize("scale", [F(0), 0, F(-1, 3), -2])
    def test_nonpositive_scale(self, scale):
        poly = polygon_from_vertices([(0, 0), (F(3, 2), 0), (0, 1)])
        for route in (poly.transformed, functools.partial(transformed_by_fractions, poly)):
            with pytest.raises(ValueError, match="scale must be positive"):
                route(scale, (F(1, 2), 0))


# ---------------------------------------------------------------------------
# hole disjointness: a separating facet in integers, else one LP in 3D


def _hull(points):
    """The counter-clockwise strictly convex hull cycle of lattice points
    (Andrew's monotone chain); fewer than 3 points when they are collinear."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


def _tetrahedron(points):
    """The 3D simplex on four affinely independent lattice points."""
    rows = []
    for i, far in enumerate(points):
        p, q, r = (x for j, x in enumerate(points) if j != i)
        u, v = [b - a for a, b in zip(p, q)], [b - a for a, b in zip(p, r)]
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if sum(a * (b - c) for a, b, c in zip(n, far, p)) < 0:
            n = tuple(-a for a in n)
        n = tuple(a // gcd(*n) for a in n)
        rows.append((n, sum(a * b for a, b in zip(n, p))))
    return build_polytope(3, rows)


# Two tetrahedra one unit apart whose nearest features are skew edges: the
# top edge of the first runs along x at z = 0, the bottom edge of the second
# along y at z = 1.  Only the plane z = 1/2 separates them, and it is a facet
# of neither.
SKEW_TETRAHEDRA = ([(-1, 0, 0), (1, 0, 0), (0, -1, -2), (0, 1, -2)],
                   [(0, -1, 1), (0, 1, 1), (-1, 0, 3), (1, 0, 3)])


def _outer_around(a, b):
    """A box with both bodies strictly inside."""
    (lo_a, hi_a), (lo_b, hi_b) = a.bounding_box(), b.bounding_box()
    lo = [min(x, y) - 1 for x, y in zip(lo_a, lo_b)]
    hi = [max(x, y) + 1 for x, y in zip(hi_a, hi_b)]
    return build_polytope(a.dim, _box_rows(lo, hi))


def _some_facet_separates(a, b):
    """Whether a facet of one body is negative at every vertex of the other,
    by Fraction values."""
    return any(all(value_by_fractions(h, v.point) < 0 for v in q.vertices)
               for p, q in ((a, b), (b, a)) for h in p.halfspaces)


def _box_at(lo, size):
    return build_polytope(len(lo), _box_rows(lo, [x + s for x, s in zip(lo, size)]))


def _hole_pairs(seed):
    """Seeded (kind, hole, hole) pairs: boxes apart, touching at a vertex,
    sharing an edge or a face, overlapping and nested, in 2D and 3D; apex to
    apex triangles; lattice polygons and simplices at random offsets; and
    the skew tetrahedra.  Each pair is scaled and shifted by rationals."""
    rng = random.Random(seed)
    one = F(1)
    for dim in (2, 3):
        for _ in range(6):
            size = [rng.randint(1, 3) * one for _ in range(dim)]
            axis, gap = rng.randrange(dim), F(rng.randint(1, 5), rng.randint(1, 4))
            zero, on_axis = [0 * one] * dim, [x * (d == axis) for d, x in enumerate(size)]
            first = _box_at(zero, size)
            yield "apart", first, _box_at([x + gap * (d == axis) for d, x in enumerate(on_axis)],
                                          size)
            yield "corner", first, _box_at(size, size)
            yield "shared", first, _box_at(on_axis, size)
            yield "overlap", first, _box_at([x / 2 for x in size], size)
            yield "nested", _box_at(zero, [3 * x for x in size]), _box_at(size, size)
    for _ in range(6):
        gap = F(rng.randint(1, 6), rng.randint(1, 5))
        w = rng.randint(2, 6)
        down = polygon_from_vertices([(0, 0), (w, 2), (-w, 2)])
        up = polygon_from_vertices([(0, -gap), (-w, -2 - gap), (w, -2 - gap)])
        yield "apex", down, up
    for _ in range(30):
        a = polygon_from_vertices(_lattice_cycle(rng, rng.randint(3, 7), 2))
        b = polygon_from_vertices(_lattice_cycle(rng, rng.randint(3, 7), 2))
        shift = (F(rng.randint(-12, 12), rng.randint(1, 4)),
                 F(rng.randint(-12, 12), rng.randint(1, 4)))
        yield "polygons", a, b.transformed(one, shift)
    for _ in range(30):
        while True:
            pts = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(4)]
            u, v, w = ([b - a for a, b in zip(pts[0], p)] for p in pts[1:])
            if (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
                    + u[2] * (v[0] * w[1] - v[1] * w[0])):
                break
        shift = tuple(F(rng.randint(-5, 5), rng.randint(2, 3)) for _ in range(3))
        yield "simplices", _tetrahedron(pts), _tetrahedron(pts[::-1]).transformed(one, shift)
    for i in range(6):
        # the skew pair in other integer coordinates, x = U y with det U = 1
        u = _unimodular(rng, 3) if i else [[int(r == c) for c in range(3)] for r in range(3)]
        a, b = ([tuple(sum(u[r][c] * p[c] for c in range(3)) for r in range(3)) for p in pts]
                for pts in SKEW_TETRAHEDRA)
        yield "skew", _tetrahedron(a), _tetrahedron(b)


def _routes(monkeypatch):
    """With every LP counted, a function that builds a body around a pair
    of holes and returns (accepted, LPs run)."""
    lps, feasible_ = [], polytope.feasible

    def counted(dim, rows):
        lps.append(len(rows))
        return feasible_(dim, rows)

    def run(a, b):
        outer = _outer_around(a, b)
        before = len(lps)
        try:
            build_with_holes(outer, [a, b])
        except DisjointnessError as exc:
            assert str(exc) == "holes 1 and 2 intersect"
            return False, len(lps) - before
        return True, len(lps) - before

    monkeypatch.setattr(polytope, "feasible", counted)
    return run


class TestHoleDisjointness:
    def test_accepts_exactly_the_pairs_fourier_motzkin_finds_disjoint(self, monkeypatch):
        run = _routes(monkeypatch)
        routes = {}
        for kind, a, b in _hole_pairs(97):
            scale = F(random.Random(kind).randint(1, 9), 7)
            shift = tuple(F(k - 3, 5) for k in range(a.dim))
            a, b = a.transformed(scale, shift), b.transformed(scale, shift)
            disjoint = not fm_feasible(_rows(a) + _rows(b))
            accepted, lps = run(a, b)
            assert accepted == disjoint, kind
            # in the plane every edge of P - Q is an edge of P or of Q, so two
            # disjoint polygons always have a separating edge; only a 3D pair
            # with no separating facet reaches the LP
            separates = _some_facet_separates(a, b)
            assert a.dim > 2 or separates or not disjoint, kind
            assert lps == (0 if separates or a.dim == 2 else 1), kind
            route = ("facet" if separates else "no-facet" if not lps
                     else "lp-accept" if accepted else "lp-reject")
            routes.setdefault(kind, {}).setdefault(route, 0)
            routes[kind][route] += 1
        assert routes == {
            "apart": {"facet": 12},
            "corner": {"no-facet": 6, "lp-reject": 6},
            "shared": {"no-facet": 6, "lp-reject": 6},
            "overlap": {"no-facet": 6, "lp-reject": 6},
            "nested": {"no-facet": 6, "lp-reject": 6},
            "apex": {"facet": 6},
            "polygons": {"facet": 23, "no-facet": 7},
            "simplices": {"facet": 22, "lp-reject": 6, "lp-accept": 2},
            "skew": {"lp-accept": 6},
        }

    def test_skew_tetrahedra_take_the_lp_and_are_accepted(self, monkeypatch):
        a, b = (_tetrahedron(pts) for pts in SKEW_TETRAHEDRA)
        assert not _some_facet_separates(a, b)
        assert not fm_feasible(_rows(a) + _rows(b))
        assert _routes(monkeypatch)(a, b) == (True, 1)
        # one unit lower, the two edges cross at the origin
        touching = b.transformed(F(1), (0, 0, -1))
        assert _routes(monkeypatch)(a, touching) == (False, 1)

    def test_certificate_soundness_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        point = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        rational = st.builds(F, st.integers(-16, 16), st.integers(1, 3))
        verdicts = []

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                             database=None)
        @hypothesis.given(st.lists(point, min_size=3, max_size=7),
                          st.lists(point, min_size=3, max_size=7),
                          st.tuples(rational, rational), st.tuples(rational, rational))
        def check(points_a, points_b, shift_a, shift_b):
            cycle_a, cycle_b = _hull(points_a), _hull(points_b)
            hypothesis.assume(len(cycle_a) >= 3 and len(cycle_b) >= 3)
            a = polygon_from_vertices(cycle_a).transformed(F(1), shift_a)
            b = polygon_from_vertices(cycle_b).transformed(F(1), shift_b)
            disjoint = not fm_feasible(_rows(a) + _rows(b))
            try:
                build_with_holes(_outer_around(a, b), [a, b])
            except DisjointnessError:
                assert not disjoint
            else:
                assert disjoint
            verdicts.append(disjoint)

        check()
        assert min(verdicts.count(True), verdicts.count(False)) >= 30, verdicts.count(True)
