import copy
import functools
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

import tmh.mac
from tmh.charpair import CharacteristicPair, validate
from tmh.errors import DimensionError, DomainError, NotValidatedError
from tmh.cli import parse_spec
from tmh.mac import (
    _certified_collar_widths,
    _collar_bounds,
    _l1,
    _offset_rows,
    embedding_chart,
    freeness_check,
    kernel_data,
)
from tmh.polytope import _Dictionary, build_polytope, build_with_holes, polygon_from_vertices

from counting import count_calls
from golden_corpus import SPECS
from matrices import mul_vector
from oracles import (
    body_contains,
    candidates,
    collar_thresholds_by_lps,
    collar_widths_by_fm,
    collar_widths_by_lps,
    edges_of,
    evaluate_by_fractions,
    freeness_by_kernel,
    hole_coordinates,
    kernel_by_hermite,
    kernel_by_pivoting,
    value_by_fractions,
)
from instances import (
    _apply_gl,
    cp1xcp1_square,
    cp2_triangle,
    fibersum_pairs,
    hirzebruch_cp2_fibersum,
    pair_from_components,
    random_gl3z,
    random_many_sided_quasitoric_2d,
    random_multi_hole_2d,
    random_one_hole_2d,
    random_one_hole_3d,
    random_quasitoric_2d,
    random_quasitoric_3d,
    square_in_square,
    validated,
)

F = Fraction


def boundary_and_interior_samples(pair):
    """Rational sample points with their known facet memberships."""
    body = pair.body
    samples = []
    for gv in body.global_vertices():
        samples.append((gv.point, set(gv.facets)))
    # edge midpoints lie on exactly the edge's facets
    for ci, comp in enumerate(body.components):
        for (i, j), facets in edges_of(comp):
            a, b = comp.vertices[i].point, comp.vertices[j].point
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            samples.append((mid, {body.facet_offsets[ci] + f for f in facets}))
    return samples


@functools.lru_cache(maxsize=None)
def _golden_chart(name):
    return embedding_chart(parse_spec(str(SPECS / f"{name}.json")).to_pair())


def _golden_points(body):
    """Up to 16 vertices of each component, and the points an eighth of the
    way from each toward and away from the component's centroid."""
    for comp in body.components:
        c = comp.centroid()
        for v in comp.vertices[::-(-comp.vertex_count // 16)]:
            for t in (F(0), F(1, 8), F(-1, 8)):
                yield tuple(x + t * (y - x) for x, y in zip(v.point, c))


def _collar_points(chart):
    """Points straight off up to 8 facets of each hole, at the weighted depth
    t in {0, w/3, w, 2w} from the centroid of the facet's vertices, w the
    hole's collar width: h(x) = -t |normal|_1 there."""
    for hole, w in zip(chart.body.holes, chart.collar_widths):
        for f in range(0, hole.facet_count, -(-hole.facet_count // 8)):
            normal = hole.halfspaces[f].normal
            on = [v.point for v in hole.vertices if f in v.facets]
            base = tuple(sum(xs) / len(on) for xs in zip(*on))
            step = F(_l1(normal), sum(c * c for c in normal))
            for t in (F(0), w / 3, w, 2 * w):
                yield tuple(x - t * step * c for x, c in zip(base, normal))


class TestEmbeddingCoordinates:
    def test_unit_square_example(self):
        outer = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
        # reorder facets to {x>=0},{y>=0},{x<=1},{y<=1} via half-space input
        from tmh.polytope import build_polytope

        outer = build_polytope(2, [
            ((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])
        pair = pair_from_components(outer, [], [[(1, 0), (0, 1), (-1, 0), (0, -1)]])
        validate(pair)
        coords = embedding_chart(pair).evaluate((F(1, 4), F(1, 2)))
        assert coords == (F(1, 4), F(1, 2), F(3, 4), F(1, 2))

    def test_vanishing_pattern(self):
        for pair in (validated(square_in_square()), validated(cp2_triangle())):
            chart = embedding_chart(pair)
            for point, on_facets in boundary_and_interior_samples(pair):
                coords = chart.evaluate(point)
                for gid, value in enumerate(coords):
                    if gid in on_facets:
                        assert value == 0
                    else:
                        assert value > 0

    def test_wrong_length_point(self):
        chart = embedding_chart(validated(cp2_triangle()))
        for point in ((F(1, 4),), (F(1, 4), F(1, 4), 5)):
            with pytest.raises(DimensionError):
                chart.evaluate(point)

    def test_interior_point_all_positive(self):
        pair = validated(square_in_square())
        coords = embedding_chart(pair).evaluate((F(1, 2), F(1, 2)))
        assert all(c > 0 for c in coords)

    def test_outside_raises(self):
        chart = embedding_chart(validated(square_in_square()))
        with pytest.raises(DomainError):
            chart.evaluate((10, 10))
        with pytest.raises(DomainError):
            # strictly inside the hole
            chart.evaluate((F(3, 2), F(3, 2)))

    def test_hole_boundary_lift(self):
        pair = validated(square_in_square())
        chart = embedding_chart(pair)
        # on the hole boundary the auxiliary coordinate is exactly 1
        assert hole_coordinates(chart, (1, 1)) == (1,)
        # far away it is exactly 0
        assert hole_coordinates(chart, (F(1, 10), F(1, 10))) == (0,)

    def test_hole_coordinates_wrong_length(self):
        chart = embedding_chart(validated(square_in_square()))
        with pytest.raises(DimensionError):
            chart.evaluate((F(1, 2), F(1, 2), 7))

    def test_continuity_across_collar(self):
        pair = validated(square_in_square())
        chart = embedding_chart(pair)
        w = chart.collar_widths[0]
        # walk straight down from the hole's bottom edge; the auxiliary
        # coordinate must drop affinely from 1 to 0 across the collar
        base = F(1)  # hole bottom y = 1, x in [1, 2]
        for t in (F(0), w / 3, w / 2, w, 2 * w):
            p = (F(3, 2), base - t)
            expect = max(F(0), 1 - t / w)
            assert hole_coordinates(chart, p)[0] == expect
            # every outer coordinate is the facet value plus the hole coordinate
            outer_value = value_by_fractions(pair.body.outer.halfspaces[0], p)
            assert chart.evaluate(p)[0] == outer_value + expect

    @pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
    def test_domain_check_matches_the_containment_oracle(self, name):
        # evaluate refuses exactly the points body_contains rejects: on up to 16
        # vertices of each component, and an eighth of the way from each toward
        # and away from the component's centroid
        chart = _golden_chart(name)
        verdicts = set()
        for point in _golden_points(chart.body):
            inside = body_contains(chart.body, point)
            try:
                chart.evaluate(point)
            except DomainError:
                assert not inside, point
            else:
                assert inside, point
            verdicts.add(inside)
        assert verdicts == {True, False}



class TestIntegerEvaluation:
    """EmbeddingChart.evaluate runs in integers; evaluate_by_fractions is the
    Fraction route it replaced."""

    @staticmethod
    def verdict(chart, point):
        """True if both routes give the same coordinates, each a Fraction in
        lowest terms, and False if both raise the same DomainError."""
        try:
            want = evaluate_by_fractions(chart, point)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                chart.evaluate(point)
            assert str(got.value) == str(exc)
            return False
        got = chart.evaluate(point)
        assert got == want, point
        # without holes the hole sum is the int 0, and the coordinates stay Fractions
        assert all(type(c) is Fraction and c.denominator > 0
                   and gcd(c.numerator, c.denominator) == 1 for c in got)
        return True

    @pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
    def test_golden_charts(self, name):
        chart = _golden_chart(name)
        verdicts = [self.verdict(chart, p) for p in _golden_points(chart.body)]
        assert set(verdicts) == {True, False}
        collar = [self.verdict(chart, p) for p in _collar_points(chart)]
        assert all(collar[::4])  # t = 0 is on the hole boundary, in the body

    def test_one_lift_per_point(self, monkeypatch):
        # the chart keeps its offsets, l1 weights, widths and constants in integers;
        # evaluate lifts the point and nothing else, in the body and in a hole
        chart = _golden_chart("octagon_8_holes")
        calls = []
        lift = tmh.mac._integer_row

        def counted(values):
            calls.append(len(values))
            return lift(values)

        monkeypatch.setattr(tmh.mac, "_integer_row", counted)
        for comp in chart.body.components:
            for v in comp.vertices:
                calls.clear()
                chart.evaluate(v.point)
                assert calls == [chart.body.dim + 1]
        for hole in chart.body.holes:
            calls.clear()
            with pytest.raises(DomainError):
                chart.evaluate(hole.centroid())
            assert calls == [chart.body.dim + 1]

    def test_copies_rebuild_the_kept_data(self):
        # copy and pickle carry the three fields; the constructor rebuilds the tuples it keeps
        def outcome(chart, point):
            try:
                return chart.evaluate(point)
            except DomainError as exc:
                return str(exc)

        checked = 0
        for name in sorted(p.stem for p in SPECS.glob("*.json")):
            chart = _golden_chart(name)
            if not chart.body.hole_count:
                continue
            fields = (chart.body, chart.collar_widths, chart.hole_constants)
            assert chart.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (type(chart), fields)
            points = [*_golden_points(chart.body), *_collar_points(chart)]
            want = [outcome(chart, p) for p in points]
            assert any(isinstance(w, str) for w in want)
            for dup in (copy.copy(chart), copy.deepcopy(chart), pickle.loads(pickle.dumps(chart))):
                assert dup == chart and hash(dup) == hash(chart) and repr(dup) == repr(chart)
                assert repr(dup).startswith("EmbeddingChart(body=")
                for slot in ("_rows", "_holes", "_constants"):
                    assert type(getattr(dup, slot)) is tuple
                    assert getattr(dup, slot) == getattr(chart, slot)
                assert [outcome(dup, p) for p in points] == want
            checked += 1
        assert checked >= 10

    def test_collar_points_span_the_hole_coordinate(self):
        # at t = 0, w/3, w and 2w off a hole facet its coordinate is 1, 2/3, 0, 0
        pair = validated(square_in_square())
        chart = embedding_chart(pair)
        seen = [hole_coordinates(chart, p)[0] for p in _collar_points(chart)]
        assert seen == [F(1), F(2, 3), F(0), F(0)] * 4
        assert all(self.verdict(chart, p) for p in _collar_points(chart))

    def test_open_hole_test_is_strict(self):
        # every hole vertex and facet point is in the body; a hole's centroid is not
        chart = embedding_chart(validated(random_multi_hole_2d(random.Random(5), holes=3)))
        for k, hole in enumerate(chart.body.holes, start=1):
            for v in hole.vertices:
                assert self.verdict(chart, v.point)
            with pytest.raises(DomainError, match=f"in the open interior of hole {k}$"):
                chart.evaluate(hole.centroid())
        with pytest.raises(DomainError, match="is outside the outer body$"):
            chart.evaluate(tuple(x - 1 for x in chart.body.outer.bounding_box()[0]))

    def test_generated_points(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        charts = [embedding_chart(random_multi_hole_2d(random.Random(seed), holes=holes))
                  for seed, holes in ((11, 2), (12, 2), (13, 3), (14, 3))]
        charts.append(embedding_chart(random_one_hole_3d(random.Random(15))))
        share = st.fractions(min_value=F(-1, 8), max_value=F(9, 8), max_denominator=60)
        offset = st.fractions(min_value=-2, max_value=2, max_denominator=12)

        @st.composite
        def points(draw):
            """A rational point of a chart's bounding box, or one within two
            collar widths of a hole vertex."""
            chart = draw(st.sampled_from(charts))
            if draw(st.booleans()):
                lo, hi = chart.body.outer.bounding_box()
                return chart, tuple(a + (b - a) * draw(share) for a, b in zip(lo, hi))
            k = draw(st.integers(0, chart.body.hole_count - 1))
            v = draw(st.sampled_from(chart.body.holes[k].vertices)).point
            return chart, tuple(x + chart.collar_widths[k] * draw(offset) for x in v)

        seen = []

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None,
                             database=None)
        @hypothesis.given(points())
        def check(case):
            chart, point = case
            inside = self.verdict(chart, point)
            collar = inside and any(0 < p < 1 for p in hole_coordinates(chart, point))
            seen.append((inside, collar))

        check()
        assert sum(not inside for inside, _ in seen) >= 20
        assert sum(collar for _, collar in seen) >= 20

class TestCollarWidths:
    def test_match_fourier_motzkin_halving(self):
        # the library computes each width from one threshold, a dual bound
        # that a primal point proves or else LPs; the oracle halves, solving
        # one system per outer facet and other hole at each width
        rng = random.Random(43)
        pairs = [hirzebruch_cp2_fibersum(1), square_in_square()]
        pairs += [random_one_hole_2d(rng) for _ in range(6)]
        pairs += [random_multi_hole_2d(rng, holes=2) for _ in range(3)]
        pairs += [fibersum_pairs(random_quasitoric_2d(rng),
                                 [random_quasitoric_2d(rng, sides=k) for k in (3, 4, 3)]),
                  random_one_hole_3d(rng)]
        halved = 0
        for pair in pairs:
            widths = embedding_chart(pair).collar_widths
            assert widths == collar_widths_by_fm(pair.body)
            body = pair.body
            for hole, width in zip(body.holes, widths):
                guess = min(h.value(v.point) / sum(map(abs, h.normal))
                            for h in body.outer.halfspaces for v in hole.vertices) / 2
                halved += width < guess
        assert halved >= 5


def _near_touching(exponent):
    """Two unit-square holes 10^-exponent apart in a 10 x 10 square."""
    gap = 2 + F(1, 10**exponent)
    return build_with_holes(polygon_from_vertices([(0, 0), (10, 0), (10, 10), (0, 10)]), [
        polygon_from_vertices([(1, 1), (2, 1), (2, 2), (1, 2)]),
        polygon_from_vertices([(gap, 1), (3, 1), (3, 2), (gap, 2)])])


def _pinned(name):
    return parse_spec(str(SPECS / f"{name}.json")).body


def _seeded_bodies():
    rng = random.Random(1801)
    bodies = [random_one_hole_2d(rng).body for _ in range(8)]
    bodies += [random_multi_hole_2d(rng, holes=h).body for h in (2, 3, 5, 8)]
    bodies += [random_one_hole_3d(rng).body for _ in range(3)]
    return bodies + [_near_touching(e) for e in (3, 30)]


class TestCollarBounds:
    """Each obstacle's dual lower bound is at most its LP threshold, a primal
    point that proves the least bound makes it the least threshold, and
    skipping the LPs that a bound rules out leaves every width unchanged."""

    @staticmethod
    def check(body, thresholds):
        """Checks the bounds of every hole; returns the number of holes whose
        least bound no primal point proves, so that the LPs run."""
        bounds = list(_collar_bounds(body, _offset_rows(body)))
        assert len(bounds) == len(thresholds) == body.hole_count
        unproved = 0
        for (_, below, proved), exact in zip(bounds, thresholds):
            assert len(below) == len(exact) == body.outer.facet_count + body.hole_count - 1
            assert all(s > 0 for _, s in below)
            below = [F(t, s) for t, s in below]
            assert all(b <= t for b, t in zip(below, exact)), (below, exact)
            # the width rounds to a power of two, so check the threshold itself
            assert proved is None or proved == min(below) == min(exact), (proved, exact)
            unproved += proved is None
        widths = _certified_collar_widths(body, _offset_rows(body))
        assert widths == collar_widths_by_lps(body, thresholds)
        return unproved

    def test_seeded_bodies(self):
        # one-hole and 2-8-hole polygons, one-hole 3D bodies, near-touching holes;
        # some hole's least bound has no primal point, so the LP route stays covered
        unproved = [self.check(body, collar_thresholds_by_lps(body)) for body in _seeded_bodies()]
        assert sum(unproved) >= 1, unproved

    @pytest.mark.parametrize("name", ["fibersum_64_31", "fibersum_128_128", "octagon_8_holes"])
    def test_pinned_bodies(self, name):
        body = _pinned(name)
        self.check(body, collar_thresholds_by_lps(body))

    def test_tight_bounds_on_the_near_touching_holes(self):
        # the other hole's separating facet gives the gap itself
        for e in (3, 30, 300):
            body = _near_touching(e)
            bounds = list(_collar_bounds(body, _offset_rows(body)))
            assert [F(*b[-1]) for _, b, _ in bounds] == [F(1, 10**e)] * 2

    @pytest.mark.parametrize("name", ["fibersum_64_31", "fibersum_128_128", "octagon_8_holes"])
    def test_one_lp_per_hole(self, name, monkeypatch):
        # at most one per hole, and here none: a primal point proves every least bound
        calls = []
        least = _Dictionary.least

        def counted(tab, j):
            calls.append(j)
            return least(tab, j)

        body = _pinned(name)
        monkeypatch.setattr(_Dictionary, "least", counted)
        _certified_collar_widths(body, _offset_rows(body))
        assert len(calls) == 0


class TestKernelData:
    def test_cp2_kernel(self):
        pair = validated(cp2_triangle())
        data = kernel_data(pair)
        assert data.torus_rank == 1
        col = data.kernel_basis[0]
        assert col in ((1, 1, 1), (-1, -1, -1))
        assert mul_vector(tuple(zip(*pair.lam)), col) == (0, 0)

    def test_square_rank(self):
        pair = validated(cp1xcp1_square())
        assert kernel_data(pair).torus_rank == 2

    def test_square_in_square_rank(self):
        pair = validated(square_in_square())
        assert kernel_data(pair).torus_rank == 6

    def test_rank_formula(self):
        rng = random.Random(31)
        for _ in range(6):
            pair = random_one_hole_2d(rng)
            data = kernel_data(pair)
            m = pair.body.facet_count
            n = pair.body.dim
            assert data.torus_rank == m - n
            for vec in data.kernel_basis:
                assert mul_vector(tuple(zip(*pair.lam)), vec) == tuple([0] * n)

    def test_requires_validation(self):
        with pytest.raises(NotValidatedError):
            kernel_data(cp2_triangle())

    def test_one_hermite_pass_on_the_last_facets(self, monkeypatch):
        # polygon_128's last two facets meet, so its vertex basis [I | X] is already
        # the Hermite form; a prism's last two facets, its caps, are parallel
        pair = parse_spec(str(SPECS / "polygon_128.json")).to_pair()
        validate(pair)
        rng = random.Random(53)  # the prisms of TestKernelAgreement
        prisms = [prism_pair(rng, sides) for sides in (3, 4, 5, 6, 8, 12)]
        calls = count_calls(monkeypatch, ["_row_hnf"])
        counts = []
        for p in [pair, *prisms]:
            calls.clear()
            kernel_data(p)
            counts.append(calls["_row_hnf"])
        assert counts == [1] + [2] * len(prisms)


def prism_pair(rng, sides):
    """Prism over a lattice polygon, caps last, with lambda taken through a
    random GL(3, Z).  The last two facets are parallel and share no vertex."""
    base = random_many_sided_quasitoric_2d(rng, sides)
    halfspaces = [((*h.normal, 0), h.offset) for h in base.body.outer.halfspaces]
    halfspaces += [((0, 0, 1), 0), ((0, 0, -1), -1)]
    # sides (lambda_i, 0) and caps (a, b, +-1): a vertex joins sides i, i + 1
    # and a cap, so det L_v = +-det[lambda_i, lambda_(i+1)].  Twisted caps
    # keep the vertex basis of the kernel away from Hermite form.
    lam = [(*base.lam[f], 0) for f in range(sides)]
    lam += [(rng.randint(-2, 2), rng.randint(-2, 2), 1),
            (rng.randint(-2, 2), rng.randint(-2, 2), -1)]
    u = random_gl3z(rng)
    return validated(pair_from_components(build_polytope(3, halfspaces), [],
                                          [[_apply_gl(u, v) for v in lam]]))


class TestKernelAgreement:
    """kernel_data reads the kernel off one unimodular vertex; both oracles
    take it from all of Lambda (tests/oracles.py)."""

    @staticmethod
    def assert_agree(pair):
        lam, m = tuple(zip(*pair.lam)), pair.body.facet_count
        basis = kernel_data(pair).kernel_basis
        assert basis == kernel_by_hermite(lam, m)
        assert basis == kernel_by_pivoting(lam, m)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_candidates(self, seed):
        checked = 0
        for _, _, pair in candidates(seed):
            if validate(pair).ok:
                self.assert_agree(pair)
                checked += 1
        assert checked >= 80

    @pytest.mark.parametrize("sides, bound", [(32, 4), (64, 8), (128, 8)])
    def test_many_sided_polygons(self, sides, bound):
        rng = random.Random(sides)
        for _ in range(2):
            pair = random_many_sided_quasitoric_2d(rng, sides, bound=bound)
            assert pair.body.facet_count == sides
            self.assert_agree(pair)

    def test_prisms_with_parallel_last_facets(self):
        rng = random.Random(53)
        for sides in (3, 4, 5, 6, 8, 12):
            pair = prism_pair(rng, sides)
            m = pair.body.facet_count
            assert not any({m - 2, m - 1} <= gv.facets for gv in pair.body.global_vertices())
            self.assert_agree(pair)
        # the prism as the outer body and as the last hole
        self.assert_agree(fibersum_pairs(prism_pair(rng, 6), [random_quasitoric_3d(rng)]))
        self.assert_agree(fibersum_pairs(random_quasitoric_3d(rng), [prism_pair(rng, 5)]))

    def test_one_and_several_holes(self):
        rng = random.Random(59)
        pairs = [validated(hirzebruch_cp2_fibersum(1)), validated(square_in_square())]
        pairs += [random_one_hole_2d(rng) for _ in range(4)]
        pairs += [random_multi_hole_2d(rng, holes=k) for k in (2, 3, 4)]
        pairs += [fibersum_pairs(random_quasitoric_2d(rng),
                                 [random_quasitoric_2d(rng, sides=k) for k in (3, 4, 3)]),
                  random_one_hole_3d(rng),
                  fibersum_pairs(random_quasitoric_3d(rng),
                                 [random_quasitoric_3d(rng) for _ in range(2)])]
        for pair in pairs:
            self.assert_agree(pair)


class TestFreeness:
    def test_validated_pairs_are_free(self):
        rng = random.Random(37)
        pairs = [validated(cp2_triangle()), validated(square_in_square()),
                 random_quasitoric_3d(rng), random_multi_hole_2d(rng)]
        for pair in pairs:
            assert freeness_check(pair)

    def test_non_unimodular_vertex_fails(self):
        pair = cp1xcp1_square()
        lam = list(pair.lam)
        lam[1] = (1, 2)  # dets with both neighbors become 2
        bad = CharacteristicPair(pair.body, lam)
        assert not validate(bad).ok
        assert not freeness_check(bad)

    def test_sublattice_image_is_the_known_boundary_case(self):
        # if every vector lands in a proper sublattice the kernel torus
        # still acts freely although validation fails; agreement with
        # validate() therefore presumes the vectors span Z^n
        pair = cp1xcp1_square()
        lam = list(pair.lam)
        lam[1] = (1, 2)
        lam[3] = (1, -2)
        bad = CharacteristicPair(pair.body, lam)
        assert not validate(bad).ok
        assert freeness_check(bad)

    def test_agreement_with_validate(self):
        for _, how, candidate in candidates(41):
            free = freeness_check(candidate)
            assert free == freeness_by_kernel(candidate)
            if how != "sublattice":
                assert free == validate(candidate).ok
