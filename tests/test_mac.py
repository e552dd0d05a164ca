import random
from fractions import Fraction

import pytest

from tmh.charpair import CharacteristicPair, validate
from tmh.errors import DimensionError, DomainError, NotValidatedError
from tmh.cli import parse_spec
from tmh.mac import (
    _certified_collar_widths,
    _collar_bounds,
    embedding_chart,
    freeness_check,
    kernel_data,
)
from tmh.polytope import _Dictionary, build_polytope, build_with_holes, polygon_from_vertices

from golden_corpus import SPECS
from matrices import mul_vector
from oracles import (
    candidates,
    collar_thresholds_by_lps,
    collar_widths_by_fm,
    collar_widths_by_lps,
    edges_of,
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


class TestCollarWidths:
    def test_match_fourier_motzkin_halving(self):
        # the library computes each width from one threshold LP per
        # obstacle; the oracle halves, solving one system per outer facet
        # and other hole at each width
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
    """Each obstacle's dual lower bound is at most its LP threshold, and
    skipping the LPs that a bound rules out leaves every width unchanged."""

    @staticmethod
    def check(body, thresholds):
        bounds = list(_collar_bounds(body))
        assert len(bounds) == len(thresholds) == body.hole_count
        for (_, below), exact in zip(bounds, thresholds):
            assert len(below) == len(exact) == body.outer.facet_count + body.hole_count - 1
            assert all(b <= t for b, t in zip(below, exact)), (below, exact)
        widths = _certified_collar_widths(body)
        assert widths == collar_widths_by_lps(body, thresholds)

    def test_seeded_bodies(self):
        # one-hole and 2-8-hole polygons, one-hole 3D bodies, near-touching holes
        for body in _seeded_bodies():
            self.check(body, collar_thresholds_by_lps(body))

    @pytest.mark.parametrize("name", ["fibersum_64_31", "fibersum_128_128", "octagon_8_holes"])
    def test_pinned_bodies(self, name):
        body = _pinned(name)
        self.check(body, collar_thresholds_by_lps(body))

    def test_tight_bounds_on_the_near_touching_holes(self):
        # the other hole's separating facet gives the gap itself
        for e in (3, 30, 300):
            bounds = list(_collar_bounds(_near_touching(e)))
            assert [b[-1] for _, b in bounds] == [F(1, 10**e)] * 2

    @pytest.mark.parametrize("name", ["fibersum_64_31", "fibersum_128_128", "octagon_8_holes"])
    def test_one_lp_per_hole(self, name, monkeypatch):
        calls = []
        least = _Dictionary.least

        def counted(tab, j):
            calls.append(j)
            return least(tab, j)

        body = _pinned(name)
        monkeypatch.setattr(_Dictionary, "least", counted)
        _certified_collar_widths(body)
        assert len(calls) == body.hole_count


class TestKernelData:
    def test_cp2_kernel(self):
        pair = validated(cp2_triangle())
        data = kernel_data(pair)
        assert data.torus_rank == 1
        col = data.kernel_basis[0]
        assert col in ((1, 1, 1), (-1, -1, -1))
        assert mul_vector(data.lambda_matrix, col) == (0, 0)

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
                assert mul_vector(data.lambda_matrix, vec) == tuple([0] * n)

    def test_requires_validation(self):
        with pytest.raises(NotValidatedError):
            kernel_data(cp2_triangle())


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
        lam, m = pair.lambda_matrix(), pair.body.facet_count
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
