import random
from fractions import Fraction
from math import lcm

import pytest

from tmh import dim4
from tmh.charpair import all_signs, validate
from tmh.cli import SpecDocument, build_report, parse_spec
from tmh.dim4 import (
    chern_numbers_dim4,
    homology_groups,
    intersection_form,
    structure_flags,
)
from tmh.errors import DimensionError, ScopeError
from tmh.exactlin import det_exact
from tmh.genus import chi_y
from tmh.polytope import build_with_holes, polygon_from_vertices

from golden_corpus import SPECS
from matrices import identity, transpose
from oracles import (
    candidates,
    closest_vertex_pair_by_fractions,
    det_by_bareiss,
    one_hole_form_by_blocks,
    pairing_by_relations,
    quasitoric_form_by_blocks,
    signature_of_matrix,
)
from instances import (
    cp1xcp1_square,
    cp2_triangle,
    fibersum_pairs,
    hirzebruch_cp2_fibersum,
    hirzebruch_square,
    pair_from_components,
    pentagon_y,
    random_convex_lattice_polygon,
    random_cycle_lambda,
    random_many_sided_quasitoric_2d,
    random_multi_hole_2d,
    random_one_hole_2d,
    random_quasitoric_2d,
    random_quasitoric_3d,
    square_in_square,
    validated,
)


def entry(data, i, j):
    """1-indexed access matching the x_i notation."""
    return data.matrix[i - 1][j - 1]


class TestCellCounts:
    def test_one_hole_counts(self):
        # l0 = 5, l1 = 4: the paper's cell list gives (8, 8, 9, 1, 1)
        rng = random.Random(2)
        pentagon = validated(pentagon_y())
        square = validated(cp1xcp1_square())
        pair = fibersum_pairs(pentagon, [square])
        assert homology_groups(pair).cell_counts == (8, 8, 9, 1, 1)

    def test_quasitoric_euler(self):
        pair = validated(cp1xcp1_square())
        counts = homology_groups(pair).cell_counts
        assert sum((-1) ** i * c for i, c in enumerate(counts)) == 4

    def test_two_holes_euler(self):
        rng = random.Random(3)
        pair = random_multi_hole_2d(rng, holes=2)
        counts = homology_groups(pair).cell_counts
        m = pair.body.vertex_count
        assert sum((-1) ** i * c for i, c in enumerate(counts)) == m

    def test_dimension_error(self):
        rng = random.Random(4)
        with pytest.raises(DimensionError):
            homology_groups(random_quasitoric_3d(rng))


class TestHomology:
    def test_square_in_square(self):
        pair = validated(square_in_square())
        prof = homology_groups(pair)
        assert prof.betti == (1, 1, 8, 1, 1)

    def test_one_hole_l5_l4(self):
        pentagon = validated(pentagon_y())
        square = validated(cp1xcp1_square())
        pair = fibersum_pairs(pentagon, [square])
        assert homology_groups(pair).betti[2] == 9

    def test_pentagon_quasitoric(self):
        pair = validated(pentagon_y())
        assert homology_groups(pair).betti == (1, 0, 3, 0, 1)

    def test_corollary_ranks_random(self):
        rng = random.Random(5)
        pairs = [(holes, random_quasitoric_2d(rng) if holes == 0
                  else random_multi_hole_2d(rng, holes=holes)) for holes in (0, 1, 2, 3)]
        # and every valid 2D candidate, with up to two holes
        pairs += [(pair.body.hole_count, pair) for seed in range(4)
                  for _, _, pair in candidates(seed)
                  if pair.body.dim == 2 and validate(pair).ok]
        assert len(pairs) >= 4 + 200
        for holes, pair in pairs:
            prof = homology_groups(pair)
            m, s = prof.m, prof.s
            assert s == holes
            assert prof.betti == (1, s, m + 2 * s - 2, s, 1)
            alt_cells = sum((-1) ** i * c for i, c in enumerate(prof.cell_counts))
            alt_betti = sum((-1) ** i * b for i, b in enumerate(prof.betti))
            assert alt_cells == alt_betti == m


class TestQuasitoricForm:
    def test_cp2(self):
        data = intersection_form(validated(cp2_triangle()))
        assert data.matrix == ((1,),)
        assert signature_of_matrix(data.matrix) == 1
        assert data.one_three_pairing is None

    def test_cp1xcp1_hyperbolic(self):
        data = intersection_form(validated(cp1xcp1_square()))
        assert data.matrix == ((0, 1), (1, 0))
        assert signature_of_matrix(data.matrix) == 0

    def test_hirzebruch_self_intersection(self):
        for k in (0, 1, 2, 3):
            data = intersection_form(validated(hirzebruch_square(k)))
            assert entry(data, 2, 2) == -k
            assert abs(det_exact(data.matrix)) == 1

    def test_pentagon_signature(self):
        data = intersection_form(validated(pentagon_y()))
        assert len(data.matrix) == 3
        assert signature_of_matrix(data.matrix) == 3
        assert abs(det_exact(data.matrix)) == 1

    def test_random_unimodular_and_signature(self):
        rng = random.Random(7)
        for _ in range(15):
            pair = random_quasitoric_2d(rng)
            data = intersection_form(pair)
            assert abs(det_exact(data.matrix)) == 1
            assert signature_of_matrix(data.matrix) == chi_y(pair).signature


class TestOneHoleMatrix:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_golden_product_table(self, k):
        """Every product of the known Hirzebruch + CP^2 fiber sum table."""
        pair = validated(hirzebruch_cp2_fibersum(k))
        data = intersection_form(pair)
        assert len(data.matrix) == 7
        # squares
        assert entry(data, 1, 1) == 0
        assert entry(data, 3, 3) == 0
        assert entry(data, 4, 4) == 0
        assert entry(data, 2, 2) == -k
        for i in (5, 6, 7):
            assert entry(data, i, i) == 1
        # zero products
        for i, j in [(1, 3), (2, 3), (2, 4), (3, 6), (3, 7), (4, 5), (4, 6)]:
            assert entry(data, i, j) == 0
        for i in (1, 2):
            for j in (5, 6, 7):
                assert entry(data, i, j) == 0
        # unit products
        for i, j in [(1, 2), (1, 4), (5, 6), (5, 7), (6, 7)]:
            assert entry(data, i, j) == 1
        assert entry(data, 3, 5) == -1
        assert entry(data, 4, 7) == -1
        assert data.one_three_pairing == 1
        # global gates
        assert abs(det_exact(data.matrix)) == 1
        assert signature_of_matrix(data.matrix) == chi_y(pair).signature

    def test_symmetry(self):
        pair = validated(hirzebruch_cp2_fibersum(1))
        data = intersection_form(pair)
        assert data.matrix == transpose(data.matrix)

    def test_random_unimodular_and_signature(self):
        rng = random.Random(11)
        for _ in range(12):
            pair = random_one_hole_2d(rng)
            data = intersection_form(pair)
            assert abs(det_exact(data.matrix)) == 1
            assert signature_of_matrix(data.matrix) == chi_y(pair).signature

    def test_block_structure(self):
        """Dropping the special rows/columns leaves the two quasitoric
        pairings with zero cross terms."""
        pair = validated(square_in_square())
        data = intersection_form(pair)
        l0 = pair.body.components[0].facet_count
        mat = data.matrix
        for i in range(l0 - 2):
            for j in range(l0, len(mat[i])):
                assert mat[i][j] == 0

    def test_scope_errors(self):
        rng = random.Random(13)
        with pytest.raises(ScopeError, match="intersection form is not computed for 2 holes"):
            intersection_form(random_multi_hole_2d(rng, holes=2))

    def test_dispatch(self):
        assert len(intersection_form(validated(cp2_triangle())).matrix) == 1
        assert len(intersection_form(validated(square_in_square())).matrix) == 8


class TestChernNumbers:
    def test_pentagon(self):
        assert chern_numbers_dim4(validated(pentagon_y())) == (19, 5)

    def test_cp2(self):
        assert chern_numbers_dim4(validated(cp2_triangle())) == (9, 3)

    def test_y_plus_y(self):
        a = validated(pentagon_y())
        b = validated(pentagon_y())
        pair = fibersum_pairs(a, [b])
        assert chern_numbers_dim4(pair) == (38, 10)

    def test_additivity_random(self):
        rng = random.Random(17)
        for _ in range(8):
            a = random_quasitoric_2d(rng)
            b = random_quasitoric_2d(rng)
            ca = chern_numbers_dim4(a)
            cb = chern_numbers_dim4(b)
            composed = fibersum_pairs(a, [b])
            assert chern_numbers_dim4(composed) == (ca[0] + cb[0], ca[1] + cb[1])


class TestStructureFlags:
    def test_pentagon_bmy(self):
        pair = validated(pentagon_y())
        flags = structure_flags(pair)
        assert flags.invariant_almost_complex
        assert flags.complex_excluded_by_bmy
        assert chern_numbers_dim4(pair) == (19, 5)
        assert not flags.invariant_symplectic_excluded
        assert not flags.kahler_excluded

    def test_cp2_not_excluded(self):
        flags = structure_flags(validated(cp2_triangle()))
        assert flags.invariant_almost_complex
        assert not flags.complex_excluded_by_bmy  # 9 = 3*3 satisfies BMY

    def test_one_hole_flags(self):
        pair = validated(square_in_square())
        flags = structure_flags(pair)
        assert flags.invariant_symplectic_excluded
        assert flags.kahler_excluded

    def test_two_holes_not_kahler_excluded(self):
        rng = random.Random(19)
        pair = random_multi_hole_2d(rng, holes=2)
        flags = structure_flags(pair)
        assert flags.invariant_symplectic_excluded
        assert not flags.kahler_excluded

    def test_3d_flags(self):
        rng = random.Random(23)
        pair = random_quasitoric_3d(rng)
        flags = structure_flags(pair)
        with pytest.raises(DimensionError):
            chern_numbers_dim4(pair)
        assert not flags.complex_excluded_by_bmy


class TestClosedFormAgreement:
    """The closed-form self-intersections equal the relation solve, and the
    report's signature (chi_1) and determinant agree with a congruence
    diagonalization of the printed matrix."""

    @staticmethod
    def check(pair):
        body = pair.body
        starts = [None]
        if body.hole_count == 1:
            starts.append(dim4._closest_vertex_pair(body))
        for start in starts:
            for comp in range(len(body.components)):
                local = None if start is None else start[comp]
                assert (dim4._component_pairing(pair, comp, local)
                        == pairing_by_relations(pair, comp, local))
        labels = tuple(f"f{i}" for i in range(body.facet_count))
        doc = SpecDocument("agreement", "", body, labels, pair.lam, None)
        section = build_report(doc)["dim4"]["intersection"]
        r = len(section["matrix"])
        sig = signature_of_matrix(section["matrix"])
        assert section["signature"] == sig
        assert (r - sig) % 2 == 0
        assert section["determinant"] == (-1) ** ((r - sig) // 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_pairs(self, seed):
        checked = 0
        for _, _, pair in candidates(seed):
            if pair.body.dim == 2 and pair.body.hole_count <= 1 and validate(pair).ok:
                self.check(pair)
                checked += 1
        assert checked >= 30

    def test_many_sided_polygons(self):
        rng = random.Random(31)
        pairs = [random_many_sided_quasitoric_2d(rng, sides) for sides in (30, 33, 37, 40)]
        for outer, hole in ((30, 4), (36, 31), (40, 40)):
            pairs.append(fibersum_pairs(random_many_sided_quasitoric_2d(rng, outer),
                                        [random_many_sided_quasitoric_2d(rng, hole)]))
        for pair in pairs:
            self.check(pair)


class TestOneRouteAgreement:
    """intersection_form equals the block-by-block oracles: the same
    generators in the same order, the same matrix and one_three_pairing."""

    @staticmethod
    def check(pair):
        by_blocks = one_hole_form_by_blocks if pair.body.hole_count else quasitoric_form_by_blocks
        data, expect = intersection_form(pair), by_blocks(pair)
        assert data.generators == expect.generators
        assert data.matrix == expect.matrix
        assert data.one_three_pairing == expect.one_three_pairing
        assert len(data.matrix) == homology_groups(pair).betti[2]

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_pairs(self, seed):
        checked = [0, 0]
        for _, _, pair in candidates(seed):
            if pair.body.dim == 2 and pair.body.hole_count <= 1 and validate(pair).ok:
                self.check(pair)
                checked[pair.body.hole_count] += 1
        assert min(checked) >= 10

    def test_many_sided_polygons(self):
        rng = random.Random(37)
        pairs = [random_many_sided_quasitoric_2d(rng, sides, bound=8) for sides in (30, 64, 128)]
        for outer, hole in ((30, 4), (64, 31), (128, 128)):
            pairs.append(fibersum_pairs(random_many_sided_quasitoric_2d(rng, outer, bound=8),
                                        [random_many_sided_quasitoric_2d(rng, hole, bound=8)]))
        for pair in pairs:
            self.check(pair)

    @pytest.mark.parametrize("k", range(4))
    def test_hirzebruch_cp2_fibersums(self, k):
        self.check(validated(hirzebruch_cp2_fibersum(k)))


@pytest.fixture(scope="module")
def pinned_fibersums():
    """The 64+31 and 128+128 fiber sums of the digest corpus, with their forms."""
    pairs = [validated(parse_spec(str(SPECS / f"{name}.json")).to_pair())
             for name in ("fibersum_64_31", "fibersum_128_128")]
    return [(pair, intersection_form(pair)) for pair in pairs]


class TestDeterminantRoute:
    """det_exact, by sparse integer elimination, equals dense Bareiss on
    intersection forms up to rank 256."""

    def test_many_sided_polygons(self):
        rng = random.Random(1730)
        for sides in (30, 47, 64, 96, 128):
            data = intersection_form(random_many_sided_quasitoric_2d(rng, sides, bound=8))
            assert len(data.matrix) == sides - 2
            assert det_exact(data.matrix) == det_by_bareiss(data.matrix)

    def test_pinned_fibersums(self, pinned_fibersums):
        assert [len(data.matrix) for _, data in pinned_fibersums] == [95, 256]
        for _, data in pinned_fibersums:
            assert det_exact(data.matrix) == det_by_bareiss(data.matrix)


def _image(points, scale, shift):
    return [tuple(scale * x + t for x, t in zip(p, shift)) for p in points]


class TestClosestPairRoute:
    """The closest outer/hole vertex pair on integer points equals the
    Fraction route, ties included."""

    def test_pinned_fibersums(self, pinned_fibersums):
        for pair, _ in pinned_fibersums:
            body = pair.body
            assert dim4._closest_vertex_pair(body) == closest_vertex_pair_by_fractions(body)

    def test_seeded_pairs_with_mixed_denominators(self):
        rng = random.Random(1731)
        mixed = 0

        def piece():
            poly = random_convex_lattice_polygon(rng, rng.randint(3, 6))
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            shift = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            cycle = [poly.vertices[v].point for v in dim4._cycle(poly)[0]]
            outer = polygon_from_vertices(_image(cycle, scale, shift))
            return validated(pair_from_components(
                outer, [], [random_cycle_lambda(rng, outer.facet_count)]))

        for _ in range(60):
            body = fibersum_pairs(piece(), [piece()]).body
            mixed += len({lcm(*(c.denominator for v in comp.vertices for c in v.point))
                          for comp in body.components}) == 2
            assert dim4._closest_vertex_pair(body) == closest_vertex_pair_by_fractions(body)
        assert mixed >= 40

    @pytest.mark.parametrize("scale, shift", [(1, (0, 0)),
                                              (Fraction(5, 7), (Fraction(1, 3), Fraction(-2, 9)))])
    @pytest.mark.parametrize("hole, outer_point, hole_point", [
        # (1, 2) and (2, 1) are both at squared distance 5 from (0, 0)
        (((2, 1), (6, 6), (1, 2)), (0, 0), (1, 2)),
        # (2, 1) from (0, 0) and (1, 10) from (0, 12): the outer point decides first
        (((2, 1), (5, 5), (1, 10)), (0, 0), (2, 1)),
    ])
    def test_ties_go_to_the_least_outer_then_hole_point(self, hole, outer_point, hole_point,
                                                        scale, shift):
        square = ((0, 0), (12, 0), (12, 12), (0, 12))
        body = build_with_holes(polygon_from_vertices(_image(square, scale, shift)),
                                [polygon_from_vertices(_image(hole, scale, shift))])
        vi, ui = dim4._closest_vertex_pair(body)
        assert body.outer.vertices[vi].point == _image([outer_point], scale, shift)[0]
        assert body.holes[0].vertices[ui].point == _image([hole_point], scale, shift)[0]
        assert (vi, ui) == closest_vertex_pair_by_fractions(body)


class TestSignatureOfMatrix:
    def test_identity(self):
        assert signature_of_matrix(identity(3)) == 3

    def test_hyperbolic(self):
        assert signature_of_matrix(((0, 1), (1, 0))) == 0

    def test_mixed(self):
        m = ((2, 0, 0), (0, -3, 0), (0, 0, 0))
        assert signature_of_matrix(m) == 0

    def test_against_characteristic_polynomial_signs(self):
        # oracle: count positive and negative eigenvalues via Descartes'
        # rule on the characteristic polynomial of small random symmetric
        # integer matrices (eigenvalues are real)
        from itertools import combinations

        rng = random.Random(29)

        def charpoly_coeffs(m):
            # det(xI - M) via exact expansion of principal minors
            n = len(m)
            coeffs = [0] * (n + 1)
            coeffs[n] = 1
            for k in range(1, n + 1):
                total = 0
                for idx in combinations(range(n), k):
                    sub = [[m[i][j] for j in idx] for i in idx]
                    total += det_exact(sub)
                coeffs[n - k] = (-1) ** k * total
            return coeffs

        def descartes_positive_roots(coeffs):
            signs = [c for c in coeffs if c != 0]
            return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            m = rows
            coeffs = charpoly_coeffs(m)
            pos = descartes_positive_roots(coeffs)
            neg = descartes_positive_roots(
                [c * (-1) ** i for i, c in enumerate(coeffs)])
            assert signature_of_matrix(m) == pos - neg

