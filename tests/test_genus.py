import functools
import random
from fractions import Fraction

import pytest

from tmh.charpair import all_signs, validate, vertex_frame
from tmh.cli import parse_spec
from tmh.errors import DimensionError, GenericityError, NotValidatedError
from tmh.genus import (
    ChiYPolynomial,
    chi_y,
    find_generic_nu,
    vertex_index,
)

from golden_corpus import SPECS
from oracles import candidates, generic_directions_by_scan, is_generic

from instances import (
    cp2_triangle,
    cp1xcp1_square,
    pentagon_y,
    random_multi_hole_2d,
    random_one_hole_2d,
    random_one_hole_3d,
    random_quasitoric_2d,
    random_quasitoric_3d,
    square_in_square,
    validated,
)


def vertex_at(pair, point):
    return next(v.gid for v in pair.body.global_vertices() if v.point == point)


# the large pinned specs of the golden corpus
LARGE_SPECS = ("polygon_64", "polygon_128", "fibersum_64_31", "fibersum_128_128",
               "octagon_8_holes", "prism_50", "prism_98")


@functools.cache
def valid_candidates():
    """Every valid pair of the candidate pools of seeds 0 ... 3, validated
    once for this module; the pairs keep their frames from test to test."""
    return tuple(pair for seed in range(4) for _, _, pair in candidates(seed) if validate(pair).ok)


class TestEdgeVectors:
    def test_identity_frame(self):
        pair = validated(cp2_triangle())
        frame = vertex_frame(pair, vertex_at(pair, (0, 0)))
        assert frame.mu == ((1, 0), (0, 1))

    def test_vertex_10(self):
        pair = validated(cp2_triangle())
        frame = vertex_frame(pair, vertex_at(pair, (1, 0)))
        assert frame.mu == ((-1, 1), (-1, 0))

    def test_vertex_01(self):
        pair = validated(cp2_triangle())
        frame = vertex_frame(pair, vertex_at(pair, (0, 1)))
        assert frame.mu == ((0, -1), (1, -1))

    def test_duality_with_lambda(self):
        rng = random.Random(3)
        for _ in range(6):
            pair = random_quasitoric_3d(rng)
            for gv in pair.body.global_vertices():
                frame = vertex_frame(pair, gv.gid)
                for k, mu in enumerate(frame.mu):
                    for j, fid in enumerate(frame.facet_order):
                        pairing = sum(a * b for a, b in zip(mu, pair.lam[fid]))
                        assert pairing == (1 if j == k else 0)

    def test_requires_validation(self):
        with pytest.raises(NotValidatedError):
            vertex_frame(cp2_triangle(), 0)
        # and a pair that validation refused, at every vertex, twice: a
        # refused call keeps no frame for the next one to serve
        refused = [pair for _, _, pair in candidates(0) if not validate(pair).ok]
        assert len(refused) >= 100
        for pair in refused:
            for gv in [*pair.body.global_vertices()] * 2:
                with pytest.raises(NotValidatedError):
                    vertex_frame(pair, gv.gid)


class TestGenericNu:
    def test_nu_10_rejected_for_cp2(self):
        pair = validated(cp2_triangle())
        assert not is_generic(pair, (1, 0))
        assert is_generic(pair, (1, 2))

    def test_found_nu_is_generic(self):
        rng = random.Random(7)
        for _ in range(8):
            pair = random_quasitoric_2d(rng)
            assert is_generic(pair, find_generic_nu(pair))

    def test_square_pair(self):
        pair = validated(cp1xcp1_square())
        assert is_generic(pair, (1, 2))

    def test_matches_scan_on_candidates(self):
        pairs = valid_candidates()
        assert len(pairs) >= 300
        for pair in pairs:
            assert [find_generic_nu(pair)] == generic_directions_by_scan(pair, 1)

    @pytest.mark.parametrize("name", LARGE_SPECS)
    def test_matches_scan_on_large_specs(self, name):
        pair = validated(parse_spec(str(SPECS / f"{name}.json")).to_pair())
        assert [find_generic_nu(pair)] == generic_directions_by_scan(pair, 1)


class TestVertexIndex:
    def test_cp2_indices(self):
        pair = validated(cp2_triangle())
        nu = (1, 2)
        assert vertex_index(pair, vertex_at(pair, (0, 0)), nu) == 0
        assert vertex_index(pair, vertex_at(pair, (1, 0)), nu) == 1
        assert vertex_index(pair, vertex_at(pair, (0, 1)), nu) == 2

    def test_negated_nu_complements(self):
        pair = validated(cp2_triangle())
        n = pair.body.dim
        for gv in pair.body.global_vertices():
            a = vertex_index(pair, gv.gid, (1, 2))
            b = vertex_index(pair, gv.gid, (-1, -2))
            assert a + b == n

    def test_genericity_error(self):
        pair = validated(cp2_triangle())
        with pytest.raises(GenericityError) as err:
            vertex_index(pair, vertex_at(pair, (0, 0)), (1, 0))
        assert err.value.edge_vector == (0, 1)
        # nu = 0 pairs to zero with both: the error names the first in frame order
        with pytest.raises(GenericityError) as err:
            vertex_index(pair, vertex_at(pair, (0, 0)), (0, 0))
        assert err.value.edge_vector == (1, 0)

    def test_non_integer_direction_is_refused(self):
        pair = validated(cp2_triangle())
        for nu in ((1, Fraction(5, 2)), (1.5, 2)):
            with pytest.raises(ValueError, match="is not an integer"):
                vertex_index(pair, 0, nu)
            with pytest.raises(ValueError, match="is not an integer"):
                chi_y(pair, nu)
        # --nu passes integral Fractions
        poly = chi_y(pair, (Fraction(1), Fraction(4, 2)))
        assert poly == chi_y(pair, (1, 2)) and {type(c) for c in poly.nu} == {int}
        assert vertex_index(pair, 0, (Fraction(1), Fraction(2))) == vertex_index(pair, 0, (1, 2))

    def test_wrong_length_direction(self):
        pair = validated(cp2_triangle())
        for nu in ((1,), (1, 2, 3)):
            with pytest.raises(DimensionError):
                vertex_index(pair, 0, nu)
            with pytest.raises(DimensionError):
                chi_y(pair, nu)


class TestChiY:
    def test_cp2_polynomial(self):
        pair = validated(cp2_triangle())
        poly = chi_y(pair)
        assert poly.coefficients == (1, -1, 1)
        assert poly.top_chern == 3
        assert poly.signature == 1
        assert poly.todd == 1

    def test_pentagon_y(self):
        pair = validated(pentagon_y())
        poly = chi_y(pair)
        assert poly.top_chern == 5
        assert poly.signature == 3
        # Noether: 12 td = c_1^2 + c_2 for an almost complex 4-manifold
        assert poly.todd == (2 * 5 + 3 * poly.signature + 5) // 12 == 2

    def test_noether_identity_positive_pairs(self):
        # for positively omnioriented 4-dim pairs the stable structure has
        # c_2 = chi_{-1} and c_1^2 = 2 c_2 + 3 signature, so 12 td must
        # equal c_1^2 + c_2
        rng = random.Random(19)
        for _ in range(10):
            pair = random_quasitoric_2d(rng)
            signs = all_signs(pair)
            if set(signs.values()) != {1}:
                continue
            poly = chi_y(pair)
            c2 = poly.top_chern
            c1sq = 2 * c2 + 3 * poly.signature
            assert 12 * poly.todd == c1sq + c2

    def test_cp1xcp1(self):
        pair = validated(cp1xcp1_square())
        poly = chi_y(pair)
        assert poly.top_chern == 4
        assert poly.signature == 0

    def test_nu_independence(self):
        rng = random.Random(11)
        for pair in (random_quasitoric_2d(rng), random_one_hole_2d(rng),
                     random_quasitoric_3d(rng)):
            polys = [chi_y(pair, nu).coefficients
                     for nu in generic_directions_by_scan(pair, 20)]
            assert len(set(polys)) == 1
        # and nu against -nu on every valid candidate
        pairs = valid_candidates()
        assert len(pairs) >= 300
        for pair in pairs:
            nu = find_generic_nu(pair)
            assert chi_y(pair, nu).coefficients == chi_y(pair, [-c for c in nu]).coefficients

    def test_chi_minus_one_equals_sign_sum(self):
        rng = random.Random(13)
        pairs = [random_quasitoric_2d(rng), random_multi_hole_2d(rng),
                 random_one_hole_3d(rng), validated(square_in_square())]
        for pair in pairs:
            assert chi_y(pair).top_chern == sum(all_signs(pair).values())

    def test_explicit_nu_matches_auto(self):
        pair = validated(pentagon_y())
        auto = chi_y(pair)
        again = chi_y(pair, auto.nu)
        assert auto.coefficients == again.coefficients

    def test_degree_bound(self):
        rng = random.Random(17)
        for _ in range(5):
            pair = random_quasitoric_3d(rng)
            poly = chi_y(pair)
            assert len(poly.coefficients) == pair.body.dim + 1

    def test_evaluate(self):
        poly = ChiYPolynomial((1, -1, 1), (1, 2))
        assert poly.evaluate(2) == 1 - 2 + 4

    def test_coefficient_palindrome(self):
        # negating nu complements every index, and nu-independence then
        # forces c_j = (-1)^n c_{n-j}
        pairs = valid_candidates()
        assert len(pairs) >= 300
        for pair in pairs:
            c = chi_y(pair).coefficients
            n = pair.body.dim
            for j in range(n + 1):
                assert c[j] == (-1) ** n * c[n - j]
