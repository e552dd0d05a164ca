import itertools
import random
from math import gcd

import pytest

import tmh
from tmh.errors import DimensionError, NotUnimodularError
from tmh.exactlin import (
    det_exact,
    is_primitive,
    primitive_part,
    smith_normal_form,
    unimodular_inverse,
)

from matrices import identity, matmul, mul_vector, transpose
from oracles import det_by_bareiss, kernel_by_hermite, kernel_by_pivoting, smith_by_pivoting


def det_by_permutations(m) -> int:
    """Brute-force Leibniz expansion, the oracle for det_exact."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the parity
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def random_matrix(rng, rows, cols, lo=-6, hi=6) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def random_unimodular(rng, n, steps=12) -> tuple[tuple[int, ...], ...]:
    """Product of random elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i] = [-a for a in m[i]]
    return tuple(map(tuple, m))


class TestDeterminant:
    def test_identity(self):
        assert det_exact(identity(2)) == 1

    def test_hand_cofactor(self):
        assert det_exact([[0, -1], [1, -1]]) == 1

    def test_dependent_rows(self):
        assert det_exact([[1, 1], [2, 2]]) == 0

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_against_permutation_expansion(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            assert det_exact(m) == det_by_permutations(m)

    def test_large_entries_stay_exact(self):
        big = 10**30
        m = [[big, 1], [1, big]]
        assert det_exact(m) == big * big - 1


class TestSparseDeterminant:
    """Above 3x3 det_exact eliminates on sparse rows; dense Bareiss is the oracle."""

    SHAPES = ("dense", "sparse", "singular", "zero_row", "vanishing")

    @classmethod
    def seeded(cls, rng, n, shape=None):
        """A dense, sparse, singular, zero-row or vanishing-row n x n matrix;
        the shape is drawn from rng unless given."""
        shape = shape or rng.choice(cls.SHAPES)
        if shape == "sparse":
            m = [[rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(n)]
                 for _ in range(n)]
        else:
            m = [list(row) for row in random_matrix(rng, n, n)]
        if n >= 2 and shape == "zero_row":
            m[rng.randrange(n)] = [0] * n
        if n >= 3 and shape in ("singular", "vanishing"):
            # a combination of two rows above it vanishes once both are pivots
            i, j = rng.sample(range(n - 1), 2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            k = rng.randrange(max(i, j) + 1, n) if shape == "vanishing" else rng.randrange(n)
            if k not in (i, j):
                m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
        return m

    def test_against_bareiss_up_to_12(self):
        rng = random.Random(1717)
        dets = []
        sizes = []
        for _ in range(600):
            m = self.seeded(rng, rng.randint(1, 12))
            sizes.append(len(m))
            dets.append(det_exact(m))
            assert dets[-1] == det_by_bareiss(m)
        assert sum(d == 0 for d in dets) >= 100
        assert sum(d != 0 for d in dets) >= 100
        # above 3x3 det_exact eliminates; the closed form has TestClosedForms
        assert sum(n >= 4 for n in sizes) >= 100

    def test_against_permutations_up_to_6(self):
        rng = random.Random(1718)
        sizes = []
        for _ in range(200):
            m = self.seeded(rng, rng.randint(1, 6))
            sizes.append(len(m))
            assert det_exact(m) == det_by_permutations(m)
        assert sum(n >= 4 for n in sizes) >= 80

    def test_row_swaps_give_the_permutation_sign(self):
        for perm in itertools.permutations(range(4)):
            m = [[int(j == perm[i]) for j in range(4)] for i in range(4)]
            assert det_exact(m) == det_by_permutations(m)
        assert det_exact([[0, 2, 1], [0, 0, 3], [5, 1, 1]]) == 30

    def test_negative_pivots(self):
        assert det_exact([[-2, 1], [1, -3]]) == 5
        assert det_exact([[-3, 2, 0], [2, -5, 1], [0, 1, -2]]) == -19

    def test_rows_that_vanish_during_elimination(self):
        assert det_exact([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0
        assert det_exact([[2, 1, 0], [0, 3, 1], [4, 8, 2]]) == 0
        assert det_exact([[0, 0], [0, 0]]) == 0

    def test_gcd_factor_is_kept(self):
        # the first two updates divide their rows by 4 and by 12
        assert det_exact([[2, 4, 6], [4, 2, 8], [6, 6, 0]]) == 168


class TestClosedForms:
    """Up to 3x3 det_exact and unimodular_inverse are cofactor sums and
    det * adjugate; the permutation and Bareiss oracles check them."""

    SMALL = range(-3, 4)

    def test_every_small_2x2_against_permutations(self):
        dets = [det_exact(m) for m in self.small_2x2()]
        assert dets == [det_by_permutations(m) for m in self.small_2x2()]
        assert len(dets) == 7 ** 4 and (min(dets), max(dets)) == (-18, 18)

    @classmethod
    def small_2x2(cls):
        for a, b, c, d in itertools.product(cls.SMALL, repeat=4):
            yield ((a, b), (c, d))

    @pytest.mark.parametrize("shape", TestSparseDeterminant.SHAPES)
    def test_seeded_3x3_against_bareiss(self, shape):
        rng = random.Random(f"3x3 {shape}")
        dets = []
        for _ in range(200):
            m = TestSparseDeterminant.seeded(rng, 3, shape)
            dets.append(det_exact(m))
            assert dets[-1] == det_by_bareiss(m) == det_by_permutations(m)
        least_zero, least_nonzero = {"dense": (0, 150), "sparse": (100, 10),
                                     "singular": (50, 100), "zero_row": (200, 0),
                                     "vanishing": (200, 0)}[shape]
        assert dets.count(0) >= least_zero and len(dets) - dets.count(0) >= least_nonzero

    def test_3x3_near_10_30_against_bareiss(self):
        rng = random.Random(3030)
        big = 10**30
        for i in range(200):
            m = [[rng.choice((-big, big, 0)) + rng.randint(-9, 9) for _ in range(3)]
                 for _ in range(3)]
            if i % 4 == 0:
                # a combination of the other two rows: det 0 with entries near 10^30
                a, b = rng.choice((-1, 1)), rng.randint(-2, 2)
                m[2] = [a * x + b * y for x, y in zip(m[0], m[1])]
            det = det_exact(m)
            assert det == det_by_bareiss(m)
            assert (det == 0) == (i % 4 == 0)

    def test_inverse_of_every_small_unimodular_2x2(self):
        unimodular = 0
        for m in self.small_2x2():
            det = det_by_permutations(m)
            if det in (1, -1):
                unimodular += 1
                inv = unimodular_inverse(m)
                assert matmul(m, inv) == identity(2) == matmul(inv, m)
            else:
                with pytest.raises(NotUnimodularError,
                                   match=rf"^determinant is {det}, expected \+-1$"):
                    unimodular_inverse(m)
        assert unimodular == 232

    def test_inverse_of_seeded_unimodular_3x3(self):
        rng = random.Random(3333)
        dets = []
        for _ in range(200):
            u = random_unimodular(rng, 3)
            dets.append(det_by_bareiss(u))
            inv = unimodular_inverse(u)
            assert matmul(u, inv) == identity(3) == matmul(inv, u)
        # both signs, so det * adjugate is checked where det is -1
        assert dets.count(1) >= 50 and dets.count(-1) >= 50

    def test_det_and_inverse_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        entry = st.integers(-3, 3) | st.integers(-10**30, 10**30)

        def square(n):
            return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                             database=None)
        @hypothesis.given(st.sampled_from((2, 3)).flatmap(square))
        def check(m):
            det = det_by_bareiss(m)
            assert det_exact(m) == det
            if det in (1, -1):
                assert matmul(m, unimodular_inverse(m)) == identity(len(m))
            else:
                with pytest.raises(NotUnimodularError):
                    unimodular_inverse(m)

        check()


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(identity(2)) == ((1, 1), 2)

    def test_single_column(self):
        assert smith_normal_form([[2], [0]]) == ((2,), 1)

    def test_two_by_three(self):
        assert smith_normal_form([[1, 0, -1], [0, 1, -1]]) == ((1, 1), 2)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)

    def test_ragged_rows_raise(self):
        with pytest.raises(DimensionError):
            smith_normal_form([[1, 2, 3], [4, 5]])

    def test_divisibility_chain(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            divisors, rank = smith_normal_form(m)
            assert rank == len(divisors)
            assert all(d > 0 for d in divisors)
            for a, b in zip(divisors, divisors[1:]):
                assert b % a == 0

    def test_invariance_under_unimodular_factors(self):
        rng = random.Random(13)
        for _ in range(30):
            rows, cols = rng.randint(2, 4), rng.randint(2, 4)
            m = random_matrix(rng, rows, cols)
            u = random_unimodular(rng, rows)
            v = random_unimodular(rng, cols)
            assert smith_normal_form(matmul(matmul(u, m), v)) == smith_normal_form(m)

    def test_known_divisor_two(self):
        # diag(2, 6) has divisors 2, 6 already in chain form
        assert smith_normal_form([[2, 0], [0, 6]]) == ((2, 6), 2)
        # diag(4, 6) must rearrange to 2 | 12
        assert smith_normal_form([[4, 0], [0, 6]]) == ((2, 12), 2)


class TestKernelLatticeBasis:
    """The test-side kernel_by_hermite (tests/oracles.py); the library's
    kernel of a valid pair is checked against it in tests/test_mac.py."""

    def test_rank_one_kernel(self):
        m = ((1, 0, -1), (0, 1, -1))
        k = kernel_by_hermite(m, 3)
        assert len(k) == 1 and all(len(vec) == 3 for vec in k)
        assert k[0] in ((1, 1, 1), (-1, -1, -1))

    def test_identity_has_empty_kernel(self):
        assert kernel_by_hermite(identity(3), 3) == ()

    def test_two_dimensional_kernel(self):
        m = ((1, 0, 0, 1), (0, 1, 0, 1))
        k = kernel_by_hermite(m, 4)
        assert len(k) == 2
        for vec in k:
            assert mul_vector(m, vec) == (0, 0)

    def test_kernel_annihilated_and_saturated(self):
        rng = random.Random(17)
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(2, 5)
            m = random_matrix(rng, rows, cols)
            k = kernel_by_hermite(m, cols)
            _, rank = smith_normal_form(m)
            assert len(k) == cols - rank
            for vec in k:
                assert mul_vector(m, vec) == tuple([0] * rows)
            if k:
                divisors, krank = smith_normal_form(k)
                assert krank == len(k)
                assert all(d == 1 for d in divisors)

    def test_deterministic(self):
        m = ((2, 4, 6), (1, 2, 3))
        assert kernel_by_hermite(m, 3) == kernel_by_hermite(m, 3)


class TestPivotingAgreement:
    """The Hermite routes, the library's Smith form and the test-side
    kernel_by_hermite, give the divisors, rank and kernel basis of the
    pivoting oracles (tests/oracles.py)."""

    @staticmethod
    def assert_agree(m, cols):
        assert smith_normal_form(m) == smith_by_pivoting(m)
        assert kernel_by_hermite(m, cols) == kernel_by_pivoting(m, cols)

    def test_random_matrices(self):
        rng = random.Random(29)
        for i in range(2000):
            rows, cols = rng.randint(1, 5), rng.randint(1, 7)
            bound = (1, 6, 10**6, 10**30)[i % 4]
            entries = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            if i % 3 == 0 and rows > 1:
                # a multiple of another row lowers the rank
                a, b = rng.sample(range(rows), 2)
                entries[a] = [rng.randint(-3, 3) * x for x in entries[b]]
            self.assert_agree(entries, cols)

    @pytest.mark.parametrize("n", [2, 3])
    def test_lambda_shaped(self, n):
        rng = random.Random(n)
        for m in (n, n + 1, 8, 32, 128):
            cols = []
            while len(cols) < m:
                vec = tuple(rng.randint(-3, 3) for _ in range(n))
                if is_primitive(vec):
                    cols.append(vec)
            self.assert_agree(transpose(cols), m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
    def test_empty(self, shape):
        rows, cols = shape
        self.assert_agree(((0,) * cols,) * rows, cols)


class TestUnimodularInverse:
    def test_identity(self):
        assert unimodular_inverse(identity(3)) == identity(3)

    def test_hand_example(self):
        assert unimodular_inverse([[0, -1], [1, -1]]) == ((-1, 1), (-1, 0))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            unimodular_inverse([[1, 0, 0], [0, 1, 0]])

    def test_not_unimodular(self):
        for m, det in [([[2, 0], [0, 1]], 2),
                       ([[1, 2], [2, 4]], 0),
                       ([[0, 0], [0, 0]], 0),
                       ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2),
                       ([[1, 2, 0], [0, 1, 3], [0, 2, 3]], -3),
                       ([[0, 1, 0], [3, 0, 0], [0, 0, 1]], -3)]:
            with pytest.raises(NotUnimodularError, match=rf"^determinant is {det}, expected \+-1$"):
                unimodular_inverse(m)

    def test_product_is_identity(self):
        rng = random.Random(23)
        sizes = []
        for _ in range(30):
            n = rng.randint(2, 5)
            sizes.append(n)
            u = random_unimodular(rng, n)
            inv = unimodular_inverse(u)
            assert matmul(u, inv) == identity(n)
            assert det_exact(u) * det_exact(inv) == 1
        # above 3x3 the inverse comes from the Hermite form
        assert sum(n >= 4 for n in sizes) >= 10


class TestPrimitivity:
    def test_is_primitive(self):
        assert is_primitive((0, 1))
        assert is_primitive((-1, -1))
        assert not is_primitive((2, 0))
        assert not is_primitive((0, 0))
        assert not is_primitive((0,)) and not is_primitive(())

    def test_primitive_part(self):
        assert primitive_part((4, -6)) == (2, -3)
        g = gcd(4, 6)
        assert g == 2
        for vec in ((0, 0), ()):
            with pytest.raises(ValueError, match="zero vector"):
                primitive_part(vec)


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        for name in tmh.__all__:
            assert getattr(tmh, name) is not None, name
        assert "IntMatrix" not in tmh.__all__
        assert not hasattr(tmh, "IntMatrix")
