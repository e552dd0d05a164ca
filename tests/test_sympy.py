"""Cross-checks of the exact routines against sympy, on seeded matrices.

The module is skipped where sympy is not installed.
"""

import random

import pytest

from tmh.exactlin import det_exact, smith_normal_form

from oracles import signature_of_matrix

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors


def random_rows(rng, rows, cols, bound):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_smith_divisors_are_the_invariant_factors():
    rng = random.Random(37)
    for i in range(150):
        rows = random_rows(rng, rng.randint(1, 4), rng.randint(1, 5), (2, 9, 10**12)[i % 3])
        expected = tuple(int(d) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
                         if d != 0)
        assert smith_normal_form(rows) == (expected, len(expected))


def test_det_matches_sympy():
    rng = random.Random(41)
    for i in range(150):
        n = rng.randint(1, 5)
        rows = random_rows(rng, n, n, (2, 9, 10**12)[i % 3])
        assert det_exact(rows) == sympy.Matrix(rows).det()


def test_signature_counts_eigenvalue_signs():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        # a symmetric matrix has real eigenvalues: the real roots of its
        # characteristic polynomial, with multiplicity
        eigenvalues = sympy.Matrix(rows).charpoly().real_roots()
        assert len(eigenvalues) == n
        pos = sum(1 for x in eigenvalues if x.is_positive)
        neg = sum(1 for x in eigenvalues if x.is_negative)
        assert signature_of_matrix(rows) == pos - neg
