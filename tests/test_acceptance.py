"""Acceptance suite: one test per shipping criterion, each printing a
single pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

All comparisons are exact integer or rational equality; there are no
tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

from tmh.charpair import all_signs, validate
from tmh.dim4 import (
    chern_numbers_dim4,
    homology_groups,
    intersection_form,
    structure_flags,
)
from tmh.exactlin import det_exact, smith_normal_form
from tmh.genus import chi_y
from tmh.mac import embedding_chart, freeness_check, kernel_data

from matrices import transpose
from oracles import (
    body_contains,
    candidates,
    edges_of,
    freeness_by_kernel,
    is_generic,
    signature_of_matrix,
    validate_by_faces,
)
from instances import (
    cp1xcp1_square,
    cp2_triangle,
    fibersum_pairs,
    hirzebruch_cp2_fibersum,
    pentagon_y,
    random_multi_hole_2d,
    random_one_hole_2d,
    random_one_hole_3d,
    random_quasitoric_2d,
    random_quasitoric_3d,
    square_in_square,
    validated,
)


def announce(number, text):
    print(f"criterion {number}: PASS - {text}")


def generic_directions(pair, count):
    found = []
    n = pair.body.dim
    for bound in itertools.count(1):
        for cand in itertools.product(range(-bound, bound + 1), repeat=n):
            if max(abs(c) for c in cand) != bound:
                continue
            if is_generic(pair, cand):
                found.append(cand)
                if len(found) == count:
                    return found


def generated_instances(seed=2024):
    """The shared pool of validated pairs used by several criteria."""
    rng = random.Random(seed)
    pairs_2d = [random_quasitoric_2d(rng) for _ in range(9)]
    pairs_2d += [random_one_hole_2d(rng) for _ in range(4)]
    pairs_2d += [random_multi_hole_2d(rng, holes=2) for _ in range(2)]
    pairs_3d = [random_quasitoric_3d(rng) for _ in range(8)]
    pairs_3d += [random_one_hole_3d(rng) for _ in range(2)]
    return pairs_2d, pairs_3d


def test_criterion_01_pentagon_y():
    pair = pentagon_y()
    assert validate(pair).ok
    signs = all_signs(pair)
    assert set(signs.values()) == {1}
    c1sq, c2 = chern_numbers_dim4(pair)
    assert (c1sq, c2) == (19, 5)
    assert c1sq > 3 * c2  # 19 > 15
    flags = structure_flags(pair)
    assert flags.invariant_almost_complex
    assert flags.complex_excluded_by_bmy
    announce(1, "pentagon Y validates, all signs +1, c1^2=19 > 3*c2=15, "
                "BMY excludes a complex structure")


def test_criterion_02_chi_y_nu_independence():
    pairs_2d, pairs_3d = generated_instances()
    pairs = pairs_2d + pairs_3d
    assert len(pairs) >= 25
    assert len(pairs_2d) > 0 and len(pairs_3d) > 0
    for pair in pairs:
        polys = {chi_y(pair, nu).coefficients
                 for nu in generic_directions(pair, 20)}
        assert len(polys) == 1
    announce(2, f"chi_y coefficients identical over 20 generic directions "
                f"for {len(pairs)} pairs (n=2 and n=3), exact equality")


def test_criterion_03_chi_minus_one_is_sign_sum():
    pairs_2d, pairs_3d = generated_instances()
    fixed = [validated(p) for p in
             (cp2_triangle(), cp1xcp1_square(), pentagon_y(), square_in_square())]
    checked = 0
    for pair in pairs_2d + pairs_3d + fixed:
        assert chi_y(pair).evaluate(-1) == sum(all_signs(pair).values())
        checked += 1
    announce(3, f"chi_(-1) equals the vertex sign sum on all {checked} instances")


def test_criterion_04_signature_cross_validation():
    rng = random.Random(4)
    pairs = [random_quasitoric_2d(rng) for _ in range(10)]
    pairs += [random_one_hole_2d(rng) for _ in range(10)]
    pairs += [validated(p) for p in
              (cp2_triangle(), cp1xcp1_square(), pentagon_y(), square_in_square())]
    for pair in pairs:
        data = intersection_form(pair)
        assert abs(det_exact(data.matrix)) == 1
        assert signature_of_matrix(data.matrix) == chi_y(pair).signature
    announce(4, f"intersection-form signature equals chi_1 and |det| = 1 "
                f"on {len(pairs)} instances with s in {{0, 1}}")


def test_criterion_05_homology_formulas():
    pair = validated(square_in_square())
    assert homology_groups(pair).betti == (1, 1, 8, 1, 1)

    pentagon = validated(pentagon_y())
    square = validated(cp1xcp1_square())
    l5_l4 = fibersum_pairs(pentagon, [square])
    assert homology_groups(l5_l4).betti[2] == 9
    assert homology_groups(l5_l4).cell_counts == (8, 8, 9, 1, 1)

    rng = random.Random(5)
    cases = [random_quasitoric_2d(rng) for _ in range(5)]
    cases += [random_one_hole_2d(rng) for _ in range(3)]
    cases += [random_multi_hole_2d(rng, holes=h) for h in (2, 3)]
    for p in cases + [pair, l5_l4]:
        prof = homology_groups(p)
        m, s = prof.m, prof.s
        assert prof.betti == (1, s, m + 2 * s - 2, s, 1)
        alt = sum((-1) ** i * c for i, c in enumerate(prof.cell_counts))
        assert alt == m
    announce(5, "Betti ranks (1, s, m+2s-2, s, 1) and CW Euler sum = m on "
                "the named and random instances")


def test_criterion_06_cohomology_ring_golden():
    for k in (0, 1, 2):
        pair = validated(hirzebruch_cp2_fibersum(k))
        data = intersection_form(pair)
        e = data.matrix
        x = lambda i, j: e[i - 1][j - 1]
        assert x(1, 1) == 0 and x(3, 3) == 0 and x(4, 4) == 0
        assert x(2, 2) == -k
        assert all(x(i, i) == 1 for i in (5, 6, 7))
        assert all(x(i, j) == 0 for i, j in
                   [(1, 3), (2, 3), (2, 4), (3, 6), (3, 7), (4, 5), (4, 6)])
        assert all(x(i, j) == 0 for i in (1, 2) for j in (5, 6, 7))
        assert all(x(i, j) == 1 for i, j in
                   [(1, 2), (1, 4), (5, 6), (5, 7), (6, 7)])
        assert x(3, 5) == -1 and x(4, 7) == -1
        assert data.one_three_pairing == 1
    announce(6, "Hirzebruch(k) + CP^2 reproduces every listed product for "
                "k in {0, 1, 2}, including x2^2 = -k and yz = 1")


def test_criterion_07_fiber_sum_additivity():
    rng = random.Random(7)
    for _ in range(8):
        a = random_quasitoric_2d(rng)
        b = random_quasitoric_2d(rng)
        composed = fibersum_pairs(a, [b])
        ca, cb, cc = (chern_numbers_dim4(p) for p in (a, b, composed))
        assert cc == (ca[0] + cb[0], ca[1] + cb[1])
    y2 = fibersum_pairs(validated(pentagon_y()), [validated(pentagon_y())])
    assert chern_numbers_dim4(y2) == (38, 10)
    announce(7, "c1^2 and c2 are additive on 8 random piece pairs and "
                "Y + Y gives (38, 10) exactly")


def test_criterion_08_validator_agreement():
    checked = rejected = 0
    for _, _, candidate in candidates(8):
        full = validate(candidate)
        assert full == validate_by_faces(candidate)
        checked += 1
        if not full.ok:
            rejected += 1
            assert full.kind in ("primitivity", "summand")
            assert full.facets
            # the reported face must genuinely fail the summand test
            mat = transpose([candidate.lam[f] for f in full.facets])
            divisors, rank = smith_normal_form(mat)
            assert rank != len(full.facets) or any(d != 1 for d in divisors)
    assert checked >= 300 and 0 < rejected < checked
    announce(8, f"|det L_v| validator and per-face SNF oracle agree on {checked} "
                f"2D and 3D candidates with 0-2 holes ({rejected} rejected with "
                f"the same face and message)")


def test_criterion_09_moment_angle_data():
    # freeness_check vs the kernel oracle and validate, including corrupted
    # instances; freeness equals validity when the vectors span Z^n
    checked = 0
    for _, how, candidate in candidates(9):
        free = freeness_check(candidate)
        assert free == freeness_by_kernel(candidate)
        if how != "sublattice":
            assert free == validate(candidate).ok
        checked += 1
    assert checked >= 300

    # kernel rank is m - n everywhere
    rng = random.Random(9)
    pairs = [validated(p) for p in
             (cp2_triangle(), cp1xcp1_square(), square_in_square())]
    pairs += [random_quasitoric_3d(rng), random_one_hole_2d(rng)]
    for pair in pairs:
        data = kernel_data(pair)
        assert data.torus_rank == pair.body.facet_count - pair.body.dim

    # CP^2 kernel is spanned by (1, 1, 1)
    cp2 = validated(cp2_triangle())
    col = kernel_data(cp2).kernel_basis[0]
    assert col in ((1, 1, 1), (-1, -1, -1))

    # embedding coordinate i vanishes exactly on facet i at sampled points
    for pair in (validated(square_in_square()), cp2):
        chart = embedding_chart(pair)
        body = pair.body
        samples = []
        for gv in body.global_vertices():
            samples.append((gv.point, set(gv.facets)))
        for ci, comp in enumerate(body.components):
            for (i, j), facets in edges_of(comp):
                a, b = comp.vertices[i].point, comp.vertices[j].point
                mid = tuple((p + q) / 2 for p, q in zip(a, b))
                samples.append((mid, {body.facet_offsets[ci] + f for f in facets}))
        interior = tuple(c + Fraction(1, 7) for c in body.outer.vertices[0].point)
        if body_contains(body, interior):
            samples.append((interior, set()))
        for point, on in samples:
            coords = chart.evaluate(point)
            for gid, value in enumerate(coords):
                assert (value == 0) == (gid in on)
    announce(9, f"freeness matches the kernel oracle on {checked} candidates and "
                "validation where the vectors span Z^n, kernel rank is m-n, the "
                "CP^2 kernel is (1,1,1), and d_i vanishes exactly on facet i")


def test_criterion_10_classic_sanity_values():
    cp2 = validated(cp2_triangle())
    poly = chi_y(cp2)
    assert poly.coefficients == (1, -1, 1)
    assert poly.todd == 1
    assert poly.signature == 1
    assert poly.top_chern == 3
    assert chern_numbers_dim4(cp2) == (9, 3)

    product = validated(cp1xcp1_square())
    ppoly = chi_y(product)
    assert ppoly.signature == 0
    form = intersection_form(product)
    assert form.matrix == ((0, 1), (1, 0))
    announce(10, "CP^2 gives chi_y = 1 - y + y^2, todd 1, signature 1, top "
                 "Chern 3, c1^2 = 9; CP^1 x CP^1 gives signature 0 and the "
                 "hyperbolic form")
