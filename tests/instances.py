"""Reusable characteristic-pair builders for the test suite.

Random generators are deterministic given their Random instance.  The 2D
lambda chains are produced by walking the facet cycle with extended-gcd
steps so every adjacent determinant is +-1 by construction; only the
wrap-around determinant needs retries.
"""

import random
from fractions import Fraction
from math import gcd

from tmh.charpair import CharacteristicPair, validate
from tmh.polytope import (
    build_polytope,
    build_with_holes,
    place_holes,
    polygon_from_vertices,
)

F = Fraction


def pair_from_components(outer, holes, lambdas_per_component):
    body = build_with_holes(outer, holes)
    lam = {}
    fid = 0
    for vectors in lambdas_per_component:
        for v in vectors:
            lam[fid] = tuple(v)
            fid += 1
    return CharacteristicPair(body, lam)


def validated(pair):
    report = validate(pair)
    assert report.ok, report.message
    return pair


# ---------------------------------------------------------------------------
# fixed instances


def cp2_triangle():
    """Coordinate triangle with the standard CP^2 assignment."""
    outer = build_polytope(2, [((0, 1), 0), ((1, 0), 0), ((-1, -1), -1)])
    # facets: 0 = {y=0}, 1 = {x=0}, 2 = {x+y=1}
    return pair_from_components(outer, [], [[(0, 1), (1, 0), (-1, -1)]])


def cp1xcp1_square():
    outer = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    return pair_from_components(outer, [], [[(1, 0), (0, 1), (-1, 0), (0, -1)]])


def hirzebruch_square(k):
    outer = polygon_from_vertices([(0, 0), (6, 0), (6, 6), (0, 6)])
    return pair_from_components(outer, [], [[(1, 0), (0, 1), (-1, k), (0, -1)]])


PENTAGON_VERTICES = [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)]
PENTAGON_LAMBDA = [(1, 0), (-1, 1), (1, -2), (0, 1), (-1, -1)]


def pentagon_y():
    """The equivariant connected sum of three copies of CP^2."""
    outer = polygon_from_vertices(PENTAGON_VERTICES)
    return pair_from_components(outer, [], [PENTAGON_LAMBDA])


def square_in_square():
    outer = polygon_from_vertices([(0, 0), (4, 0), (4, 4), (0, 4)])
    hole = polygon_from_vertices([(1, 1), (2, 1), (2, 2), (1, 2)])
    lam = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return pair_from_components(outer, [hole], [lam, lam])


def hirzebruch_cp2_fibersum(k):
    """Hirzebruch(k) outer with a CP^2-type triangle hole.

    The geometry pins the connecting segment to the outer corner at the
    origin and the nearest hole vertex, and the lambda assignment is the one
    that reproduces the known product table of this fiber sum.
    """
    outer = polygon_from_vertices([(0, 0), (6, 0), (6, 6), (0, 6)])
    hole = polygon_from_vertices([(1, 1), (3, F(3, 2)), (F(3, 2), 3)])
    outer_lam = [(1, 0), (0, 1), (-1, k), (0, -1)]
    hole_lam = [(0, -1), (1, 1), (-1, 0)]
    return pair_from_components(outer, [hole], [outer_lam, hole_lam])


# ---------------------------------------------------------------------------
# random 2D instances


def random_convex_lattice_polygon(rng, sides):
    """Convex lattice polygon from edge vectors sorted by angle."""
    from math import atan2

    while True:
        vecs = {}
        while len(vecs) < sides:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v == (0, 0):
                continue
            g = gcd(abs(v[0]), abs(v[1]))
            v = (v[0] // g, v[1] // g)
            vecs[v] = None
        edges = sorted(vecs, key=lambda v: atan2(v[1], v[0]))
        total = (sum(e[0] for e in edges), sum(e[1] for e in edges))
        # close the cycle by dropping the net drift onto one edge slot
        if total != (0, 0):
            continue
        pts = [(0, 0)]
        for e in edges[:-1]:
            pts.append((pts[-1][0] + e[0], pts[-1][1] + e[1]))
        try:
            return polygon_from_vertices(pts)
        except Exception:
            continue


def _bezout_partner(v):
    """Some w with det[v, w] = 1 for a primitive v."""
    a, b = v
    # solve a*q - b*p = 1
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*a + old_t*b = gcd = +-1
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    # det[(a,b),(p,q)] = a*q - b*p = 1 with (p,q) = (-old_t, old_s)
    return (-old_t, old_s)


def random_cycle_lambda(rng, sides, tries=200):
    """Primitive vectors around a facet cycle with all adjacent dets +-1."""
    for _ in range(tries):
        lam = [(1, 0)]
        for _ in range(sides - 1):
            prev = lam[-1]
            w = _bezout_partner(prev)
            eps = rng.choice((1, -1))
            t = rng.randint(-2, 2)
            lam.append((eps * w[0] + t * prev[0], eps * w[1] + t * prev[1]))
        d = lam[-1][0] * lam[0][1] - lam[-1][1] * lam[0][0]
        if d in (1, -1):
            return lam
    # deterministic fallback: alternating axes, odd cycles closed by (-1,-1)
    lam = [(1, 0) if i % 2 == 0 else (0, 1) for i in range(sides)]
    if sides % 2 == 1:
        lam[-1] = (-1, -1)
    return lam


def random_quasitoric_2d(rng, sides=None):
    sides = sides or rng.randint(3, 7)
    poly = random_convex_lattice_polygon(rng, sides)
    lam = random_cycle_lambda(rng, poly.facet_count)
    return validated(pair_from_components(poly, [], [lam]))


def random_many_sided_quasitoric_2d(rng, sides, bound=4):
    """Quasitoric pair over a lattice polygon with 3..48 facets, or up to
    176 facets with bound=8.

    The edge vectors are primitive with max-norm <= bound, each taken with
    its negative so that the cycle closes; an odd count merges the first two
    edges into their sum, whose direction lies strictly between theirs.
    """
    from math import atan2

    half = [(a, b) for a in range(-bound, bound + 1) for b in range(0, bound + 1)
            if (b > 0 or a > 0) and gcd(abs(a), b) == 1]
    picked = rng.sample(half, (sides + 1) // 2)
    edges = sorted(picked + [(-a, -b) for a, b in picked], key=lambda v: atan2(v[1], v[0]))
    if sides % 2:
        edges[:2] = [(edges[0][0] + edges[1][0], edges[0][1] + edges[1][1])]
    pts = [(0, 0)]
    for e in edges[:-1]:
        pts.append((pts[-1][0] + e[0], pts[-1][1] + e[1]))
    poly = polygon_from_vertices(pts)
    return validated(pair_from_components(poly, [], [random_cycle_lambda(rng, sides)]))


def random_one_hole_2d(rng):
    outer_pair = random_quasitoric_2d(rng)
    hole_pair = random_quasitoric_2d(rng)
    return fibersum_pairs(outer_pair, [hole_pair])


def random_multi_hole_2d(rng, holes=2):
    outer_pair = random_quasitoric_2d(rng)
    pieces = [random_quasitoric_2d(rng) for _ in range(holes)]
    return fibersum_pairs(outer_pair, pieces)


def fibersum_pairs(base, pieces, scale=None):
    """Compose quasitoric pairs by placing the pieces as holes of the base."""
    assert base.body.hole_count == 0
    for p in pieces:
        assert p.body.hole_count == 0
    body = place_holes(base.body.outer, [p.body.outer for p in pieces], scale=scale)
    lam = base.lam + tuple(v for p in pieces for v in p.lam)
    return validated(CharacteristicPair(body, lam))


# ---------------------------------------------------------------------------
# random 3D instances


def unit_cube():
    return build_polytope(3, [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        ((-1, 0, 0), -1), ((0, -1, 0), -1), ((0, 0, -1), -1)])


def simplex_3d():
    return build_polytope(3, [
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)])


def prism_3d():
    return build_polytope(3, [
        ((0, 0, 1), 0), ((0, 0, -1), -1),
        ((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -1)])


def random_gl3z(rng, steps=8):
    u = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        q = rng.randint(-2, 2)
        for c in range(3):
            u[i][c] += q * u[j][c]
    return u


def _apply_gl(u, vec):
    return tuple(sum(u[r][c] * vec[c] for c in range(3)) for r in range(3))


def bott_cube_lambda(rng):
    """Cube assignment from an iterated CP^1-bundle twist (always valid)."""
    a12, a13, a23 = (rng.randint(-2, 2) for _ in range(3))
    by_facet = {
        (1, 0, 0): (1, 0, 0), (0, 1, 0): (0, 1, 0), (0, 0, 1): (0, 0, 1),
        (-1, 0, 0): (-1, a12, a13),
        (0, -1, 0): (0, -1, a23),
        (0, 0, -1): (0, 0, -1),
    }
    return by_facet


def random_quasitoric_3d(rng):
    kind = rng.choice(("cube", "simplex", "prism"))
    u = random_gl3z(rng)
    if kind == "cube":
        poly = unit_cube()
        table = bott_cube_lambda(rng)
        lam = [_apply_gl(u, table[h.normal]) for h in poly.halfspaces]
    elif kind == "simplex":
        poly = simplex_3d()
        base = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        lam = [_apply_gl(u, v) for v in base]
    else:
        poly = prism_3d()
        base = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0), (-1, -1, 0)]
        lam = [_apply_gl(u, v) for v in base]
    return validated(pair_from_components(poly, [], [lam]))


def random_one_hole_3d(rng):
    outer_pair = random_quasitoric_3d(rng)
    hole_pair = random_quasitoric_3d(rng)
    return fibersum_pairs(outer_pair, [hole_pair])


def random_prism_3d(rng, sides, bound=8):
    """Quasitoric pair over a unit-height prism on a random lattice polygon,
    with sides + 2 facets: (lambda_i, 0) on the side over each polygon facet,
    (0, 0, 1) on the bottom and (a, b, -1) on the top, so every vertex
    determinant is +-det[lambda_i, lambda_(i+1)] = +-1."""
    base = random_many_sided_quasitoric_2d(rng, sides, bound)
    rows = [((*h.normal, 0), h.offset) for h in base.body.outer.halfspaces]
    rows += [((0, 0, 1), 0), ((0, 0, -1), -1)]
    lam = [(*v, 0) for v in base.lam]
    lam += [(0, 0, 1), (rng.randint(-2, 2), rng.randint(-2, 2), -1)]
    return validated(pair_from_components(build_polytope(3, rows), [], [lam]))
