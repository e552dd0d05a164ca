"""Seeded input generators for the three benchmark workloads.

Nothing here imports ``tmh``: the benchmark builds spec documents (plain
JSON-ready dicts) from a seed, and the program only ever sees those
documents.  The same seed gives byte-identical specs (see ``spec_bytes``).

The shape of every workload (which sizes, hole counts and commands occur,
and how often) is fixed.  The seed picks the characteristic vectors, the
vector a corrupted spec breaks, the small specs of cli_small and the 3D
prism bases, the evaluation points and the op order.  The large 2D
polygons come from a fixed set of shapes (``symmetric_polygon``), since
their exact-arithmetic cost depends on the shape: so the per-op cost
distribution, and with it every end-to-end metric, hardly depends on the
seed.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import gcd

DEFAULT_SEED = 0
CORRUPT_EVERY = 5       # every 5th seeded spec gets one corrupted lambda

WHY = {
    "cli_small": (
        "one `python -m tmh.cli` child per op on small specs: what a user "
        "waits for, dominated by interpreter start and `import tmh.cli`"),
    "report_ladder": (
        "in-process parse, build_report, render_json over 2D m-gons "
        "(m=8..36, 0..8 holes) and 3D prisms: polytope, validate and frames"),
    "embed_points": (
        "in-process fiber sum, validate, embedding chart and point "
        "evaluation: Fourier-Motzkin collar certification, report idle"),
}


# ---------------------------------------------------------------------------
# exact helpers


def rat(x) -> int | str:
    """A rational as the spec format writes it: int, or the string "p/q"."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def spec_bytes(spec: dict) -> bytes:
    return json.dumps(spec, sort_keys=True, indent=2).encode() + b"\n"


def det2(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _half(v) -> int:
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def _by_angle(a, b) -> int:
    """Exact counter-clockwise angle order of nonzero vectors from +x."""
    if _half(a) != _half(b):
        return _half(a) - _half(b)
    return -det2(a, b)


def _primitive(v) -> bool:
    return gcd(*v) == 1


def lattice_polygon(rng: random.Random, m: int, bound: int) -> list[tuple[int, int]]:
    """Counter-clockwise integer vertex cycle of a strictly convex m-gon.

    m distinct edge directions summing to zero, taken in angle order,
    always close up into a strictly convex polygon.
    """
    while True:
        edges: list[tuple[int, int]] = []
        while len(edges) < m - 1:
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if v != (0, 0) and _primitive(v) and v not in edges:
                edges.append(v)
        close = (-sum(e[0] for e in edges), -sum(e[1] for e in edges))
        if close == (0, 0):
            continue
        g = gcd(*close)
        if (close[0] // g, close[1] // g) in edges:
            continue
        edges.append(close)
        edges.sort(key=cmp_to_key(_by_angle))
        pts = [(0, 0)]
        for e in edges[:-1]:
            pts.append((pts[-1][0] + e[0], pts[-1][1] + e[1]))
        return pts


def symmetric_polygon(m: int, bound: int, phase: float) -> list[tuple[int, int]]:
    """Counter-clockwise integer vertex cycle of a centrally symmetric
    m-gon (m even) whose edge directions are spread evenly in angle;
    ``phase`` in [0, 1) shifts which directions are taken.

    The workloads take their polygons from a fixed set of phases, not
    from the seed: the exact-arithmetic cost of one size depends on the
    shape, and a seed-dependent shape would move the percentiles."""
    upper = sorted((v for v in product(range(-bound, bound + 1), repeat=2)
                    if _half(v) == 0 and _primitive(v)), key=cmp_to_key(_by_angle))
    half = m // 2
    dirs = [upper[int((k + phase) * len(upper) / half)] for k in range(half)]
    edges = dirs + [(-x, -y) for x, y in dirs]
    pts = [(0, 0)]
    for e in edges[:-1]:
        pts.append((pts[-1][0] + e[0], pts[-1][1] + e[1]))
    return pts


def inward_halfspaces(pts):
    """(primitive inward normal, offset) for each edge of a CCW cycle."""
    out = []
    for i, a in enumerate(pts):
        b = pts[(i + 1) % len(pts)]
        t = (Fraction(b[0]) - a[0], Fraction(b[1]) - a[1])
        n = (-t[1], t[0])
        mult = n[0].denominator * n[1].denominator
        ints = (int(n[0] * mult), int(n[1] * mult))
        g = gcd(*ints)
        ints = (ints[0] // g, ints[1] // g)
        out.append((ints, ints[0] * Fraction(a[0]) + ints[1] * Fraction(a[1])))
    return out


def clearance(pts):
    """Vertex average c of a convex cycle and the radius rho of the
    l-infinity ball around c that lies inside the polygon."""
    c = (sum(Fraction(p[0]) for p in pts) / len(pts),
         sum(Fraction(p[1]) for p in pts) / len(pts))
    rho = min((n[0] * c[0] + n[1] * c[1] - off) / (abs(n[0]) + abs(n[1]))
              for n, off in inward_halfspaces(pts))
    return c, rho


def _dyadic_floor(x: Fraction) -> Fraction:
    p = Fraction(1)
    while p > x:
        p /= 2
    while 2 * p <= x:
        p *= 2
    return p


# ---------------------------------------------------------------------------
# characteristic vectors

SMALL2 = [v for v in product(range(-2, 3), repeat=2) if v != (0, 0) and _primitive(v)]


def lambda_cycle(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """Small primitive vectors around a facet cycle, every adjacent
    determinant +-1 (wrap-around included)."""
    while True:
        lam = [rng.choice(SMALL2)]
        for _ in range(m - 2):
            lam.append(rng.choice([w for w in SMALL2 if abs(det2(lam[-1], w)) == 1]))
        last = [w for w in SMALL2
                if abs(det2(lam[-1], w)) == 1 and abs(det2(w, lam[0])) == 1]
        if last:
            lam.append(rng.choice(last))
            return lam


def corrupt_cycle(rng: random.Random, lam):
    """Replace one vector so that it pairs to an even determinant with its
    predecessor: the pair can no longer be valid."""
    lam = list(lam)
    m = len(lam)
    i = rng.randrange(m)
    prev, nxt = lam[i - 1], lam[(i + 1) % m]
    lam[i] = tuple(p + 2 * q for p, q in zip(prev, nxt))
    return lam


def random_gl3(rng: random.Random, steps: int = 6):
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        q = rng.choice((-1, 1))
        for c in range(3):
            u[i][c] += q * u[j][c]
    return u


def _apply(u, v):
    return tuple(sum(u[r][c] * v[c] for c in range(3)) for r in range(3))


# ---------------------------------------------------------------------------
# spec documents


def _vertex_component(pts, labels):
    return {"vertices": [[rat(x), rat(y)] for x, y in pts], "labels": labels}


def _halfspace_component(rows, labels):
    return {"halfspaces": [{"label": lab, "normal": list(n), "offset": rat(off)}
                           for lab, (n, off) in zip(labels, rows)]}


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
TRIANGLE = [(0, 0), (1, 0), (0, 1)]


def fixed_pieces(count):
    """Small pieces: squares and triangles in turn."""
    return [(SQUARE, TRIANGLE)[j % 2] for j in range(count)]


def placed_pieces(outer_pts, pieces):
    """The piece polygons scaled into a row through the vertex average of
    the outer cycle, pairwise disjoint and strictly inside it."""
    c, rho = clearance(outer_pts)
    count = len(pieces)
    e = _dyadic_floor(rho / (4 * count))
    out = []
    for j, piece in enumerate(pieces):
        xs, ys = [p[0] for p in piece], [p[1] for p in piece]
        mid = (Fraction(min(xs) + max(xs), 2), Fraction(min(ys) + max(ys), 2))
        half = Fraction(max(max(xs) - min(xs), max(ys) - min(ys)), 2)
        s = e / half
        cx = c[0] + (j - Fraction(count - 1, 2)) * 3 * e
        out.append([(cx + s * (x - mid[0]), c[1] + s * (y - mid[1])) for x, y in piece])
    return out


def spec_2d(name, rng, outer_pts, holes, corrupt=False):
    """A 2D spec from an outer cycle and hole cycles, with random valid
    characteristic vectors per component; ``corrupt`` breaks the outer one."""
    labels = [f"e{i + 1}" for i in range(len(outer_pts))]
    lam_outer = lambda_cycle(rng, len(outer_pts))
    if corrupt:
        lam_outer = corrupt_cycle(rng, lam_outer)
    char = dict(zip(labels, ([a, b] for a, b in lam_outer)))
    holes_json = []
    for k, hole in enumerate(holes, start=1):
        hl = [f"h{k}.e{i + 1}" for i in range(len(hole))]
        holes_json.append(_vertex_component(hole, hl))
        char.update(zip(hl, ([a, b] for a, b in lambda_cycle(rng, len(hole)))))
    return {
        "dimension": 2,
        "metadata": {"name": name},
        "outer": _vertex_component(outer_pts, labels),
        "holes": holes_json,
        "characteristic": char,
    }


def prism_rows(base_pts, height):
    rows = [((n[0], n[1], 0), off) for n, off in inward_halfspaces(base_pts)]
    rows.append(((0, 0, 1), Fraction(0)))
    rows.append(((0, 0, -1), Fraction(-height)))
    return rows


def prism_lambda(rng, k):
    """Sides (lambda_i, c_i) over a valid 2D cycle, bottom e3, top -e3:
    every vertex determinant is +-1 of an adjacent 2D one."""
    cyc = lambda_cycle(rng, k)
    return [(a, b, rng.randint(-1, 1)) for a, b in cyc] + [(0, 0, 1), (0, 0, -1)]


def box_rows(lo, hi):
    rows = []
    for d in range(3):
        n = [0, 0, 0]
        n[d] = 1
        rows.append((tuple(n), Fraction(lo[d])))
    for d in range(3):
        n = [0, 0, 0]
        n[d] = -1
        rows.append((tuple(n), -Fraction(hi[d])))
    return rows


def cube_lambda(rng):
    """Bott-tower cube vectors in the facet order of ``box_rows``."""
    a12, a13, a23 = (rng.randint(-1, 1) for _ in range(3))
    return [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, a12, a13), (0, -1, a23), (0, 0, -1)]


def simplex_rows(corner, size):
    rows = [((1, 0, 0), Fraction(corner[0])), ((0, 1, 0), Fraction(corner[1])),
            ((0, 0, 1), Fraction(corner[2]))]
    rows.append(((-1, -1, -1), -(sum(Fraction(x) for x in corner) + size)))
    return rows


SIMPLEX_LAMBDA = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]


def spec_3d(name, rng, outer_rows, outer_lam, holes=(), corrupt_at=None):
    """A 3D spec; every component's vectors go through one random GL(3,Z)
    change of basis.  ``corrupt_at=(i, j, k)`` names three outer facets
    meeting at a vertex and replaces lambda_i by lambda_j + 2 lambda_k,
    which makes that vertex singular."""
    u = random_gl3(rng)
    outer_lam = [_apply(u, v) for v in outer_lam]
    if corrupt_at is not None:
        i, j, k = corrupt_at
        outer_lam[i] = tuple(a + 2 * b for a, b in zip(outer_lam[j], outer_lam[k]))
    labels = [f"f{i + 1}" for i in range(len(outer_rows))]
    char = {lab: list(v) for lab, v in zip(labels, outer_lam)}
    holes_json = []
    for h, (rows, lam) in enumerate(holes, start=1):
        hl = [f"h{h}.f{i + 1}" for i in range(len(rows))]
        holes_json.append(_halfspace_component(rows, hl))
        char.update((lab, list(_apply(u, v))) for lab, v in zip(hl, lam))
    return {
        "dimension": 3,
        "metadata": {"name": name},
        "outer": _halfspace_component(outer_rows, labels),
        "holes": holes_json,
        "characteristic": char,
    }


# ---------------------------------------------------------------------------
# the fixed textbook corpus (seed-independent)

F = Fraction


def _fixed(name, outer, lam_outer, holes=()):
    labels = [f"e{i + 1}" for i in range(len(outer))]
    char = {lab: list(v) for lab, v in zip(labels, lam_outer)}
    holes_json = []
    for k, (pts, lam) in enumerate(holes, start=1):
        hl = [f"h{k}.e{i + 1}" for i in range(len(pts))]
        holes_json.append(_vertex_component(pts, hl))
        char.update((lab, list(v)) for lab, v in zip(hl, lam))
    return {"dimension": 2, "metadata": {"name": name},
            "outer": _vertex_component(outer, labels), "holes": holes_json,
            "characteristic": char}


def fixed_corpus() -> list[dict]:
    square6 = [(0, 0), (6, 0), (6, 6), (0, 6)]
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    corpus = [
        _fixed("pentagon-y", [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)],
               [(1, 0), (-1, 1), (1, -2), (0, 1), (-1, -1)]),
        _fixed("cp2", [(0, 0), (1, 0), (0, 1)], [(0, 1), (-1, -1), (1, 0)]),
        _fixed("cp1xcp1", [(0, 0), (1, 0), (1, 1), (0, 1)], unit),
    ]
    for k in range(4):
        corpus.append(_fixed(f"hirzebruch-{k}", square6,
                             [(1, 0), (0, 1), (-1, k), (0, -1)]))
    corpus.append(_fixed("square-in-square", [(0, 0), (4, 0), (4, 4), (0, 4)], unit,
                         [([(1, 1), (2, 1), (2, 2), (1, 2)], unit)]))
    corpus.append(_fixed("hirzebruch-1#cp2", square6, [(1, 0), (0, 1), (-1, 1), (0, -1)],
                         [([(1, 1), (3, F(3, 2)), (F(3, 2), 3)],
                           [(0, -1), (1, 1), (-1, 0)])]))
    return corpus


# ---------------------------------------------------------------------------
# workloads
#
# An op is a JSON-ready dict: ``kind`` says how run.py executes it,
# ``valid`` is the validity the generator intended.


def _stratified(rng, strata):
    """Spread each stratum's ops evenly over the list (systematic order
    with a seeded phase), so every prefix has about the mix of the whole."""
    keyed = []
    for ops in strata:
        ops = list(ops)
        rng.shuffle(ops)
        phase = rng.random()
        keyed += [((j + phase) / len(ops), rng.random(), op) for j, op in enumerate(ops)]
    keyed.sort(key=lambda t: t[:2])
    return [op for *_, op in keyed]


def gen_cli_small(seed: int) -> list[dict]:
    rng = random.Random(f"cli_small:{seed}")
    specs = [(s, True, None) for s in fixed_corpus()]
    seeded = []
    for i in range(15):
        m = 3 + i % 6
        pts = lattice_polygon(rng, m, 3)
        nholes = (0, 0, 1, 2)[i % 4]
        holes = placed_pieces(pts, fixed_pieces(nholes)) if nholes else []
        c, rho = clearance(pts)
        point = (c[0], c[1] + rho / 2)
        seeded.append((f"small2d-{i}", pts, holes, point))
    rng.shuffle(seeded)
    for j, (name, pts, holes, point) in enumerate(seeded, start=1):
        corrupt = j % CORRUPT_EVERY == 0
        specs.append((spec_2d(name, rng, pts, holes, corrupt), not corrupt, point))
    for i, kind in enumerate(("cube", "simplex", "prism") * 2):
        corrupt = i == 4
        if kind == "cube":
            rows, lam, point = box_rows((0, 0, 0), (2, 2, 2)), cube_lambda(rng), (1, F(1, 2), 1)
        elif kind == "simplex":
            rows, lam, point = simplex_rows((0, 0, 0), 4), SIMPLEX_LAMBDA, (1, 1, 1)
        else:
            base = lattice_polygon(rng, 3 + i % 3, 2)
            c, _ = clearance(base)
            rows, lam, point = prism_rows(base, 2), prism_lambda(rng, len(base)), (*c, 1)
        specs.append((spec_3d(f"small3d-{kind}-{i}", rng, rows, lam,
                              corrupt_at=(0, 1, 2) if corrupt else None),
                      not corrupt, point))
    # For the fixed corpus, mac --point uses an interior point clear of holes.
    fixed_points = {"square-in-square": (3, F(7, 2)), "hirzebruch-1#cp2": (5, 5)}

    extras = ("validate", "invariants", "homology", "ring", "mac")
    ops = []
    for i, (spec, valid, point) in enumerate(specs):
        name = spec["metadata"]["name"]
        if point is None:
            point = fixed_points.get(name)
            if point is None:
                c, rho = clearance([tuple(F(x) for x in p) for p in spec["outer"]["vertices"]])
                point = (c[0], c[1] + rho / 2)
        ops.append({"kind": "cli", "spec": spec, "valid": valid,
                    "argv": ["report", "--format", "json"]})
        if i % 3 == 2:
            continue
        cmd = extras[i % len(extras)]
        if cmd in ("homology", "ring") and spec["dimension"] != 2:
            cmd = "invariants"
        if cmd == "ring" and len(spec["holes"]) > 1:
            cmd = "homology"
        argv = [cmd]
        if cmd == "mac":
            argv.append("--point=" + ",".join(str(F(x)) for x in point))
        ops.append({"kind": "cli", "spec": spec, "valid": valid, "argv": argv})
    rng.shuffle(ops)
    return ops


# m -> number of 2D ops per pass; op j of an m gets HOLE_CYCLE[j] holes.
# Even m from 8 to 36 with fewer ops as m grows: the sorted op costs form
# a dense ladder, so p50 and p90 fall between near neighbours and do not
# jump with the seed.  The ladder stops at m = 36: at this commit one
# m = 40 op takes 1.2-1.5 s and m = 48 2.8 s (Fourier-Motzkin is O(m^4)
# in 2D); the polygon probes cover 32/64.
LADDER_2D = {8: 8, 10: 8, 12: 8, 14: 7, 16: 7, 18: 6, 20: 6, 22: 5, 24: 5,
             26: 4, 28: 4, 30: 3, 32: 3, 34: 2, 36: 2}
HOLE_CYCLE = (0, 1, 2, 4, 6, 8, 3, 5)
LADDER_PRISMS = range(4, 17)
LADDER_3D_HOLE_COPIES = 3


def gen_report_ladder(seed: int) -> list[dict]:
    rng = random.Random(f"report_ladder:{seed}")
    serial = itertools.count(1)
    strata = []
    for m, count in LADDER_2D.items():
        ops = []
        for j, h in enumerate(HOLE_CYCLE[:count]):
            pts = symmetric_polygon(m, 5 if m > 20 else 3, (j + 0.5) / count)
            holes = placed_pieces(pts, fixed_pieces(h)) if h else []
            corrupt = next(serial) % CORRUPT_EVERY == 0
            ops.append({"kind": "report", "valid": not corrupt,
                        "spec": spec_2d(f"ladder2d-m{m}-h{h}", rng, pts, holes, corrupt)})
        strata.append(ops)
    for k in LADDER_PRISMS:
        base = lattice_polygon(rng, k, 3)
        corrupt = next(serial) % CORRUPT_EVERY == 0
        spec = spec_3d(f"ladder3d-prism{k}", rng, prism_rows(base, 3),
                       prism_lambda(rng, k), corrupt_at=(0, 1, k) if corrupt else None)
        strata.append([{"kind": "report", "valid": not corrupt, "spec": spec}])
    for kind in ("cube", "prism"):
        ops = []
        for _ in range(LADDER_3D_HOLE_COPIES):
            if kind == "cube":
                rows, lam, c, rho = box_rows((0, 0, 0), (4, 4, 4)), cube_lambda(rng), (2, 2), 2
                meet = (0, 1, 2)                  # x = 0, y = 0, z = 0
            else:
                base = lattice_polygon(rng, 4, 3)
                c, rho = clearance(base)
                rows, lam = prism_rows(base, 4), prism_lambda(rng, 4)
                meet = (0, 1, 4)                  # two adjacent sides and the bottom
            e = _dyadic_floor(Fraction(rho) / 2) / 2
            lo = (Fraction(c[0]) - e, Fraction(c[1]) - e, 2 - e)
            if rng.random() < 0.5:
                hole = (box_rows(lo, tuple(x + 2 * e for x in lo)), cube_lambda(rng))
            else:
                hole = (simplex_rows(lo, e), SIMPLEX_LAMBDA)
            corrupt = next(serial) % CORRUPT_EVERY == 0
            spec = spec_3d(f"ladder3d-{kind}-hole", rng, rows, lam, [hole],
                           corrupt_at=meet if corrupt else None)
            ops.append({"kind": "report", "valid": not corrupt, "spec": spec})
        strata.append(ops)
    return _stratified(rng, strata)


EMBED_POINTS_PER_OP = 8
# base facet count -> largest piece count; every (base, pieces) pair up to
# it occurs EMBED_COPIES times per pass.  Larger bases get fewer pieces so
# that no op at this commit takes much over 1 s.  Bases are centrally
# symmetric and pieces alternate square / triangle, so that the cost of
# one (base, pieces) pair hardly depends on the seed.
EMBED_LADDER = {6: 8, 8: 5, 10: 3, 12: 2}
EMBED_COPIES = 3


def _body_points(rng, pts, count):
    """Rational points of the outer polygon outside the box around the
    vertex average that ``place_holes`` fills with pieces (it packs them
    in a row of half-length < 3 rho / 8 and half-height <= rho / 4)."""
    c, rho = clearance(pts)
    out = []
    while len(out) < count:
        i = rng.randrange(len(pts))
        s = Fraction(rng.randint(0, 4), 4)
        a, b = pts[i], pts[(i + 1) % len(pts)]
        edge = ((1 - s) * a[0] + s * b[0], (1 - s) * a[1] + s * b[1])
        t = Fraction(rng.randint(1, 15), 16)
        p = (c[0] + t * (edge[0] - c[0]), c[1] + t * (edge[1] - c[1]))
        if abs(p[0] - c[0]) <= 3 * rho / 8 and abs(p[1] - c[1]) <= rho / 4:
            continue
        out.append(p)
    return out


def gen_embed_points(seed: int) -> list[dict]:
    rng = random.Random(f"embed_points:{seed}")
    strata = []
    for b, most in EMBED_LADDER.items():
        for p in range(1, most + 1):
            ops = []
            for c in range(EMBED_COPIES):
                base_pts = symmetric_polygon(b, 3, (c + 0.5) / EMBED_COPIES)
                pieces = [spec_2d(f"piece{j + 1}", rng, shape, [])
                          for j, shape in enumerate(fixed_pieces(p))]
                points = _body_points(rng, base_pts, EMBED_POINTS_PER_OP)
                ops.append({"kind": "embed", "valid": True,
                            "base": spec_2d(f"base{b}", rng, base_pts, []),
                            "pieces": pieces,
                            "points": [[rat(x), rat(y)] for x, y in points]})
            strata.append(ops)
    return _stratified(rng, strata)


GENERATORS = {
    "cli_small": gen_cli_small,
    "report_ladder": gen_report_ladder,
    "embed_points": gen_embed_points,
}
