"""Independent reference routes, kept for tests only.

``validate_by_faces`` runs the Smith normal form of every face of every
vertex, and ``freeness_by_kernel`` tests unimodularity of the m x m matrix
[kernel basis | coordinate columns] at every vertex.  The library
answers the same questions from |det L_v| (tmh.charpair, tmh.mac); the
tests require both routes to agree on ``candidates``, a seeded pool of
valid and corrupted pairs.

``fm_feasible`` decides feasibility by Fourier-Motzkin elimination.  On it
rest ``fm_screen``, the emptiness and recession-cone checks that
``build_polytope`` once ran before enumerating vertices, and
``collar_widths_by_fm``, the collar halving loop with one Fourier-Motzkin
system per outer facet and per other hole.  The library decides the same
questions from basic points (tmh.polytope, tmh.mac).

``edge_directions_at_vertex`` walks the edge table for the direction of
the edge leaving each facet at a vertex, and ``frame_order_by_edges``
orders the facets so that those directions form a positive basis.  The
library orders them from the sign of the determinant of their normals
(tmh.charpair).
"""

import itertools
import random
from fractions import Fraction

from tmh.charpair import CharacteristicPair, ValidationReport
from tmh.errors import EmptyError, UnboundedError
from tmh.exactlin import (
    IntMatrix,
    _integer_row,
    det_exact,
    is_primitive,
    kernel_lattice_basis,
    smith_normal_form,
)
from tmh.mac import _expanded_hole_system, _l1
from tmh.polytope import HalfSpace, PolytopeWithHoles

from matrices import hstack
from instances import (
    random_multi_hole_2d,
    random_one_hole_2d,
    random_one_hole_3d,
    random_quasitoric_2d,
    random_quasitoric_3d,
)


def validate_by_faces(pair: CharacteristicPair) -> ValidationReport:
    """Primitivity, then the SNF of every face in vertex order, by size
    then lexicographically, skipping faces already seen."""
    n = pair.body.dim
    for fid in range(pair.body.facet_count):
        vec = pair.lam[fid]
        if not is_primitive(vec):
            return ValidationReport(
                False, "primitivity", (fid,),
                f"facet {fid}: vector {vec} is not primitive")
    seen: set[frozenset[int]] = set()
    for gv in pair.body.global_vertices():
        facets = sorted(gv.facets)
        for k in range(1, n + 1):
            for subset in itertools.combinations(facets, k):
                key = frozenset(subset)
                if key in seen:
                    continue
                seen.add(key)
                m = IntMatrix.from_columns([pair.lam[f] for f in subset], rows=n)
                divisors, rank = smith_normal_form(m)
                if rank != k or any(d != 1 for d in divisors):
                    return ValidationReport(
                        False, "summand", subset,
                        f"face {subset}: span is not a rank-{k} direct summand "
                        f"(divisors {list(divisors)}, rank {rank})")
    return ValidationReport(True)


def freeness_by_kernel(pair: CharacteristicPair) -> bool:
    """The kernel lattice must complement the coordinate sublattice of the
    facets through each vertex: [kernel basis | coordinate columns] is
    unimodular."""
    lam = pair.lambda_matrix()
    basis = kernel_lattice_basis(lam)
    m = pair.body.facet_count
    if basis.cols + pair.body.dim != m:
        return False  # rank-deficient characteristic map
    for gv in pair.body.global_vertices():
        coord_cols = [tuple(1 if i == f else 0 for i in range(m))
                      for f in sorted(gv.facets)]
        stacked = hstack(basis, IntMatrix.from_columns(coord_cols, rows=m))
        if det_exact(stacked) not in (1, -1):
            return False
    return True


# ---------------------------------------------------------------------------
# Fourier-Motzkin routes


def fm_feasible(rows) -> bool:
    """Decide feasibility of a system of rows (coeffs, rhs): coeffs.x >= rhs."""
    rows = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in rows]
    nvars = len(rows[0][0]) if rows else 0
    for var in range(nvars - 1, -1, -1):
        lower, upper, rest = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[var]
            if c > 0:
                lower.append((coeffs, rhs))
            elif c < 0:
                upper.append((coeffs, rhs))
            else:
                rest.append((coeffs[:var], rhs))
        for lc, lb in lower:
            for uc, ub in upper:
                p, q = lc[var], -uc[var]
                coeffs = [q * a + p * b for a, b in zip(lc[:var], uc[:var])]
                rest.append((coeffs, q * lb + p * ub))
        rows = rest
    return all(rhs <= 0 for _, rhs in rows)


def _recession_cone_nontrivial(halfspaces, dim) -> bool:
    """True when {d : normal . d >= 0 for all facets} contains d != 0."""
    for j in range(dim):
        for sign in (1, -1):
            # substitute d_j = sign and test the remaining system
            rows = []
            for h in halfspaces:
                coeffs = [Fraction(c) for i, c in enumerate(h.normal) if i != j]
                rows.append((coeffs, Fraction(-sign * h.normal[j])))
            if dim == 1:
                if all(rhs <= 0 for _, rhs in rows):
                    return True
            elif fm_feasible(rows):
                return True
    return False


def fm_screen(dim: int, halfspaces) -> None:
    """Raise EmptyError or UnboundedError as build_polytope's checks before
    its vertex enumeration did; return None when both pass."""
    hs = tuple(h if isinstance(h, HalfSpace)
               else HalfSpace(tuple(int(c) for c in h[0]), Fraction(h[1]))
               for h in halfspaces)
    system = [(h.normal, h.offset) for h in hs]
    if not fm_feasible(system):
        raise EmptyError("half-space system is infeasible")
    if _recession_cone_nontrivial(hs, dim):
        raise UnboundedError("half-space system is unbounded")


def collar_widths_by_fm(body: PolytopeWithHoles) -> tuple[Fraction, ...]:
    """A positive collar width per hole, halved until the expanded hole
    provably misses the outer boundary and every other hole."""
    outer = body.outer
    widths = []
    for k, hole in enumerate(body.holes):
        guess = min(h.value(v.point) / _l1(h.normal)
                    for h in outer.halfspaces for v in hole.vertices) / 2
        width = guess
        for _ in range(64):
            ok = True
            expanded = _expanded_hole_system(hole, width)
            for i, h in enumerate(outer.halfspaces):
                boundary = [(hh.normal, hh.offset) for hh in outer.halfspaces]
                boundary.append((tuple(-c for c in h.normal), -h.offset))
                if fm_feasible(expanded + boundary):
                    ok = False
                    break
            if ok:
                for j, other in enumerate(body.holes):
                    if j == k:
                        continue
                    other_rows = [(h.normal, h.offset) for h in other.halfspaces]
                    if fm_feasible(expanded + other_rows):
                        ok = False
                        break
            if ok:
                break
            width /= 2
        else:
            raise AssertionError("collar width certification did not converge")
        widths.append(width)
    return tuple(widths)


# ---------------------------------------------------------------------------
# edge-direction route to vertex frames


def edge_directions_at_vertex(body: PolytopeWithHoles, vid: int):
    """For each facet F through the vertex, the direction of the unique
    edge through the vertex not contained in F (pointing away from it).

    Directions are computed inside the component owning the vertex and
    returned as (global facet id, direction) sorted by facet id.
    """
    ci, li = body.vertex_location(vid)
    comp = body.components[ci]
    vertex = comp.vertices[li]
    out = []
    for f in sorted(vertex.facets):
        others = frozenset(vertex.facets - {f})
        edge = next(e for e in comp.edges if e.facets == others)
        other_end = edge.endpoints[0] if edge.endpoints[1] == li else edge.endpoints[1]
        target = comp.vertices[other_end].point
        direction = tuple(t - s for t, s in zip(target, vertex.point))
        out.append((body.facet_gid(ci, f), direction))
    return out


def det_sign_columns(columns) -> int:
    """Sign of the determinant of a square matrix of rational columns.

    Each column is scaled by a positive rational to clear denominators,
    which cannot change the sign.
    """
    scaled = [_integer_row(col) for col in columns]
    d = det_exact(IntMatrix.from_columns(scaled))
    return (d > 0) - (d < 0)


def frame_order_by_edges(body: PolytopeWithHoles, vid: int) -> tuple[int, ...]:
    """The facets through the vertex in ascending id, the last two swapped
    if the matching edge directions are negatively oriented."""
    pairs = edge_directions_at_vertex(body, vid)
    order = [fid for fid, _ in pairs]
    if det_sign_columns([d for _, d in pairs]) < 0:
        order[-1], order[-2] = order[-2], order[-1]
    return tuple(order)


def sign_by_edges(pair: CharacteristicPair, vid: int) -> int:
    """sigma(v) = det L_v with the columns in edge-route frame order."""
    return det_exact(pair.facet_matrix(frame_order_by_edges(pair.body, vid)))


# ---------------------------------------------------------------------------
# candidate pool

FAMILIES = (
    ("2d", random_quasitoric_2d),
    ("2d-one-hole", random_one_hole_2d),
    ("2d-two-holes", lambda rng: random_multi_hole_2d(rng, holes=2)),
    ("3d", random_quasitoric_3d),
    ("3d-one-hole", random_one_hole_3d),
)

# how a valid assignment is corrupted; None keeps it valid
CORRUPTIONS = (None, "random", "neighbours", "sublattice")


def _corrupt(rng, pair, how):
    lam = dict(pair.lam)
    n = pair.body.dim
    if how == "random":
        # any nonzero vector: non-primitive, parallel or low-index columns
        fid = rng.randrange(pair.body.facet_count)
        vec = tuple(rng.randint(-4, 4) for _ in range(n))
        lam[fid] = vec if any(vec) else (2,) + (0,) * (n - 1)
    elif how == "neighbours":
        # lambda_f <- lambda_g + 2 lambda_h, with f and g meeting at a vertex
        gv = rng.choice(pair.body.global_vertices())
        f, g = rng.sample(sorted(gv.facets), 2)
        h = rng.choice([x for x in lam if x != f])
        lam[f] = tuple(a + 2 * b for a, b in zip(lam[g], lam[h]))
    elif how == "sublattice":
        # every vector into the index-2 sublattice: the kernel torus can
        # still act freely although the pair is not characteristic
        lam = {fid: v[:-1] + (2 * v[-1],) for fid, v in lam.items()}
    return CharacteristicPair(pair.body, lam)


def candidates(seed: int, per_family: int = 64):
    """Yield (family, corruption, pair) over every family and corruption,
    ``per_family`` pairs per family, none of them validated yet."""
    rng = random.Random(seed)
    for family, generate in FAMILIES:
        for i in range(per_family):
            how = CORRUPTIONS[i % len(CORRUPTIONS)]
            yield family, how, _corrupt(rng, generate(rng), how)
