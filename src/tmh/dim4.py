"""Dimension-4 invariants: CW cell counts, homology, intersection forms,
Chern numbers and structure obstruction flags.

All of this applies to pairs over 2-dimensional bodies.  Intersection
forms are computed on explicit generator lists: characteristic spheres
over the facets plus, in the one-hole case, the two circle-factor spheres
over the segment joining the closest outer/hole vertex pair.  Entries are
obtained by localizing intersections at vertices; self-intersections are
in closed form, from the linear relations satisfied by the characteristic
classes of each quasitoric block.  The form's signature is chi_1 of the
genus, and the report checks the form's determinant against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charpair import CharacteristicPair, all_signs, is_positive_omniorientation
from .errors import DimensionError, InternalError, ScopeError
from .exactlin import IntMatrix
from .genus import chi_y


@dataclass(frozen=True)
class HomologyProfile:
    betti: tuple[int, int, int, int, int]
    cell_counts: tuple[int, int, int, int, int]
    m: int    # total vertex count (= facet count in dimension 2)
    s: int    # hole count


@dataclass(frozen=True)
class IntersectionData:
    """Basis of H_2 with its intersection matrix.

    Generators are ("facet", global facet id) for characteristic spheres
    and ("circle", "(0,1)" / "(1,0)") for the two special spheres over the
    connecting segment of the one-hole case.
    """

    generators: tuple[tuple[str, object], ...]
    matrix: IntMatrix
    one_three_pairing: int | None = None


@dataclass(frozen=True)
class StructureFlags:
    invariant_almost_complex: bool
    invariant_symplectic_excluded: bool   # True: excluded; False: unobstructed here
    kahler_excluded: bool
    complex_excluded_by_bmy: bool
    c1_squared: int | None
    c2: int | None


def _require_dim2(pair: CharacteristicPair):
    if pair.body.dim != 2:
        raise DimensionError(f"dimension-4 invariants need n = 2, got n = {pair.body.dim}")


def cw_cell_counts(pair: CharacteristicPair) -> tuple[int, int, int, int, int]:
    """CW cell counts (c0..c4) of the manifold over a 2-dimensional body.

    One hole: (l0 - 1 + l1, l0 + l1 - 1, l0 + l1, 1, 1).  The s-hole
    generalization keeps one connecting arc, one extra pair of 2-cells and
    one 3-cell per hole, which pins the counts to
    (m - 1, m + s - 2, m + 2s - 2, s, 1); the alternating sum is m.
    """
    _require_dim2(pair)
    m = pair.body.vertex_count
    s = pair.body.hole_count
    return (m - 1, m + s - 2, m + 2 * s - 2, s, 1)


def homology_groups(pair: CharacteristicPair) -> HomologyProfile:
    """Free abelian homology of ranks (1, s, m + 2s - 2, s, 1).

    The cellular boundary maps of the CW structure vanish, so there is no
    torsion and the Betti numbers come straight from the cell counts.
    """
    _require_dim2(pair)
    m = pair.body.vertex_count
    s = pair.body.hole_count
    return HomologyProfile(
        betti=(1, s, m + 2 * s - 2, s, 1),
        cell_counts=cw_cell_counts(pair),
        m=m,
        s=s,
    )


# ---------------------------------------------------------------------------
# cyclic combinatorics of a 2D component


def _cycle(component, start_local: int | None = None):
    """Counter-clockwise vertex cycle and interleaved facet cycle.

    Returns (vertex_ids, facet_ids), both local, with facet i joining
    vertex i to vertex i+1.  Starts at the lexicographically smallest
    vertex unless a start is given.  The inward normals of the facets into
    and out of a vertex, in that order, have a positive determinant.
    """
    verts, normals = component.vertices, [h.normal for h in component.halfspaces]
    ends = {f: e.endpoints for e in component.edges for f in e.facets}
    first = min(range(len(verts)), key=lambda i: verts[i].point)
    v = first if start_local is None else start_local
    order, facets = [], []
    while len(order) < len(verts):
        a, b = sorted(verts[v].facets)
        out = b if normals[a][0] * normals[b][1] - normals[a][1] * normals[b][0] > 0 else a
        order.append(v)
        facets.append(out)
        v = sum(ends[out]) - v
    return order, facets


def _component_pairing(pair: CharacteristicPair, comp_index: int,
                       start_local: int | None = None):
    """Full pairing matrix of the characteristic sphere classes of one
    component, in its cyclic facet order, where v_j joins facets j-1 and j.

    Adjacent classes pair to the sign of the shared vertex; non-adjacent
    ones to zero.  Crossing sum_i lambda_i (x_i . x_j) = 0 with lambda_(j-1)
    gives sigma(v_j) q_jj + det[lambda_(j-1), lambda_(j+1)] sigma(v_(j+1)) = 0.
    """
    body = pair.body
    vcycle, fcycle = _cycle(body.components[comp_index], start_local)
    signs = all_signs(pair)
    csigns = [signs[body.vertex_gid(comp_index, v)] for v in vcycle]
    lam = [pair.lam[body.facet_gid(comp_index, f)] for f in fcycle]
    l = len(fcycle)

    q = [[0] * l for _ in range(l)]
    for j in range(l):
        k = (j + 1) % l
        prev, cur, nxt = lam[j - 1], lam[j], lam[k]
        # the CCW cycle convention makes sigma(v_j) = det[lambda_(j-1), lambda_j]
        if csigns[j] != prev[0] * cur[1] - prev[1] * cur[0]:
            raise InternalError(f"component {comp_index} vertex {vcycle[j]}: sign is not "
                                "det[lambda_(j-1), lambda_j]")
        q[j][k] = q[k][j] = csigns[k]
        q[j][j] = -csigns[j] * csigns[k] * (prev[0] * nxt[1] - prev[1] * nxt[0])
    return q, vcycle, fcycle


def quasitoric_intersection_form(pair: CharacteristicPair) -> IntersectionData:
    """Intersection form of a quasitoric (s = 0) pair on the kept basis.

    The two classes dropped to reach a basis of H_2 are the last two facets
    of the cyclic numbering, whose 2-cells are absorbed into the CW
    structure's top cells.
    """
    _require_dim2(pair)
    if pair.body.hole_count != 0:
        raise ScopeError("quasitoric form needs a body without holes")
    q, _, fcycle = _component_pairing(pair, 0)
    l = len(fcycle)
    kept = list(range(l - 2))
    matrix = IntMatrix.from_rows([[q[i][j] for j in kept] for i in kept])
    generators = tuple(("facet", pair.body.facet_gid(0, fcycle[i])) for i in kept)
    return IntersectionData(generators, matrix, None)


def _closest_vertex_pair(body):
    """Outer/hole local vertex ids minimizing the squared distance."""
    outer = body.outer
    hole = body.holes[0]
    best = None
    for vi, v in enumerate(outer.vertices):
        for ui, u in enumerate(hole.vertices):
            d2 = sum((a - b) ** 2 for a, b in zip(v.point, u.point))
            key = (d2, v.point, u.point)
            if best is None or key < best[0]:
                best = (key, vi, ui)
    return best[1], best[2]


def _decompose(target, lam_first, lam_last):
    """Integer (a1, a2) with target = a1*first + a2*last, by Cramer's rule."""
    det = lam_first[0] * lam_last[1] - lam_first[1] * lam_last[0]
    if det == 0:
        raise InternalError("endpoint vectors are not a basis")
    a1, r1 = divmod(target[0] * lam_last[1] - target[1] * lam_last[0], det)
    a2, r2 = divmod(lam_first[0] * target[1] - lam_first[1] * target[0], det)
    if r1 or r2:
        raise InternalError("endpoint vectors are not a lattice basis")
    return a1, a2


def one_hole_intersection_matrix(pair: CharacteristicPair) -> IntersectionData:
    """Intersection matrix of a one-hole pair on its l0 + l1 generators.

    Basis: kept outer characteristic spheres x_1 .. x_{l0-2}, the two
    circle-factor spheres over the connecting segment (torus directions
    (0,1) then (1,0)), and all hole characteristic spheres.  Entries
    involving the special spheres come from endpoint localization: writing
    (0,1) = a1 lambda_1 + a2 lambda_{l0} at the outer endpoint with
    d = sigma(v_1) gives the contribution a1 a2 d to the self-intersection
    and a1 to the product with x_1; the hole endpoint and the direction
    (1,0) follow the same recipe.
    """
    _require_dim2(pair)
    if pair.body.hole_count != 1:
        raise ScopeError("one-hole matrix needs exactly one hole")
    body = pair.body
    v1, u1 = _closest_vertex_pair(body)
    q0, vcyc0, fcyc0 = _component_pairing(pair, 0, start_local=v1)
    q1, vcyc1, fcyc1 = _component_pairing(pair, 1, start_local=u1)
    l0, l1 = len(fcyc0), len(fcyc1)
    signs = all_signs(pair)

    lam0_first = pair.lam[body.facet_gid(0, fcyc0[0])]
    lam0_last = pair.lam[body.facet_gid(0, fcyc0[-1])]
    lam1_first = pair.lam[body.facet_gid(1, fcyc1[0])]
    lam1_last = pair.lam[body.facet_gid(1, fcyc1[-1])]
    d = signs[body.vertex_gid(0, vcyc0[0])]
    dp = signs[body.vertex_gid(1, vcyc1[0])]

    a1, a2 = _decompose((0, 1), lam0_first, lam0_last)
    c1, c2 = _decompose((1, 0), lam0_first, lam0_last)
    b1, b2 = _decompose((0, 1), lam1_first, lam1_last)
    e1, e2 = _decompose((1, 0), lam1_first, lam1_last)

    size = l0 + l1
    mat = [[0] * size for _ in range(size)]
    s01 = l0 - 2          # index of the (0,1)-sphere
    s10 = l0 - 1          # index of the (1,0)-sphere
    hole0 = l0            # first hole generator

    for i in range(l0 - 2):
        for j in range(l0 - 2):
            mat[i][j] = q0[i][j]
    for i in range(l1):
        for j in range(l1):
            mat[hole0 + i][hole0 + j] = q1[i][j]

    mat[s01][s01] = a1 * a2 * d + b1 * b2 * dp
    mat[s10][s10] = c1 * c2 * d + e1 * e2 * dp
    cross = a2 * c1 * d + b2 * e1 * dp
    mat[s01][s10] = mat[s10][s01] = cross

    def set_sym(i, j, value):
        mat[i][j] = mat[j][i] = value

    set_sym(0, s01, a1)
    set_sym(0, s10, c1)
    set_sym(hole0, s01, b1)
    set_sym(hole0, s10, e1)
    set_sym(hole0 + l1 - 1, s01, b2)
    set_sym(hole0 + l1 - 1, s10, e2)

    generators = tuple(("facet", body.facet_gid(0, fcyc0[i])) for i in range(l0 - 2))
    generators += (("circle", "(0,1)"), ("circle", "(1,0)"))
    generators += tuple(("facet", body.facet_gid(1, f)) for f in fcyc1)
    return IntersectionData(generators, IntMatrix.from_rows(mat), 1)


def intersection_form(pair: CharacteristicPair) -> IntersectionData:
    """Dispatch on the hole count; s >= 2 is out of scope."""
    _require_dim2(pair)
    s = pair.body.hole_count
    if s == 0:
        return quasitoric_intersection_form(pair)
    if s == 1:
        return one_hole_intersection_matrix(pair)
    raise ScopeError(f"intersection form is not computed for {s} holes")


def chern_numbers_dim4(pair: CharacteristicPair) -> tuple[int, int]:
    """(c1^2, c2): c2 is the Euler characteristic m, and
    c1^2 = 2 c2 + 3 signature with the signature from the genus formula."""
    _require_dim2(pair)
    c2 = pair.body.vertex_count
    sig = chi_y(pair).signature
    return 2 * c2 + 3 * sig, c2


def structure_flags(pair: CharacteristicPair) -> StructureFlags:
    """Boolean obstruction summary.

    An invariant almost complex structure exists exactly for positive
    omniorientations.  Any hole kills invariant symplectic forms; one hole
    makes b_1 = 1 which excludes Kahler; a positively omnioriented pair
    with c1^2 > 3 c2 violates Bogomolov-Miyaoka-Yau, so no complex
    structure at all.
    """
    positive = is_positive_omniorientation(pair)
    s = pair.body.hole_count
    if pair.body.dim == 2:
        c1sq, c2 = chern_numbers_dim4(pair)
        bmy = positive and c1sq > 3 * c2
    else:
        c1sq = c2 = None
        bmy = False
    return StructureFlags(
        invariant_almost_complex=positive,
        invariant_symplectic_excluded=s >= 1,
        kahler_excluded=s == 1,
        complex_excluded_by_bmy=bmy,
        c1_squared=c1sq,
        c2=c2,
    )
