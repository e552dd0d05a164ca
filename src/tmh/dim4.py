"""Dimension-4 invariants: homology with its CW cell counts, intersection
forms, Chern numbers and structure obstruction flags.

All of this applies to pairs over 2-dimensional bodies.  One routine gives
the intersection form of a body with at most one hole, on an explicit
generator list: the outer characteristic spheres minus the last two, and
with one hole the two circle-factor spheres over the segment joining the
closest outer/hole vertex pair and the hole's characteristic spheres.  With
no hole only the outer (quasitoric) block remains.  Entries are obtained by
localizing intersections at vertices; self-intersections are in closed
form, from the linear relations satisfied by the characteristic classes of
each quasitoric block.  At each end of the segment, the coefficients of
(1,0) and (0,1) in the basis of the first and last lambda there are the
edge covectors mu = L_v^-1 that the end vertex's kept frame holds
(tmh.charpair).  The form's signature is chi_1 of the genus, and the
report checks the form's determinant against it.
"""

from __future__ import annotations

from .charpair import CharacteristicPair, all_signs, is_positive_omniorientation, vertex_frame
from .errors import DimensionError, InternalError, ScopeError
from .exactlin import _integer_row
from .genus import chi_y
from .value import Value


class HomologyProfile(Value):
    # m is the total vertex count (= facet count in dimension 2), s the hole count
    __slots__ = ("betti", "cell_counts", "m", "s")


class IntersectionData(Value):
    """Basis of H_2 with its intersection matrix.

    Generators are ("facet", global facet id) for characteristic spheres
    and ("circle", "(0,1)" / "(1,0)") for the two special spheres over the
    connecting segment of the one-hole case.
    """

    __slots__ = ("generators", "matrix", "one_three_pairing")  # matrix as rows


class StructureFlags(Value):
    # each *_excluded is True when excluded, False when unobstructed here
    __slots__ = ("invariant_almost_complex", "invariant_symplectic_excluded",
                 "kahler_excluded", "complex_excluded_by_bmy")


def _require_dim2(pair: CharacteristicPair):
    if pair.body.dim != 2:
        raise DimensionError(f"dimension-4 invariants need n = 2, got n = {pair.body.dim}")


def homology_groups(pair: CharacteristicPair) -> HomologyProfile:
    """Free abelian homology of ranks (1, s, m + 2s - 2, s, 1), with the CW
    cell counts (c0..c4) of the manifold over a 2-dimensional body.

    One hole gives the cells (l0 - 1 + l1, l0 + l1 - 1, l0 + l1, 1, 1).  The
    s-hole generalization keeps one connecting arc, one extra pair of
    2-cells and one 3-cell per hole, which pins the counts to
    (m - 1, m + s - 2, m + 2s - 2, s, 1); the alternating sum is m.  The
    cellular boundary maps vanish, so there is no torsion and the Betti
    numbers come straight from the cell counts.
    """
    _require_dim2(pair)
    m = pair.body.vertex_count
    s = pair.body.hole_count
    return HomologyProfile((1, s, m + 2 * s - 2, s, 1),
                           (m - 1, m + s - 2, m + 2 * s - 2, s, 1), m, s)


# ---------------------------------------------------------------------------
# cyclic combinatorics of a 2D component


def _cycle(component, start_local: int | None = None):
    """Counter-clockwise vertex cycle and interleaved facet cycle.

    Returns (vertex_ids, facet_ids), both local, with facet i joining
    vertex i to vertex i+1.  Starts at the lexicographically smallest
    vertex unless a start is given.  The inward normals of the facets into
    and out of a vertex, in that order, have a positive determinant.  Facet
    f holds two vertices, so with ends[f] the sum of their ids, read off the
    vertex facet sets, it leads from vertex i to vertex ends[f] - i.
    """
    verts, normals = component.vertices, [h.normal for h in component.halfspaces]
    ends = [0] * len(normals)
    for i, vertex in enumerate(verts):
        for f in vertex.facets:
            ends[f] += i
    first = min(range(len(verts)), key=lambda i: verts[i].point)
    v = first if start_local is None else start_local
    order, facets = [], []
    while len(order) < len(verts):
        a, b = sorted(verts[v].facets)
        out = b if normals[a][0] * normals[b][1] - normals[a][1] * normals[b][0] > 0 else a
        order.append(v)
        facets.append(out)
        v = ends[out] - v
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
    vo, fo = body.vertex_offsets[comp_index], body.facet_offsets[comp_index]
    csigns = [signs[vo + v] for v in vcycle]
    lam = [pair.lam[fo + f] for f in fcycle]
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


def _closest_vertex_pair(body):
    """Outer/hole local vertex ids minimizing (squared distance, outer point,
    hole point).  The points are lifted once to integers X / d over one
    common denominator d > 0, which keeps that order."""
    outer, hole = body.outer.vertices, body.holes[0].vertices
    *flat, _ = _integer_row([c for v in (*outer, *hole) for c in v.point] + [1])
    xs = list(zip(flat[::2], flat[1::2]))
    return min(((a - c) ** 2 + (b - e) ** 2, (a, b), (c, e), vi, ui)
               for vi, (a, b) in enumerate(xs[:len(outer)])
               for ui, (c, e) in enumerate(xs[len(outer):]))[3:]


def intersection_form(pair: CharacteristicPair) -> IntersectionData:
    """Intersection form on a basis of H_2, for at most one hole.

    Basis: the outer characteristic spheres x_1 .. x_{l0-2} (the last two
    facets of the cyclic numbering are dropped; their 2-cells are absorbed
    into the top cells), then with one hole the two circle-factor spheres
    over the connecting segment (torus directions (0,1) then (1,0)) and all
    hole characteristic spheres.  With one hole both cycles start at the
    closest outer/hole vertex pair.  Entries involving the circle spheres
    come from endpoint localization: writing (0,1) = a1 lambda_first +
    a2 lambda_last at an endpoint with sign d gives a1 a2 d to the
    self-intersection and a1, a2 to the products with the first and last
    facet; (1,0) = c1 lambda_first + c2 lambda_last follows the same recipe,
    and the two circle spheres meet in a2 c1 d.  s >= 2 is out of scope.
    """
    _require_dim2(pair)
    body = pair.body
    s = body.hole_count
    if s > 1:
        raise ScopeError(f"intersection form is not computed for {s} holes")
    v1, u1 = _closest_vertex_pair(body) if s else (None, None)
    q0, vcyc0, fcyc0 = _component_pairing(pair, 0, v1)
    l0 = len(fcyc0)
    s01, s10 = l0 - 2, l0 - 1      # l0 - 2 outer classes are kept; the circle spheres follow
    generators = tuple(("facet", f) for f in fcyc0[:s01])  # outer ids are global
    if s == 0:
        return IntersectionData(generators, tuple(tuple(r[:s01]) for r in q0[:s01]), None)

    q1, vcyc1, fcyc1 = _component_pairing(pair, 1, u1)
    size = l0 + len(fcyc1)
    mat = ([r[:s01] + [0] * (size - s01) for r in q0[:s01]] + [[0] * size, [0] * size]
           + [[0] * l0 + r for r in q1])
    # hole ids start at l0; generator index of each end's first and last facet (outer last dropped)
    for offset, vcyc, fcyc, ends in ((0, vcyc0, fcyc0, (0, None)),
                                     (l0, vcyc1, fcyc1, (l0, size - 1))):
        # the frame orders the facets (last, first), into the end vertex and out of it, and
        # its mu rows give (1, 0) = c1 first + c2 last and (0, 1) = a1 first + a2 last
        frame = vertex_frame(pair, offset + vcyc[0])
        ((c2, a2), (c1, a1)), d = frame.mu, frame.sign
        mat[s01][s01] += a1 * a2 * d
        mat[s10][s10] += c1 * c2 * d
        mat[s01][s10] += a2 * c1 * d
        for i, a, c in zip(ends, (a1, a2), (c1, c2)):
            if i is not None:
                mat[i][s01] = mat[s01][i] = a
                mat[i][s10] = mat[s10][i] = c
    mat[s10][s01] = mat[s01][s10]
    generators += (("circle", "(0,1)"), ("circle", "(1,0)"))
    generators += tuple(("facet", l0 + f) for f in fcyc1)
    return IntersectionData(generators, tuple(map(tuple, mat)), 1)


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
    bmy = False
    if pair.body.dim == 2:
        c1sq, c2 = chern_numbers_dim4(pair)
        bmy = positive and c1sq > 3 * c2
    return StructureFlags(positive, s >= 1, s == 1, bmy)
