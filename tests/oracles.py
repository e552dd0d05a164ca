"""Independent reference routes, kept for tests only.

``smith_by_pivoting`` brings a matrix to Smith form by pivoting on its
least entry, and ``kernel_by_pivoting`` reads the kernel lattice off the
column operations of that pivoting.  ``kernel_by_hermite`` takes the
kernel from the Hermite form of [m^T | I] over all m columns.  The library
takes the Smith form from Hermite forms (tmh.exactlin) and the kernel of a
valid pair from one unimodular vertex (tmh.mac).  Only the last step of
``kernel_by_pivoting``, which puts its basis in Hermite form so that
entries can be compared, is library code; the lattice it reduces comes
from the pivoting.

``validate_by_faces`` runs the Smith normal form of every face of every
vertex, and ``freeness_by_kernel`` tests unimodularity of the m x m matrix
[kernel basis | coordinate columns] at every vertex, both by pivoting.
The library answers the same questions from |det L_v| (tmh.charpair,
tmh.mac); the tests require both routes to agree on ``candidates``, a
seeded pool of valid and corrupted pairs.

``fm_feasible`` decides feasibility by Fourier-Motzkin elimination.  On it
rest ``fm_screen``, the emptiness and recession-cone checks that
``build_polytope`` once ran before enumerating vertices, and
``collar_widths_by_fm``, the collar halving loop with one Fourier-Motzkin
system per outer facet and per other hole.  The library decides the same
questions with an exact simplex (tmh.polytope, tmh.mac).
``collar_thresholds_by_lps`` solves the collar LP of every obstacle of
every hole, and ``collar_widths_by_lps`` halves the first guess below the
least of them one step at a time; the library takes the least dual lower
bound where a primal point at it proves it the threshold, else skips each
LP whose bound already reaches the least threshold found, and takes the
number of halvings from one integer quotient (tmh.mac).

``value_by_fractions`` sums normal . point - offset one Fraction per
coordinate, and ``blocking_by_fractions`` runs the ratio test of a simplex
dictionary on Fraction steps.  The library lifts a point to one integer
row X / d before it takes its facet values, and compares the steps of the
ratio test by cross-multiplying integers (tmh.polytope).

``build_by_enumeration`` solves every n-subset of the rows and keeps the
solutions that satisfy all of them; its basic points are the vertices.
The library walks from one vertex to the next by pivoting instead, reads
a 2D half-space system off its lines in angle order, and reads polygons
off their vertex cycle.  ``polygon_by_fractions`` reads a
polygon off its cycle in Fraction arithmetic, sorting the vertices by
their Fraction points; the library lifts the cycle once to integer points
over one common denominator.  ``transformed_by_fractions`` scales and
shifts a polytope one Fraction operation at a time; the library lifts the
scale, the shift, the offsets and the points once each to integer rows and
builds each new number as one Fraction (tmh.polytope).

``edges_of`` pairs the vertices that share all but one facet, the edges
of a simple polytope.  ``edge_directions_at_vertex`` walks those edges
for the direction of the edge leaving each facet at a vertex, and
``frame_order_by_edges`` orders the facets so that those directions form
a positive basis.  The library orders them from the sign of the
determinant of their normals (tmh.charpair).

``pairing_by_relations`` solves the relations sum_i lambda_i (x_i . x_j) = 0
for each self-intersection of a component's characteristic spheres, and
``signature_of_matrix`` diagonalizes a symmetric matrix by congruence over
the rationals.  The library reads each self-intersection off a closed
form and takes the signature from chi_1 of the genus (tmh.dim4, tmh.cli).
Both pairings walk the library's facet cycle, ``tmh.dim4._cycle``.
``quasitoric_form_by_blocks`` and ``one_hole_form_by_blocks`` assemble the
intersection form of a body without holes and with one hole as two
separate routines; the library builds both in one (tmh.dim4).  The second
solves for each endpoint's coefficients of (0,1) and (1,0) by Bareiss; the
library reads them off one unimodular inverse.

``_eliminate`` is dense fraction-free Gauss-Jordan elimination (Bareiss
1968), O(r^3) on growing integers.  ``det_by_bareiss`` takes a determinant
by it, and ``solve_rational`` and ``rational_rank`` solve and rank with it.
The library eliminates on sparse integer rows for determinants, dividing
each new row by the gcd of its entries, and takes unimodular inverses and
the kernel of tmh.mac from row Hermite forms (tmh.exactlin).
``closest_vertex_pair_by_fractions`` compares every outer/hole vertex pair
by its Fraction squared distance; the library lifts all points once to
integers over one common denominator (tmh.dim4).

``is_generic``, ``facet_location``, ``hole_coordinates``, ``contains`` and
``body_contains`` answer questions no library caller asks.  ``is_generic``
pairs a direction with the rows mu of every vertex frame, ``facet_location``
walks the components' facet counts, ``hole_coordinates`` takes the chart's
auxiliary coordinates from Fraction facet values and its collar widths, and
``body_contains`` tests a point against the outer body and each open hole;
the library reads vertices off its global vertex table (tmh.polytope), lifts
a point on integer rows, and refuses a point outside the body in
``EmbeddingChart.evaluate`` (tmh.mac).  ``evaluate_by_fractions`` is the
chart's Fraction route: facet values from ``value_by_fractions``, hole
coordinates from ``hole_coordinates``, and each coordinate a sum of
Fractions; the library lifts the point once to X / d, takes each
component's facet values as integers over one denominator, picks each
hole's depth by cross-multiplication, and builds each coordinate as one
Fraction (tmh.mac).  ``generic_directions_by_scan`` runs
``is_generic`` on each primitive direction in the search order of
tmh.genus, so every covector of every vertex is tested, repeats included;
the library collects the distinct covectors into a set and tests each once.

``render_json_by_dumps`` writes a report with ``json.dumps(sort_keys=True,
indent=2)``, whose indent sends it through the standard library's
pure-Python encoder; the library writes the same bytes with one recursive
emitter that joins each list of scalars at once (tmh.cli).
"""

import functools
import itertools
import json
import random
from fractions import Fraction

from tmh import dim4
from tmh.charpair import CharacteristicPair, ValidationReport, all_signs, vertex_frame
from tmh.dim4 import IntersectionData, _cycle
from tmh.errors import (
    DimensionError,
    DomainError,
    EmptyError,
    InternalError,
    NotSimpleError,
    RedundantFacetError,
    ScopeError,
    UnboundedError,
)
from tmh.exactlin import (
    RatVector,
    _integer_row,
    _row_hnf,
    det_exact,
    is_primitive,
    primitive_part,
    rat_vector,
)
from tmh.mac import EmbeddingChart, _l1
from tmh.polytope import (
    HalfSpace,
    PolytopeWithHoles,
    SimplePolytope,
    Vertex,
    _assemble,
    _Dictionary,
)

from matrices import hstack, transpose
from instances import (
    random_multi_hole_2d,
    random_one_hole_2d,
    random_one_hole_3d,
    random_quasitoric_2d,
    random_quasitoric_3d,
)


# ---------------------------------------------------------------------------
# Smith form and kernel lattice by pivoting


def _snf_diagonalize(mat, cols: int, track_cols: bool):
    """Bring a copy of the rows ``mat`` (``cols`` columns) to Smith form;
    optionally track column ops.

    Returns (diagonal entries incl. zeros, V) where V is the rows of the
    unimodular column-operation matrix with mat . V congruent to the Smith
    form up to untracked row operations.  Row operations never change the
    kernel, so V is all that kernel extraction needs.
    """
    rows = len(mat)
    d = [list(row) for row in mat]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if track_cols else None

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]

    def add_col(dst, src, q):
        # column dst += q * column src
        for r in d:
            r[dst] += q * r[src]
        if v is not None:
            for r in v:
                r[dst] += q * r[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate the nonzero entry of smallest magnitude as pivot
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            restart = False
            # clear the pivot column with row operations
            for i in range(t + 1, rows):
                if d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                d[i] = [d[i][j] - q * d[t][j] for j in range(cols)]
                if d[i][t] != 0:
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, cols):
                if d[t][j] == 0:
                    continue
                q = d[t][j] // d[t][t]
                add_col(j, t, -q)
                if d[t][j] != 0:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # force the pivot to divide the remaining block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            d[t] = [d[t][j] + d[offender][j] for j in range(cols)]

        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1

    diag = [d[i][i] for i in range(limit)]
    return diag, v


def smith_by_pivoting(m) -> tuple[tuple[int, ...], int]:
    """Nonzero elementary divisors d1 | d2 | ... and the rank of the matrix
    with rows ``m``."""
    diag, _ = _snf_diagonalize(m, len(m[0]) if m else 0, track_cols=False)
    divisors = tuple(x for x in diag if x != 0)
    return divisors, len(divisors)


def kernel_by_hermite(m, cols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated integer kernel lattice of the matrix with
    rows ``m`` and ``cols`` columns.

    The result has cols - rank(m) vectors of length cols, each annihilated
    by ``m``.  They are the rows of the Hermite form of [m^T | I] that
    vanish on the m^T block, cut to their I part: those rows span
    {x : m x = 0} and are its Hermite basis, so the output is deterministic.
    """
    rows = [[row[j] for row in m] + [int(i == j) for i in range(cols)] for j in range(cols)]
    return tuple(tuple(row[len(m):]) for row in _row_hnf(rows) if not any(row[:len(m)]))


def kernel_by_pivoting(m, cols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated integer kernel lattice of the matrix with
    rows ``m`` and ``cols`` columns.

    The result has cols - rank(m) vectors of length cols, each annihilated
    by ``m``.  They are Hermite-reduced so the output is deterministic.
    """
    diag, v = _snf_diagonalize(m, cols, track_cols=True)
    rank = sum(1 for x in diag if x != 0)
    kernel_cols = [[row[j] for row in v] for j in range(rank, cols)]
    return tuple(map(tuple, _row_hnf(kernel_cols)))


# ---------------------------------------------------------------------------
# characteristic-pair routes


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
                divisors, rank = smith_by_pivoting(transpose([pair.lam[f] for f in subset]))
                if rank != k or any(d != 1 for d in divisors):
                    return ValidationReport(
                        False, "summand", subset,
                        f"face {subset}: span is not a rank-{k} direct summand "
                        f"(divisors {list(divisors)}, rank {rank})")
    return ValidationReport(True, None, (), "valid")


def freeness_by_kernel(pair: CharacteristicPair) -> bool:
    """The kernel lattice must complement the coordinate sublattice of the
    facets through each vertex: [kernel basis | coordinate columns] is
    unimodular."""
    m = pair.body.facet_count
    basis = kernel_by_pivoting(tuple(zip(*pair.lam)), m)
    if len(basis) + pair.body.dim != m:
        return False  # rank-deficient characteristic map
    for gv in pair.body.global_vertices():
        coord_cols = [tuple(1 if i == f else 0 for i in range(m))
                      for f in sorted(gv.facets)]
        stacked = hstack(transpose(basis), transpose(coord_cols))
        if det_exact(stacked) not in (1, -1):
            return False
    return True


# ---------------------------------------------------------------------------
# Fourier-Motzkin routes


# Fourier-Motzkin can square the row count at each step; tier-1 systems stay
# below ~2,400 rows, and a larger system fails loudly instead of filling memory
FM_ROW_CAP = 20_000


def value_by_fractions(h: HalfSpace, point) -> Fraction:
    """normal . point - offset, each coordinate coerced to a Fraction."""
    return sum(n * Fraction(x) for n, x in zip(h.normal, point)) - h.offset


def contains(poly: SimplePolytope, point, strict: bool = False) -> bool:
    """Whether the point lies in the polytope, or in its interior if strict."""
    point = rat_vector(point)
    if len(point) != poly.dim:
        raise DimensionError(f"point needs {poly.dim} coordinates, got {len(point)}")
    return all(v > 0 if strict else v >= 0 for v in poly.values(point))


def body_contains(body: PolytopeWithHoles, point) -> bool:
    """Membership in P = outer minus the open hole interiors."""
    return contains(body.outer, point) and not any(
        contains(hole, point, strict=True) for hole in body.holes)


def blocking_by_fractions(tab, k) -> list[int]:
    """The rows of a simplex dictionary whose slack first reaches 0 as
    cols[k] grows: the least Fraction steps rhs_i / -a_ik, ascending."""
    steps = {i: Fraction(row[-1], -row[k]) for i, row in enumerate(tab.rows)
             if row[k] < 0 and tab.basis[i] >= 0}
    least = min(steps.values(), default=None)
    return [i for i, step in steps.items() if step == least]


def fm_feasible(rows) -> bool:
    """Decide feasibility of a system of rows (coeffs, rhs): coeffs.x >= rhs.

    Raises RuntimeError before an elimination step would hold more than
    FM_ROW_CAP rows."""
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
        if len(rest) + len(lower) * len(upper) > FM_ROW_CAP:
            raise RuntimeError(f"Fourier-Motzkin elimination passed {FM_ROW_CAP} rows")
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


def _expanded_hole_system(hole, width):
    """Half-space rows of the outer parallel body {violation <= width}."""
    return [(h.normal, h.offset - width * _l1(h.normal)) for h in hole.halfspaces]


def collar_widths_by_fm(body: PolytopeWithHoles) -> tuple[Fraction, ...]:
    """A positive collar width per hole, halved until the expanded hole
    provably misses the outer boundary and every other hole."""
    outer = body.outer
    widths = []
    for k, hole in enumerate(body.holes):
        guess = min(value_by_fractions(h, v.point) / _l1(h.normal)
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


def collar_thresholds_by_lps(body: PolytopeWithHoles) -> tuple[tuple[Fraction, ...], ...]:
    """Per hole, the threshold of every obstacle, each outer facet's closed
    complement and then each other hole: the least t with violation(x) <= t
    at some x in it, one exact LP per obstacle, none skipped."""
    outside = [[((*(-c for c in h.normal), 0), -h.offset)] for h in body.outer.halfspaces]
    thresholds = []
    for k, hole in enumerate(body.holes):
        gauge = [((*h.normal, _l1(h.normal)), h.offset) for h in hole.halfspaces]
        others = [[((*h.normal, 0), h.offset) for h in other.halfspaces]
                  for j, other in enumerate(body.holes) if j != k]
        thresholds.append(tuple(_Dictionary(body.dim + 1, gauge + rows).least(body.dim)
                                for rows in outside + others))
    return tuple(thresholds)


def collar_widths_by_lps(body: PolytopeWithHoles, thresholds=None) -> tuple[Fraction, ...]:
    """A collar width per hole: the first guess, half the least Fraction
    clearance of a hole vertex from an outer facet, halved just below the
    least threshold of collar_thresholds_by_lps (or the thresholds given)."""
    widths = []
    for hole, least in zip(body.holes, map(min, thresholds or collar_thresholds_by_lps(body))):
        guess = min(value_by_fractions(h, v.point) / _l1(h.normal)
                    for h in body.outer.halfspaces for v in hole.vertices) / 2
        # the least power of two 2^j with guess / 2^j < least
        j = 0
        while guess / 2 ** j >= least:
            j += 1
        widths.append(guess / 2 ** j)
    return tuple(widths)


# ---------------------------------------------------------------------------
# basic-point enumeration


def _eliminate(rows: list[list[int]], width: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place.

    Pivots are taken in the first ``width`` columns, top to bottom, and
    every division is exact.  Afterwards the first r rows are the pivot
    rows; each holds the last pivot p at its own pivot column and 0 at the
    other pivot columns.  When those columns form a nonsingular square A,
    the row operations amount to multiplying by p A^-1, so any further
    columns B become p A^-1 B.  Returns r and p times the sign of the row
    swaps, which is det A in that case.
    """
    rank, sign, prev = 0, 1, 1
    for c in range(width):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
            sign = -sign
        top = rows[rank]
        pivot = top[c]
        for i, row in enumerate(rows):
            if i != rank:
                f = row[c]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
        rank += 1
    return rank, sign * prev


def solve_rational(a_rows, b) -> RatVector | None:
    """Solve the square rational system A x = b; None if A is singular."""
    n = len(a_rows)
    rows = [_integer_row([*row, rhs]) for row, rhs in zip(a_rows, b)]
    rank, _ = _eliminate(rows, n)
    if rank < n:
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(rows))


def rational_rank(rows) -> int:
    """Rank of a matrix given as an iterable of rational rows."""
    work = [_integer_row(row) for row in rows]
    rank, _ = _eliminate(work, len(work[0]) if work else 0)
    return rank


def _basic_points(dim, rows, equalities=()):
    """Yield (point, tight) for each point that satisfies every row
    (coeffs, rhs), coeffs . x >= rhs, and solves dim independent equations:
    the equalities and dim - len(equalities) of the rows.  ``tight`` holds
    the indices of the rows with equality there.  A pointed nonempty
    region has such a point, a vertex (Avis and Fukuda 1992)."""
    for subset in itertools.combinations(range(len(rows)), dim - len(equalities)):
        system = [rows[i] for i in subset] + list(equalities)
        point = solve_rational([c for c, _ in system], [r for _, r in system])
        if point is None:
            continue
        values = []
        for coeffs, rhs in rows:
            values.append(sum(c * x for c, x in zip(coeffs, point)) - rhs)
            if values[-1] < 0:
                break
        else:
            yield point, frozenset(i for i, v in enumerate(values) if v == 0)


def _pins(dim, normals):
    """Equalities x_j = 0 on coordinates that complete the rank of the
    normals.  They keep a region nonempty (its lineality space maps onto
    those coordinates) and make it pointed."""
    pins, rank = [], rational_rank(normals)
    for j in range(dim):
        unit = tuple(int(i == j) for i in range(dim))
        if rank < dim and rational_rank([*normals, *(c for c, _ in pins), unit]) > rank:
            pins.append((unit, 0))
            rank += 1
    return pins


def polygon_by_fractions(points) -> SimplePolytope:
    """Build a 2D polytope from a counter-clockwise strictly convex cycle,
    every step in Fraction arithmetic; facet i is the edge from point i to
    point i + 1."""
    pts = [rat_vector(p) for p in points]
    if len(pts) < 3:
        raise DimensionError("a polygon needs at least three vertices")
    if any(len(p) != 2 for p in pts):
        raise DimensionError("polygon vertices must be 2-dimensional")
    k = len(pts)
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:] + pts[:1])]
    turns = list(zip(steps, steps[1:] + steps[:1]))
    if (not all(t[0] * u[1] - t[1] * u[0] > 0 for t, u in turns)
            or sum((t[1], t[0]) < (0, 0) <= (u[1], u[0]) for t, u in turns) != 1):
        raise NotSimpleError("vertex cycle is not strictly convex counter-clockwise")
    normals = [primitive_part(_integer_row((-t[1], t[0]))) for t in steps]  # inward
    hs = [HalfSpace(n, n[0] * a[0] + n[1] * a[1]) for n, a in zip(normals, pts)]
    corners = [frozenset({(i - 1) % k, i}) for i in range(k)]  # point i's facets
    return _assemble(2, hs, dict(zip(corners, pts)))


def transformed_by_fractions(poly: SimplePolytope, scale, shift) -> SimplePolytope:
    """Uniformly scale by a positive rational, then translate, in Fraction
    arithmetic; normals and facet sets are kept."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    halfspaces = tuple(
        HalfSpace(h.normal, scale * h.offset + sum(n * s for n, s in zip(h.normal, shift)))
        for h in poly.halfspaces)
    vertices = tuple(Vertex(tuple(scale * x + s for x, s in zip(v.point, shift)), v.facets)
                     for v in poly.vertices)
    return SimplePolytope(poly.dim, halfspaces, vertices)


def build_by_enumeration(dim: int, halfspaces) -> SimplePolytope:
    """Enumerate the vertices of a simple polytope from half-spaces, and
    check that each has dim edges."""
    if dim < 2:
        raise DimensionError("dimension must be at least 2")
    hs = tuple(h if isinstance(h, HalfSpace)
               else HalfSpace(tuple(int(c) for c in h[0]), Fraction(h[1]))
               for h in halfspaces)
    for h in hs:
        if len(h.normal) != dim:
            raise DimensionError("normal length does not match dimension")

    normals = [h.normal for h in hs]
    pins = _pins(dim, normals)
    basic = list(_basic_points(dim, [(h.normal, h.offset) for h in hs], pins))
    if not basic:
        raise EmptyError("half-space system is infeasible")
    # With normals of full rank, each d != 0 with normal . d >= 0 has s . d > 0
    # for s their sum, so one exists iff an extreme ray meets s . d = 1.
    s = tuple(map(sum, zip(*normals)))
    if pins or next(_basic_points(dim, [(c, 0) for c in normals], [(s, 1)]), None):
        raise UnboundedError("half-space system is unbounded")

    vertices_by_facets: dict[frozenset[int], RatVector] = {}
    for point, active in basic:
        if len(active) > dim:
            raise NotSimpleError(
                f"point {tuple(map(str, point))} lies on {len(active)} facets")
        vertices_by_facets[active] = point

    items = sorted(vertices_by_facets.items(), key=lambda kv: kv[1])
    vertices = tuple(Vertex(pt, facets) for facets, pt in items)

    points = [v.point for v in vertices]
    base = points[0]
    if rational_rank([[p[d] - base[d] for d in range(dim)] for p in points[1:]]) != dim:
        raise NotSimpleError("vertices do not affinely span the ambient space")

    for i in range(len(hs)):
        if not any(i in v.facets for v in vertices):
            raise RedundantFacetError(f"facet {i} supports no vertex")

    edge_map: dict[frozenset[int], set[int]] = {}
    for vid, v in enumerate(vertices):
        for subset in itertools.combinations(sorted(v.facets), dim - 1):
            edge_map.setdefault(frozenset(subset), set()).add(vid)
    for facets, vids in sorted(edge_map.items(), key=lambda kv: sorted(kv[0])):
        if len(vids) != 2:
            raise NotSimpleError(
                f"facet set {sorted(facets)} is shared by {len(vids)} vertices")
    poly = SimplePolytope(dim, hs, vertices)
    ends = [end for pair, _ in edges_of(poly) for end in pair]
    for vid in range(len(vertices)):
        if ends.count(vid) != dim:
            raise NotSimpleError(f"vertex {vid} does not have {dim} edges")
    return poly


def edges_of(poly: SimplePolytope):
    """The edges of a simple polytope as ((a, b), facets), a < b: each pair of
    vertices that share dim - 1 facets, with those facets."""
    verts = poly.vertices
    return [((a, b), shared) for a, b in itertools.combinations(range(len(verts)), 2)
            if len(shared := verts[a].facets & verts[b].facets) == poly.dim - 1]


# ---------------------------------------------------------------------------
# edge-direction route to vertex frames


def edge_directions_at_vertex(body: PolytopeWithHoles, vid: int):
    """For each facet F through the vertex, the direction of the unique
    edge through the vertex not contained in F (pointing away from it).

    Directions are computed inside the component owning the vertex and
    returned as (global facet id, direction) sorted by facet id.
    """
    ci = body.global_vertices()[vid].component
    li = vid - body.vertex_offsets[ci]
    comp = body.components[ci]
    vertex = comp.vertices[li]
    out = []
    edges = edges_of(comp)
    for f in sorted(vertex.facets):
        others = frozenset(vertex.facets - {f})
        ends = next(pair for pair, facets in edges if facets == others)
        other_end = ends[0] if ends[1] == li else ends[1]
        target = comp.vertices[other_end].point
        direction = tuple(t - s for t, s in zip(target, vertex.point))
        out.append((body.facet_offsets[ci] + f, direction))
    return out


def det_sign_columns(columns) -> int:
    """Sign of the determinant of a square matrix of rational columns.

    Each column is scaled by a positive rational to clear denominators,
    which cannot change the sign.
    """
    scaled = [_integer_row(col) for col in columns]
    d = det_exact(transpose(scaled))
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
    return det_exact(transpose([pair.lam[f] for f in frame_order_by_edges(pair.body, vid)]))


# ---------------------------------------------------------------------------
# intersection forms by relation solving and congruence


def pairing_by_relations(pair: CharacteristicPair, comp_index: int,
                           start_local: int | None = None):
    """Full pairing matrix of the characteristic sphere classes of one
    component, in its cyclic facet order.

    Adjacent classes pair to the sign of the shared vertex; non-adjacent
    ones to zero; the diagonal is forced by the relations
    sum_i lambda_i^(t) (x_i . x_j) = 0 for t = 1, 2.
    """
    body = pair.body
    comp = body.components[comp_index]
    vcycle, fcycle = _cycle(comp, start_local)
    signs = all_signs(pair)
    csigns = [signs[body.vertex_offsets[comp_index] + v] for v in vcycle]
    lam = [pair.lam[body.facet_offsets[comp_index] + f] for f in fcycle]
    l = len(fcycle)

    # the CCW cycle convention makes sigma(v_i) = det[lambda_{i-1}, lambda_i]
    for i in range(l):
        prev = lam[(i - 1) % l]
        cur = lam[i]
        if csigns[i] != prev[0] * cur[1] - prev[1] * cur[0]:
            raise InternalError(f"component {comp_index} vertex {vcycle[i]}: sign is not "
                                "det[lambda_(i-1), lambda_i]")

    q = [[0] * l for _ in range(l)]
    for i in range(l):
        j = (i + 1) % l
        q[i][j] = q[j][i] = csigns[j] if j != 0 else csigns[0]
    for j in range(l):
        rhs = [-sum(lam[i][t] * q[i][j] for i in range(l) if i != j) for t in (0, 1)]
        t_star = 0 if lam[j][0] != 0 else 1
        value = Fraction(rhs[t_star], lam[j][t_star])
        if value.denominator != 1:
            raise InternalError("self-intersection must be integral")
        other = 1 - t_star
        if lam[j][other] * value != rhs[other]:
            raise InternalError("relation solve inconsistent")
        q[j][j] = int(value)
    return q, vcycle, fcycle


def quasitoric_form_by_blocks(pair: CharacteristicPair) -> IntersectionData:
    """Intersection form of a quasitoric (s = 0) pair on the kept basis.

    The two classes dropped to reach a basis of H_2 are the last two facets
    of the cyclic numbering, whose 2-cells are absorbed into the CW
    structure's top cells.
    """
    dim4._require_dim2(pair)
    if pair.body.hole_count != 0:
        raise ScopeError("quasitoric form needs a body without holes")
    q, _, fcycle = dim4._component_pairing(pair, 0)
    l = len(fcycle)
    kept = list(range(l - 2))
    matrix = tuple(tuple(q[i][j] for j in kept) for i in kept)
    generators = tuple(("facet", fcycle[i]) for i in kept)  # outer ids are global
    return IntersectionData(generators, matrix, None)


def one_hole_form_by_blocks(pair: CharacteristicPair) -> IntersectionData:
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
    dim4._require_dim2(pair)
    if pair.body.hole_count != 1:
        raise ScopeError("one-hole matrix needs exactly one hole")
    body = pair.body
    v1, u1 = dim4._closest_vertex_pair(body)
    q0, vcyc0, fcyc0 = dim4._component_pairing(pair, 0, start_local=v1)
    q1, vcyc1, fcyc1 = dim4._component_pairing(pair, 1, start_local=u1)
    l0, l1 = len(fcyc0), len(fcyc1)
    signs = all_signs(pair)

    fo, vo = body.facet_offsets[1], body.vertex_offsets[1]  # outer ids are global
    lam0_first = pair.lam[fcyc0[0]]
    lam0_last = pair.lam[fcyc0[-1]]
    lam1_first = pair.lam[fo + fcyc1[0]]
    lam1_last = pair.lam[fo + fcyc1[-1]]
    d = signs[vcyc0[0]]
    dp = signs[vo + vcyc1[0]]

    def coefficients(target, first, last):
        # integer (x1, x2) with target = x1 first + x2 last, by Bareiss
        x = solve_rational(tuple(zip(first, last)), target)
        if x is None or any(c.denominator != 1 for c in x):
            raise InternalError("endpoint vectors are not a lattice basis")
        return int(x[0]), int(x[1])

    a1, a2 = coefficients((0, 1), lam0_first, lam0_last)
    c1, c2 = coefficients((1, 0), lam0_first, lam0_last)
    b1, b2 = coefficients((0, 1), lam1_first, lam1_last)
    e1, e2 = coefficients((1, 0), lam1_first, lam1_last)

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

    generators = tuple(("facet", fcyc0[i]) for i in range(l0 - 2))
    generators += (("circle", "(0,1)"), ("circle", "(1,0)"))
    generators += tuple(("facet", fo + f) for f in fcyc1)
    return IntersectionData(generators, tuple(map(tuple, mat)), 1)


def det_by_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix by dense Bareiss elimination."""
    if any(len(row) != len(rows) for row in rows):
        raise DimensionError("determinant of a non-square matrix")
    rank, det = _eliminate([list(row) for row in rows], len(rows))
    return det if rank == len(rows) else 0


def closest_vertex_pair_by_fractions(body) -> tuple[int, int]:
    """Outer/hole local vertex ids minimizing (squared distance, outer point,
    hole point), all in Fraction."""
    best = None
    for vi, v in enumerate(body.outer.vertices):
        for ui, u in enumerate(body.holes[0].vertices):
            d2 = sum((a - b) ** 2 for a, b in zip(v.point, u.point))
            key = (d2, v.point, u.point)
            if best is None or key < best[0]:
                best = (key, vi, ui)
    return best[1], best[2]


def signature_of_matrix(m) -> int:
    """Signature of a symmetric integer matrix, given by its rows, by exact
    congruence diagonalization over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                for r in a:
                    r[k], r[swap] = r[swap], r[k]
                a[k], a[swap] = a[swap], a[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    continue  # remaining block is zero in this row/column
                # congruence e_k <- e_k + e_j gives diagonal entry 2 a[k][j]
                for r in a:
                    r[k] += r[j]
                a[k] = [x + y for x, y in zip(a[k], a[j])]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                for r in a:
                    r[i] -= f * r[k]
    return pos - neg


# ---------------------------------------------------------------------------
# lookups without a library caller


def is_generic(pair: CharacteristicPair, nu) -> bool:
    """Whether nu pairs nonzero with every edge covector of every vertex."""
    return all(sum(a * b for a, b in zip(mu, nu)) != 0
               for gv in pair.body.global_vertices() for mu in vertex_frame(pair, gv.gid).mu)


def generic_directions_by_scan(pair: CharacteristicPair, count: int) -> list[tuple[int, ...]]:
    """The first ``count`` primitive directions, by increasing max-norm then
    lexicographic order, that ``is_generic`` accepts."""
    found = []
    for bound in itertools.count(1):
        for cand in itertools.product(range(-bound, bound + 1), repeat=pair.body.dim):
            if max(abs(c) for c in cand) == bound and is_primitive(cand) and is_generic(pair, cand):
                found.append(cand)
                if len(found) == count:
                    return found


def facet_location(body: PolytopeWithHoles, gid: int) -> tuple[int, int]:
    """(component, local id) of a global facet id."""
    local = gid
    for c, comp in enumerate(body.components):
        if 0 <= local < comp.facet_count:
            return c, local
        local -= comp.facet_count
    raise KeyError(f"facet id {gid} out of range")


def hole_coordinates(chart, point) -> tuple[Fraction, ...]:
    """The auxiliary coordinates p_(n+1) ... p_(n+s) of a point: per hole,
    max(0, 1 - depth / width), where the depth is the largest violation
    -h(x) / |normal|_1 of a hole facet h, 0 exactly on the hole boundary."""
    return tuple(
        max(Fraction(0), 1 - max(-value_by_fractions(h, point) / sum(map(abs, h.normal))
                                 for h in hole.halfspaces) / width)
        for hole, width in zip(chart.body.holes, chart.collar_widths))


def evaluate_by_fractions(chart: EmbeddingChart, point) -> tuple[Fraction, ...]:
    """The facet coordinates of ``EmbeddingChart.evaluate`` in Fraction
    arithmetic: each facet value h(x) from ``value_by_fractions``, the hole
    coordinates p_k from ``hole_coordinates``, their sum t, then h(x) + t on
    an outer facet and h(x) + c a_k + (a_k + t - p_k) on a facet of hole k,
    with a_k = 1 - p_k and c the facet's padding constant."""
    point = rat_vector(point)
    body = chart.body
    if len(point) != body.dim:
        raise DimensionError(f"point needs {body.dim} coordinates, got {len(point)}")
    values = [[value_by_fractions(h, point) for h in c.halfspaces] for c in body.components]
    if min(values[0]) < 0:
        raise DomainError(f"point {tuple(map(str, point))} is outside the outer body")
    for k, vals in enumerate(values[1:], start=1):
        if min(vals) > 0:
            raise DomainError(
                f"point {tuple(map(str, point))} is in the open interior of hole {k}")
    p_hole = hole_coordinates(chart, point)
    total_hole = sum(p_hole)
    out = [v + total_hole for v in values[0]]
    constants = iter(chart.hole_constants)
    for vals, p_k in zip(values[1:], p_hole):
        a_k = 1 - p_k
        shift = a_k + total_hole - p_k  # a_k plus the other holes' coordinates
        out.extend(v + next(constants) * a_k + shift for v in vals)
    return tuple(out)


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
    lam = list(pair.lam)
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
        h = rng.choice([x for x in range(len(lam)) if x != f])
        lam[f] = tuple(a + 2 * b for a, b in zip(lam[g], lam[h]))
    elif how == "sublattice":
        # every vector into the index-2 sublattice: the kernel torus can
        # still act freely although the pair is not characteristic
        lam = [v[:-1] + (2 * v[-1],) for v in lam]
    return CharacteristicPair(pair.body, lam)


@functools.lru_cache(maxsize=None)
def _candidate_pool(seed: int, per_family: int):
    """(family, corruption, body, lam) per candidate; bodies and lam are immutable."""
    rng = random.Random(seed)
    pool = []
    for family, generate in FAMILIES:
        for i in range(per_family):
            how = CORRUPTIONS[i % len(CORRUPTIONS)]
            pair = _corrupt(rng, generate(rng), how)
            pool.append((family, how, pair.body, pair.lam))
    return tuple(pool)


def candidates(seed: int, per_family: int = 64):
    """Yield (family, corruption, pair) over every family and corruption,
    ``per_family`` pairs per family, none of them validated yet.  The bodies
    and lambda are built once per (seed, per_family); every call yields new
    pairs on them, so no validation or vertex frame carries over."""
    for family, how, body, lam in _candidate_pool(seed, per_family):
        yield family, how, CharacteristicPair(body, lam)


# ---------------------------------------------------------------------------
# report JSON by the standard library


def render_json_by_dumps(report) -> str:
    """The canonical report bytes: sorted keys, two-space indent, a newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
