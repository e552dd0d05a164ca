"""Independent reference routes, kept for tests only.

``validate_by_faces`` runs the Smith normal form of every face of every
vertex, and ``freeness_by_kernel`` tests unimodularity of the m x m matrix
[kernel basis | coordinate columns] at every vertex.  The library
answers the same questions from |det L_v| (tmh.charpair, tmh.mac); the
tests require both routes to agree on ``candidates``, a seeded pool of
valid and corrupted pairs.
"""

import itertools
import random

from tmh.charpair import CharacteristicPair, ValidationReport
from tmh.exactlin import (
    IntMatrix,
    det_exact,
    is_primitive,
    kernel_lattice_basis,
    smith_normal_form,
)

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
