"""Edge vectors, generic circle directions, vertex indices and the chi_y
genus with its specializations.

At a vertex v with facet matrix L_v, the edge covectors mu_1 ... mu_n are
the rows of L_v^{-1}: mu_k pairs to 1 with the k-th facet vector and to 0
with the others, which is exactly the sign normalization M_v^t L_v = I.
The genus of the whole pair is the sum over vertices of
(-y)^{index} * sign, evaluated with any direction nu that pairs to a
nonzero integer with every edge covector.  The covectors repeat across
vertices (an edge gives one at each end, equal up to sign), so the search
for such a direction tests each distinct covector once.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd

from .charpair import CharacteristicPair, all_signs, vertex_frame
from .errors import DimensionError, GenericityError
from .exactlin import int_vector
from .value import Value


class ChiYPolynomial(Value):
    """chi_y = sum c_j y^j with integer coefficients c_0 ... c_n."""

    __slots__ = ("coefficients", "nu")

    def evaluate(self, y: int) -> int:
        return sum(c * y**j for j, c in enumerate(self.coefficients))

    @property
    def top_chern(self) -> int:
        """chi_{-1}, the top Chern number (sum of vertex signs)."""
        return self.evaluate(-1)

    @property
    def signature(self) -> int:
        """chi_1."""
        return self.evaluate(1)

    @property
    def todd(self) -> int:
        """The constant coefficient."""
        return self.coefficients[0]


def _direction(pair: CharacteristicPair, nu) -> tuple[int, ...]:
    """nu as an integer tuple of the body's dimension."""
    nu = int_vector(nu)
    if len(nu) != pair.body.dim:
        raise DimensionError(f"direction {nu} needs {pair.body.dim} entries")
    return nu


def find_generic_nu(pair: CharacteristicPair) -> tuple[int, ...]:
    """First primitive direction, by increasing max-norm then lexicographic
    order, that pairs nonzero with every edge vector of every vertex.  The
    covectors are collected into a set, so each distinct one is tested once."""
    covectors = {m for gv in pair.body.global_vertices() for m in vertex_frame(pair, gv.gid).mu}
    n = pair.body.dim
    for bound in itertools.count(1):
        for cand in itertools.product(range(-bound, bound + 1), repeat=n):
            if (max(map(abs, cand)) == bound and gcd(*cand) == 1
                    and all(sum(map(operator.mul, m, cand)) for m in covectors)):
                return cand


def vertex_index(pair: CharacteristicPair, vid: int, nu) -> int:
    """Number of negative weights mu_k(nu) at the vertex."""
    return _index(pair, vid, _direction(pair, nu))


def _index(pair: CharacteristicPair, vid: int, nu: tuple[int, ...]) -> int:
    """vertex_index for a checked direction."""
    index = 0
    for m in vertex_frame(pair, vid).mu:
        w = sum(map(operator.mul, m, nu))
        if w == 0:
            raise GenericityError(
                f"direction {nu} pairs to zero with edge vector {m} "
                f"at vertex {vid}", vertex=vid, edge_vector=m)
        if w < 0:
            index += 1
    return index


def chi_y(pair: CharacteristicPair, nu=None) -> ChiYPolynomial:
    """Genus polynomial; finds a generic direction when none is supplied.

    Coefficient j collects (-1)^j * sign over the vertices of index j, so
    evaluation at -1 gives the sign sum, at 1 the signature, and the
    constant term is the Todd genus.  nu is checked once; each vertex's
    index is read off its kept frame.
    """
    signs = all_signs(pair)
    nu = find_generic_nu(pair) if nu is None else _direction(pair, nu)
    n = pair.body.dim
    coeffs = [0] * (n + 1)
    for vid in sorted(signs):
        j = _index(pair, vid, nu)
        coeffs[j] += (-1) ** j * signs[vid]
    return ChiYPolynomial(tuple(coeffs), nu)
