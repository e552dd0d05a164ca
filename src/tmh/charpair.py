"""Characteristic functions on polytopes with holes.

A characteristic pair couples the body with one primitive integer vector
per facet subject to the direct-summand condition: the vectors of any k
facets meeting in a face must span a rank-k direct summand of Z^n.  On a
simple polytope every face is cut out by a subset of some vertex's n
facets, and any subset of a basis of Z^n spans a direct summand.  So,
given primitivity, the condition holds exactly when the vertex matrix L_v
of those n vectors has |det L_v| = 1 at every vertex (Davis-Januszkiewicz,
condition (*)).  Facet subsets are searched only at the first vertex that
fails, to name the smallest offending face.

The sign sigma(v) compares the orientation that the ordered facets induce
at v with det L_v.  Let N_v have as rows the inward normals of the facets
at v, in ascending id, from the component that owns v.  The edge leaving
facet i_k is a positive multiple of column k of N_v^-1, so the frame order
is ascending with the last two facets swapped iff det N_v < 0, and
sigma(v) = sgn det N_v * det L_v with the columns of L_v ascending.

Pairs are immutable, so the validation report, det L_v per vertex and
each vertex frame (facet order, sign, L_v and mu = L_v^-1) are kept on the
pair once built.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

from .errors import NotValidatedError
from .exactlin import det_exact, int_vector, is_primitive, smith_normal_form, unimodular_inverse
from .polytope import PolytopeWithHoles
from .value import Value


class CharacteristicPair(Value):
    __slots__ = ("body", "lam", "_cache")

    def __init__(self, body: PolytopeWithHoles, lam):
        # lam[f] is facet f's vector: lam is a mapping keyed 0 ... m-1 or a sequence of m
        n, m = body.dim, body.facet_count
        keys = lam.keys() if isinstance(lam, Mapping) else range(len(lam))
        if set(keys) != set(range(m)):
            raise KeyError("characteristic map must cover every facet exactly once")
        lam = tuple(int_vector(lam[f]) for f in range(m))
        for fid, vec in enumerate(lam):
            if len(vec) != n:
                raise KeyError(f"facet {fid}: vector length {len(vec)} != {n}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "lam", lam)  # facet vectors in global facet order
        # the validation report, det L_v and the vertex frames; they depend on body and lam only
        object.__setattr__(self, "_cache", {"report": None, "dets": None, "frames": {}})

    @property
    def validated(self) -> bool:
        """Whether validate() has been run on this pair and accepted it."""
        report = self._cache["report"]
        return report is not None and report.ok


class ValidationReport(Value):
    # kind is "primitivity" or "summand"; facets are global ids
    __slots__ = ("ok", "kind", "facets", "message")


class VertexFrame(Value):
    __slots__ = ("vertex", "facet_order", "lambda_v", "sign", "mu")

    def __init__(self, vertex: int, facet_order: tuple[int, ...],
                 lambda_v: tuple[tuple[int, ...], ...], sign: int,
                 mu: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "facet_order", facet_order)  # global facet ids i_1 ... i_n
        object.__setattr__(self, "lambda_v", lambda_v)  # rows of L_v = [lambda_i_1 ... lambda_i_n]
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "mu", mu)  # rows of L_v^-1, one covector per facet


def vertex_determinants(pair: CharacteristicPair) -> dict[int, int]:
    """det L_v with the facets in ascending id, for every vertex in global
    vertex order, as det of the lambda vectors taken as rows (det L_v^T).
    Needs no validation; kept on the pair once computed."""
    if pair._cache["dets"] is None:
        pair._cache["dets"] = {gv.gid: det_exact([pair.lam[f] for f in sorted(gv.facets)])
                               for gv in pair.body.global_vertices()}
    return pair._cache["dets"]


def validate(pair: CharacteristicPair) -> ValidationReport:
    """Check primitivity and the direct-summand condition on every face.

    The report is kept on the pair, which counts as validated if it is ok.
    A rejection names the first non-primitive facet, else the first failing
    face in vertex order, then by size, then lexicographically.
    """
    if pair._cache["report"] is None:
        pair._cache["report"] = _check(pair)
    return pair._cache["report"]


def _check(pair: CharacteristicPair) -> ValidationReport:
    for fid in range(pair.body.facet_count):
        vec = pair.lam[fid]
        if not is_primitive(vec):
            return ValidationReport(
                False, "primitivity", (fid,),
                f"facet {fid}: vector {vec} is not primitive")
    dets = vertex_determinants(pair)
    for gv in pair.body.global_vertices():
        if abs(dets[gv.gid]) == 1:
            continue
        # faces of earlier vertices all passed, and so did single facets;
        # the lambda vectors as rows have the Smith form of their columns
        for k in range(2, pair.body.dim + 1):
            for subset in itertools.combinations(sorted(gv.facets), k):
                divisors, rank = smith_normal_form([pair.lam[f] for f in subset])
                if rank != k or any(d != 1 for d in divisors):
                    return ValidationReport(
                        False, "summand", subset,
                        f"face {subset}: span is not a rank-{k} direct summand "
                        f"(divisors {list(divisors)}, rank {rank})")
    return ValidationReport(True, None, (), "valid")


def _oriented_facets(body: PolytopeWithHoles, vid: int) -> tuple[list[int], int]:
    """The facets at the vertex in frame order, and sgn det N_v."""
    if not 0 <= vid < body.vertex_count:
        raise KeyError(f"vertex id {vid} out of range")
    gv = body.global_vertices()[vid]
    halfspaces, offset = body.components[gv.component].halfspaces, body.facet_offsets[gv.component]
    order = sorted(gv.facets)  # global ids, ascending as the local ones are
    if det_exact([halfspaces[f - offset].normal for f in order]) > 0:
        return order, 1
    order[-1], order[-2] = order[-2], order[-1]
    return order, -1


def vertex_frame(pair: CharacteristicPair, vid: int) -> VertexFrame:
    """Facet order, sign and edge covectors at one vertex.

    The facets are taken in ascending global id, the last two swapped iff
    det N_v < 0, which makes the edges leaving them a positive basis; then
    sigma(v) = sgn det N_v * det L_v, with L_v's columns ascending.  Each
    frame is built on first use and kept on the pair.  A kept frame is
    returned before validation is checked: frames are kept only once the
    pair has passed validation, and a copy or pickle starts with no frames.
    """
    frames = pair._cache["frames"]
    if vid in frames:
        return frames[vid]
    if not pair.validated:
        raise NotValidatedError("characteristic pair has not been validated")
    order, orientation = _oriented_facets(pair.body, vid)
    lambda_v = tuple(zip(*(pair.lam[f] for f in order)))
    frames[vid] = VertexFrame(vid, tuple(order), lambda_v,
                              orientation * vertex_determinants(pair)[vid],
                              unimodular_inverse(lambda_v))
    return frames[vid]


def all_signs(pair: CharacteristicPair) -> dict[int, int]:
    """sigma(v) for every vertex of every component, keyed by vertex id."""
    return {gv.gid: vertex_frame(pair, gv.gid).sign
            for gv in pair.body.global_vertices()}


def is_positive_omniorientation(pair: CharacteristicPair) -> bool:
    """True when every vertex sign is +1; this is also the criterion for an
    invariant almost complex structure on the associated manifold."""
    return all(s == 1 for s in all_signs(pair).values())
