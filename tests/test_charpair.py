import ast
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tmh
from tmh.charpair import (
    CharacteristicPair,
    _oriented_facets,
    all_signs,
    is_positive_omniorientation,
    validate,
    vertex_frame,
)
from tmh.dim4 import intersection_form
from tmh.errors import NotValidatedError
from tmh.genus import chi_y, vertex_index
from tmh.mac import embedding_chart, kernel_data
from tmh.polytope import build_with_holes, polygon_from_vertices

from counting import count_calls
from golden_corpus import SPECS
from matrices import transpose
from oracles import (
    candidates,
    det_sign_columns,
    edge_directions_at_vertex,
    frame_order_by_edges,
    sign_by_edges,
    validate_by_faces,
)
from instances import (
    cp2_triangle,
    pair_from_components,
    pentagon_y,
    random_one_hole_2d,
    random_quasitoric_2d,
    random_quasitoric_3d,
    square_in_square,
    validated,
)


def vertex_at(pair, point):
    return next(v.gid for v in pair.body.global_vertices() if v.point == point)


class TestValidate:
    def test_cp2_valid(self):
        report = validate(cp2_triangle())
        assert report.ok

    def test_adjacent_equal_vectors_rejected(self):
        outer = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
        pair = pair_from_components(outer, [], [[(1, 0), (1, 0), (-1, 0), (0, -1)]])
        report = validate(pair)
        assert not report.ok
        assert report.kind == "summand"
        assert set(report.facets) == {0, 1}

    def test_non_primitive_rejected(self):
        outer = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
        pair = pair_from_components(outer, [], [[(2, 0), (0, 1), (-1, 0), (0, -1)]])
        report = validate(pair)
        assert not report.ok
        assert report.kind == "primitivity"
        assert report.facets == (0,)

    def test_validation_covers_hole_facets(self):
        pair = square_in_square()
        bad = list(pair.lam)
        bad[5] = bad[4]  # two adjacent hole facets share a vector
        report = validate(CharacteristicPair(pair.body, bad))
        assert not report.ok and report.kind == "summand"

    def test_3d_instances_valid(self):
        rng = random.Random(5)
        for _ in range(10):
            pair = random_quasitoric_3d(rng)
            assert pair.validated


class TestVertexFrame:
    def test_cp2_origin(self):
        pair = validated(cp2_triangle())
        frame = vertex_frame(pair, vertex_at(pair, (0, 0)))
        # positive order puts {x=0} (facet 1) before {y=0} (facet 0)
        assert frame.facet_order == (1, 0)
        assert frame.lambda_v == transpose([(1, 0), (0, 1)])
        assert frame.sign == 1

    def test_cp2_vertex_10(self):
        pair = validated(cp2_triangle())
        frame = vertex_frame(pair, vertex_at(pair, (1, 0)))
        assert frame.lambda_v == transpose([(0, 1), (-1, -1)])
        assert frame.sign == 1

    def test_cp2_vertex_01(self):
        pair = validated(cp2_triangle())
        frame = vertex_frame(pair, vertex_at(pair, (0, 1)))
        assert frame.sign == 1

    def test_requires_validation(self):
        pair = cp2_triangle()
        with pytest.raises(NotValidatedError):
            vertex_frame(pair, 0)

    def test_vertex_ids_out_of_range_raise(self):
        # a square with a square hole has 8 vertices; -1 must not frame the last one
        pair = validated(square_in_square())
        all_signs(pair)  # every frame kept, so the lookups below miss the cache only
        for vid in (-1, pair.body.vertex_count):
            with pytest.raises(KeyError, match="out of range"):
                vertex_frame(pair, vid)
            with pytest.raises(KeyError, match="out of range"):
                vertex_index(pair, vid, (1, 2))

    def test_positive_direction_basis(self):
        rng = random.Random(31)
        for _ in range(8):
            pair = random_quasitoric_2d(rng)
            for gv in pair.body.global_vertices():
                frame = vertex_frame(pair, gv.gid)
                dirs = dict(edge_directions_at_vertex(pair.body, gv.gid))
                assert det_sign_columns([dirs[f] for f in frame.facet_order]) > 0


class TestEdgeRouteAgreement:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_frame_order_and_sign_match_edge_route(self, seed):
        families = set()
        for family, _, candidate in candidates(seed):
            valid = validate(candidate).ok
            for gv in candidate.body.global_vertices():
                order, _ = _oriented_facets(candidate.body, gv.gid)
                assert tuple(order) == frame_order_by_edges(candidate.body, gv.gid)
                if valid:
                    assert vertex_frame(candidate, gv.gid).sign == sign_by_edges(candidate, gv.gid)
                    families.add(family)
        assert families == {"2d", "2d-one-hole", "2d-two-holes", "3d", "3d-one-hole"}


class TestSigns:
    def test_cp2_all_plus_one(self):
        pair = validated(cp2_triangle())
        assert set(all_signs(pair).values()) == {1}

    def test_pentagon_y_all_plus_one(self):
        pair = validated(pentagon_y())
        signs = all_signs(pair)
        assert len(signs) == 5
        assert set(signs.values()) == {1}

    def test_flip_one_vector_flips_exactly_its_facet_vertices(self):
        rng = random.Random(41)
        for _ in range(6):
            pair = random_quasitoric_2d(rng)
            before = all_signs(pair)
            fid = rng.randrange(pair.body.facet_count)
            flipped = list(pair.lam)
            flipped[fid] = tuple(-c for c in flipped[fid])
            pair2 = validated(CharacteristicPair(pair.body, flipped))
            after = all_signs(pair2)
            for gv in pair.body.global_vertices():
                if fid in gv.facets:
                    assert after[gv.gid] == -before[gv.gid]
                else:
                    assert after[gv.gid] == before[gv.gid]

    def test_sign_sum_invariant_under_scaling_and_translation(self):
        pair = validated(pentagon_y())
        total = sum(all_signs(pair).values())
        moved = pair.body.outer.transformed(Fraction(3, 2), (Fraction(7), Fraction(-2)))
        moved_pair = validated(
            CharacteristicPair(build_with_holes(moved, []), pair.lam))
        assert sum(all_signs(moved_pair).values()) == total

    def test_sign_sum_invariant_under_relabeling(self):
        # rotate the facet cycle of the pentagon: same body, shifted labels
        from instances import PENTAGON_LAMBDA, PENTAGON_VERTICES

        base = validated(pentagon_y())
        total = sum(all_signs(base).values())
        verts = PENTAGON_VERTICES[2:] + PENTAGON_VERTICES[:2]
        lam = PENTAGON_LAMBDA[2:] + PENTAGON_LAMBDA[:2]
        rotated = validated(pair_from_components(
            polygon_from_vertices(verts), [], [lam]))
        assert sum(all_signs(rotated).values()) == total

    def test_hole_vertices_counted(self):
        pair = square_in_square()
        validate(pair)
        assert len(all_signs(pair)) == 8


class TestPositiveOmniorientation:
    def test_pentagon(self):
        assert is_positive_omniorientation(validated(pentagon_y()))

    def test_cp2(self):
        assert is_positive_omniorientation(validated(cp2_triangle()))

    def test_negated_facet_breaks_it(self):
        pair = validated(cp2_triangle())
        lam = list(pair.lam)
        lam[1] = (-1, 0)
        pair2 = validated(CharacteristicPair(pair.body, lam))
        assert not is_positive_omniorientation(pair2)


class TestShortcutAgreement:
    def test_matches_snf_on_valid_and_corrupted(self):
        for _, _, candidate in candidates(59):
            assert validate(candidate) == validate_by_faces(candidate)


class TestImmutablePair:
    def test_candidates_are_fresh_on_every_call(self):
        # the pool shares bodies and lambda between calls, never pairs
        first = list(candidates(0))
        assert validate(first[0][2]).ok and first[0][2].validated
        again = list(candidates(0))
        assert again == first
        for (_, _, a), (_, _, b) in zip(first, again):
            assert a is not b and not b.validated

    def test_lam_entries_are_read_only(self):
        pair = validated(pentagon_y())
        with pytest.raises(TypeError):
            pair.lam[0] = (1, 2)
        assert pair.lam[0] == (1, 0)

    def test_fields_cannot_be_rebound(self):
        pair = validated(pentagon_y())
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.lam = tuple((1, 2) for _ in pair.lam)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.validated = False
        assert pair.validated

    @pytest.mark.parametrize("build", [cp2_triangle, square_in_square,
                                       lambda: random_one_hole_2d(random.Random(19))],
                             ids=["cp2", "square_in_square", "one_hole_seed19"])
    def test_value_types_are_equal_and_hash_equal(self, build):
        def values(pair):
            return (vertex_frame(pair, 0), kernel_data(pair), intersection_form(pair),
                    embedding_chart(pair), chi_y(pair))

        first, second = validated(build()), validated(build())
        assert first == second and first is not second
        assert hash(first) == hash(second) and {first: 1}[second] == 1
        other = CharacteristicPair(first.body, [tuple(-c for c in v) for v in first.lam])
        assert other != first and len({first, second, other}) == 2
        for a, b in zip(values(first), values(second)):
            assert a is not b
            assert a == b
            assert hash(a) == hash(b)
        chart = embedding_chart(first)
        if chart.hole_constants:
            with pytest.raises(TypeError):
                chart.hole_constants[0] = 0

    def test_signs_stay_unimodular_under_optimisation(self):
        # asserts are stripped under -O, so the child prints the signs and
        # this process checks them
        script = (
            "from instances import pentagon_y\n"
            "from tmh.charpair import all_signs, validate\n"
            "pair = pentagon_y()\n"
            "validate(pair)\n"
            "try:\n"
            "    pair.lam[0] = (1, 2)\n"
            "except TypeError:\n"
            "    pass\n"
            "print(sorted(set(all_signs(pair).values())))\n")
        path = os.pathsep.join([str(Path(tmh.__file__).parent.parent),
                                str(Path(__file__).parent)])
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert set(ast.literal_eval(proc.stdout)) <= {1, -1}


CP2_LAMBDA = [(0, 1), (1, 0), (-1, -1)]
COVER = "characteristic map must cover every facet exactly once"


class TestLambdaInput:
    def test_dict_list_and_tuple_give_one_pair(self):
        body = cp2_triangle().body
        pairs = [CharacteristicPair(body, dict(enumerate(CP2_LAMBDA))),
                 CharacteristicPair(body, {2: (-1, -1), 0: (0, 1), 1: (1, 0)}),
                 CharacteristicPair(body, CP2_LAMBDA),
                 CharacteristicPair(body, tuple(CP2_LAMBDA))]
        for pair in pairs:
            assert type(pair.lam) is tuple and pair.lam == tuple(CP2_LAMBDA)
            assert pair == pairs[0] and hash(pair) == hash(pairs[0])
            again = pickle.loads(pickle.dumps(pair))
            assert again == pairs[0] and hash(again) == hash(pairs[0])
            assert validate(pair).ok

    @pytest.mark.parametrize("lam", [
        {0: (0, 1), 1: (1, 0)},
        {0: (0, 1), 1: (1, 0), 2: (-1, -1), 3: (1, 1)},
        {0: (0, 1), 1: (1, 0), -1: (-1, -1)},
        CP2_LAMBDA[:2],
        CP2_LAMBDA + [(1, 1)],
    ], ids=["dict-missing", "dict-extra", "dict-wrong-key", "list-short", "list-long"])
    def test_missing_or_extra_facet(self, lam):
        with pytest.raises(KeyError, match=COVER):
            CharacteristicPair(cp2_triangle().body, lam)

    def test_non_integer_entries_are_refused(self):
        body = cp2_triangle().body
        with pytest.raises(ValueError, match="3/2 is not an integer"):
            CharacteristicPair(body, {0: (0, 1), 1: (Fraction(3, 2), 0), 2: (-1.7, -1)})
        with pytest.raises(ValueError, match="-1.7 is not an integer"):
            CharacteristicPair(body, [(0, 1), (1, 0), (-1.7, -1)])
        pair = CharacteristicPair(body, [(0, Fraction(1)), (1, 0), (Fraction(-2, 2), -1)])
        assert pair.lam == tuple(CP2_LAMBDA)
        assert {type(c) for vec in pair.lam for c in vec} == {int}


class TestFramesOnce:
    @staticmethod
    def report_calls(monkeypatch, spec):
        """det_exact and unimodular_inverse calls of build_report on a golden spec."""
        from tmh.cli import build_report, parse_spec

        calls = count_calls(monkeypatch, ("unimodular_inverse", "det_exact"))
        build_report(parse_spec(str(SPECS / spec)))
        return calls

    def test_pentagon_report_builds_each_frame_once(self, monkeypatch):
        # det_exact: det L_v and det N_v per vertex, and the intersection form
        assert self.report_calls(monkeypatch, "pentagon.json") == {"unimodular_inverse": 5,
                                                                    "det_exact": 11}

    def test_one_hole_3d_report_counts_its_3x3_calls(self, monkeypatch):
        # 12 vertices, 3x3 L_v and N_v: the closed forms sit inside the counted functions
        assert self.report_calls(monkeypatch, "one_hole_3d.json") == {"unimodular_inverse": 12,
                                                                       "det_exact": 24}

    @pytest.mark.parametrize("spec, vertices", [("square_in_square.json", 8),
                                                ("one_hole_2d_0.json", 9)])
    def test_one_hole_form_reads_the_kept_frames(self, monkeypatch, spec, vertices):
        # one inverse per vertex: the segment's two ends reuse their frames' mu;
        # det L_v and det N_v per vertex, and the intersection form
        assert self.report_calls(monkeypatch, spec) == {"unimodular_inverse": vertices,
                                                        "det_exact": 2 * vertices + 1}
