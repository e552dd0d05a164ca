import io
import json
import random
import sys
from fractions import Fraction

import pytest

from tmh import polytope
from tmh.charpair import validate
from tmh.cli import (_intersection_section, _parse_rational, build_report, compose_fibersum,
                     parse_spec, parse_spec_dict, render_json, run)
from tmh.dim4 import intersection_form
from tmh.errors import InternalError, SpecParseError
from tmh.genus import chi_y

import golden_corpus
from counting import count_calls
from instances import PENTAGON_LAMBDA, PENTAGON_VERTICES
from oracles import render_json_by_dumps


def pentagon_spec_dict():
    return {
        "dimension": 2,
        "metadata": {"name": "pentagon-y", "description": "connected sum of three CP^2"},
        "outer": {
            "vertices": [[str(x), str(y)] for x, y in PENTAGON_VERTICES],
            "labels": ["e1", "e2", "e3", "e4", "e5"],
        },
        "characteristic": {
            f"e{i + 1}": list(v) for i, v in enumerate(PENTAGON_LAMBDA)
        },
    }


def cp2_spec_dict():
    return {
        "dimension": 2,
        "metadata": {"name": "cp2"},
        "outer": {
            "halfspaces": [
                {"label": "a", "normal": [0, 1], "offset": 0},
                {"label": "b", "normal": [1, 0], "offset": 0},
                {"label": "c", "normal": [-1, -1], "offset": -1},
            ]
        },
        "characteristic": {"a": [0, 1], "b": [1, 0], "c": [-1, -1]},
    }


def square_in_square_spec_dict():
    lam = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    return {
        "dimension": 2,
        "metadata": {"name": "square-in-square"},
        "outer": {"vertices": [[0, 0], [4, 0], [4, 4], [0, 4]]},
        "holes": [{"vertices": [[1, 1], [2, 1], [2, 2], [1, 2]]}],
        "characteristic": {
            "e1": lam[0], "e2": lam[1], "e3": lam[2], "e4": lam[3],
            "h1.e1": lam[0], "h1.e2": lam[1], "h1.e3": lam[2], "h1.e4": lam[3],
        },
    }


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(pentagon_spec_dict()))
    return str(path)


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cp2_spec_dict()))
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestParseSpec:
    def test_pentagon(self, pentagon_file):
        doc = parse_spec(pentagon_file)
        assert doc.body.dim == 2
        assert len(doc.facet_labels) == 5
        assert doc.lam[doc.facet_labels.index("e3")] == (1, -2)

    def test_lam_follows_facet_labels_not_the_characteristic_order(self):
        spec = pentagon_spec_dict()
        spec["characteristic"] = dict(reversed(spec["characteristic"].items()))
        assert list(spec["characteristic"])[0] == "e5"
        doc = parse_spec_dict(spec)
        assert doc.facet_labels == ("e1", "e2", "e3", "e4", "e5")
        assert type(doc.lam) is tuple and doc.lam == tuple(PENTAGON_LAMBDA)
        assert doc.to_pair() == parse_spec_dict(pentagon_spec_dict()).to_pair()

    def test_first_bad_vector_is_named_in_document_order(self):
        from tmh.errors import SpecParseError

        spec = pentagon_spec_dict()
        char = spec["characteristic"]
        char["e2"], char["e4"] = [1], [0]
        spec["characteristic"] = {k: char[k] for k in ("e4", "e1", "e2", "e3", "e5")}
        with pytest.raises(SpecParseError, match=r"characteristic\['e4'\]"):
            parse_spec_dict(spec)

    def test_float_rejected(self, tmp_path):
        from tmh.errors import SpecParseError

        spec = cp2_spec_dict()
        text = json.dumps(spec).replace('"offset": 0}', '"offset": 0.5}', 1)
        assert "0.5" in text
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SpecParseError, match="float"):
            parse_spec(str(path))

    def test_duplicate_labels(self, tmp_path):
        from tmh.errors import SpecParseError

        spec = cp2_spec_dict()
        spec["outer"]["halfspaces"][1]["label"] = "a"
        spec["characteristic"] = {"a": [0, 1], "c": [-1, -1]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecParseError, match="duplicate"):
            parse_spec(str(path))

    def test_characteristic_mismatch(self, tmp_path):
        from tmh.errors import SpecParseError

        spec = cp2_spec_dict()
        del spec["characteristic"]["a"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SpecParseError, match="missing"):
            parse_spec(str(path))

    def test_rational_offsets(self, tmp_path):
        spec = cp2_spec_dict()
        spec["outer"]["halfspaces"][2]["offset"] = "-1/2"
        path = tmp_path / "rat.json"
        path.write_text(json.dumps(spec))
        doc = parse_spec(str(path))
        assert doc.body.outer.facet_count == 3

    def test_malformed_json_has_location(self, tmp_path):
        from tmh.errors import SpecParseError

        path = tmp_path / "broken.json"
        path.write_text("{\n  \"dimension\": 2,,\n}")
        with pytest.raises(SpecParseError, match=r":2:\d+"):
            parse_spec(str(path))


class TestCommands:
    def test_validate_ok(self, pentagon_file):
        code, out = run_cli(["validate", pentagon_file])
        assert code == 0
        assert "valid" in out

    def test_validate_invalid_exit_2(self, tmp_path):
        spec = cp2_spec_dict()
        spec["characteristic"]["a"] = [2, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(["validate", str(path)])
        assert code == 2
        assert "INVALID" in out

    def test_missing_file_exit_1(self):
        code, _ = run_cli(["validate", "/does/not/exist.json"])
        assert code == 1

    def test_invariants_pentagon(self, pentagon_file):
        code, out = run_cli(["invariants", pentagon_file])
        assert code == 0
        assert "top_chern: 5" in out
        assert "signature: 3" in out

    def test_invariants_nongeneric_nu(self, cp2_file):
        code, _ = run_cli(["invariants", cp2_file, "--nu", "1,0"])
        assert code == 2

    def test_invariants_explicit_nu(self, cp2_file):
        code, out = run_cli(["invariants", cp2_file, "--nu", "1,2"])
        assert code == 0
        assert "coefficients: [1, -1, 1]" in out

    def test_homology(self, tmp_path):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(square_in_square_spec_dict()))
        code, out = run_cli(["homology", str(path)])
        assert code == 0
        assert "betti: [1, 1, 8, 1, 1]" in out

    def test_ring_pentagon(self, pentagon_file):
        code, out = run_cli(["ring", pentagon_file])
        assert code == 0
        assert "signature: 3" in out
        assert "determinant" in out

    def test_ring_ignores_a_non_generic_nu(self, tmp_path):
        # every lambda is +-e1 or +-e2, so nu = (1, 0) pairs to zero with
        # the edge vectors +-e2; chi_1, and so ring, does not depend on nu
        outputs = []
        for nu in ([1, 0], None):
            spec = square_in_square_spec_dict()
            if nu is not None:
                spec["nu"] = nu
            path = tmp_path / f"nu{nu}.json"
            path.write_text(json.dumps(spec))
            if nu is not None:
                assert run_cli(["invariants", str(path)])[0] == 2
            outputs.append(run_cli(["ring", str(path)]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and "signature: 0" in outputs[0][1]

    def test_intersection_section_checks_the_signature(self, pentagon_file):
        doc = parse_spec(pentagon_file)
        pair = doc.to_pair()
        assert validate(pair).ok
        signature = chi_y(pair).signature
        form = intersection_form(pair)
        assert _intersection_section(doc, form, signature)["signature"] == 3
        with pytest.raises(InternalError, match="not that of a unimodular form"):
            _intersection_section(doc, form, signature + 2)

    def test_mac_with_point(self, cp2_file):
        code, out = run_cli(["mac", cp2_file, "--point", "1/4,1/4"])
        assert code == 0
        assert "torus_rank: 1" in out
        assert "freeness: true" in out
        assert "a: 1/4" in out

    def test_report_text_and_json_agree(self, pentagon_file):
        code_t, text = run_cli(["report", pentagon_file, "--format", "text"])
        code_j, blob = run_cli(["report", pentagon_file, "--format", "json"])
        assert code_t == code_j == 0
        data = json.loads(blob)
        assert data["dim4"]["c1_squared"] == 19
        assert data["dim4"]["c2"] == 5
        assert data["structure_flags"]["complex_excluded_by_bmy"] is True
        assert all(e["sign"] == 1 for e in data["vertex_signs"])
        # every number in the JSON report appears in the text report
        assert "c1_squared: 19" in text
        assert "c2: 5" in text
        assert "complex_excluded_by_bmy: true" in text

    def test_report_deterministic(self, pentagon_file):
        _, first = run_cli(["report", pentagon_file, "--format", "json"])
        _, second = run_cli(["report", pentagon_file, "--format", "json"])
        assert first == second

    def test_report_3d(self, tmp_path):
        spec = {
            "dimension": 3,
            "metadata": {"name": "cp3"},
            "outer": {"halfspaces": [
                {"label": "x", "normal": [1, 0, 0], "offset": 0},
                {"label": "y", "normal": [0, 1, 0], "offset": 0},
                {"label": "z", "normal": [0, 0, 1], "offset": 0},
                {"label": "w", "normal": [-1, -1, -1], "offset": -1},
            ]},
            "characteristic": {
                "x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1],
                "w": [-1, -1, -1]},
        }
        path = tmp_path / "cp3.json"
        path.write_text(json.dumps(spec))
        code, blob = run_cli(["report", str(path), "--format", "json"])
        assert code == 0
        data = json.loads(blob)
        assert "dim4" not in data
        assert data["chi_y"]["top_chern"] == 4

    def test_ring_scope_error_for_3d(self, tmp_path):
        spec = {
            "dimension": 3,
            "outer": {"halfspaces": [
                {"label": "x", "normal": [1, 0, 0], "offset": 0},
                {"label": "y", "normal": [0, 1, 0], "offset": 0},
                {"label": "z", "normal": [0, 0, 1], "offset": 0},
                {"label": "w", "normal": [-1, -1, -1], "offset": -1},
            ]},
            "characteristic": {
                "x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1],
                "w": [-1, -1, -1]},
        }
        path = tmp_path / "cp3.json"
        path.write_text(json.dumps(spec))
        code, _ = run_cli(["ring", str(path)])
        assert code == 3

    def test_ring_scope_error_for_two_holes(self, capsys):
        # the library's one-hole guard is the only one, and its message is the error line
        path = golden_corpus.SPECS / "multi_hole_2d_0.json"
        assert run_cli(["ring", str(path)]) == (3, "")
        assert capsys.readouterr().err == "error: intersection form is not computed for 2 holes\n"

    @pytest.mark.parametrize("spec, code, genus_calls", [("multi_hole_2d_0.json", 3, 0),
                                                         ("square_in_square.json", 0, 1)])
    def test_ring_refuses_two_holes_before_the_genus(self, monkeypatch, spec, code, genus_calls):
        calls = count_calls(monkeypatch, ("chi_y",))
        assert run_cli(["ring", str(golden_corpus.SPECS / spec)])[0] == code
        assert calls["chi_y"] == genus_calls


class TestArgumentErrors:
    """A malformed argument exits 1 and a point outside the body exits 2,
    each with one `error:` line on stderr and nothing on stdout."""

    @staticmethod
    def assert_rejected(capsys, argv, code, message=None):
        got, out = run_cli(argv)
        err = capsys.readouterr().err
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if message is not None:
            assert err == f"error: {message}\n"

    @staticmethod
    def spec_file(tmp_path, **fields):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({**pentagon_spec_dict(), **fields}))
        return str(path)

    @pytest.mark.parametrize("args", [
        ["invariants", "--nu=1,x"],
        ["invariants", "--nu=1,2,3"],
        ["invariants", "--nu=1/2,1"],
        ["mac", "--point=1,1,5"],
        ["mac", "--point=1/0,2"],
    ], ids=lambda args: " ".join(args))
    def test_malformed_exit_1(self, pentagon_file, capsys, args):
        self.assert_rejected(capsys, [args[0], pentagon_file, *args[1:]], 1)

    def test_point_outside_body_exit_2(self, pentagon_file, capsys):
        self.assert_rejected(capsys, ["mac", pentagon_file, "--point=9,9"], 2)

    def test_point_in_hole_exit_2(self, tmp_path, capsys):
        path = tmp_path / "holed.json"
        path.write_text(json.dumps(square_in_square_spec_dict()))
        self.assert_rejected(capsys, ["mac", str(path), "--point=3/2,3/2"], 2,
                             "point ('3/2', '3/2') is in the open interior of hole 1")

    @pytest.mark.parametrize("holes", [5, "ab"], ids=repr)
    @pytest.mark.parametrize("command", ["validate", "invariants", "homology",
                                         "ring", "mac", "report"])
    def test_holes_not_a_list_exit_1(self, tmp_path, capsys, command, holes):
        path = self.spec_file(tmp_path, holes=holes)
        self.assert_rejected(capsys, [command, path], 1, "holes: expected a list")

    @pytest.mark.parametrize("where", ["outer", "holes[0]"])
    @pytest.mark.parametrize("command", ["validate", "invariants", "homology",
                                         "ring", "mac", "report", "fibersum"])
    def test_zero_normal_exit_1(self, pentagon_file, tmp_path, capsys, command, where):
        zero = {"label": "z", "normal": [0, 0], "offset": 0}
        doc = cp2_spec_dict()
        if where == "outer":
            doc["outer"]["halfspaces"].insert(0, zero)
        else:
            doc["holes"] = [{"halfspaces": [zero, *cp2_spec_dict()["outer"]["halfspaces"]]}]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "sum.json"
        extra = [pentagon_file, "-o", str(out_path)] if command == "fibersum" else []
        self.assert_rejected(capsys, [command, str(path), *extra], 1,
                             f"{where}.halfspaces[0].normal: expected a nonzero vector")
        assert not out_path.exists()

    @pytest.mark.parametrize("key", ["name", "description"])
    def test_metadata_not_a_string_exit_1(self, pentagon_file, tmp_path, capsys, key):
        base = self.spec_file(tmp_path, metadata={key: 5})
        out_path = tmp_path / "sum.json"
        self.assert_rejected(capsys, ["fibersum", base, pentagon_file, "-o", str(out_path)],
                             1, f"metadata.{key}: expected a string")
        assert not out_path.exists()

    @pytest.mark.parametrize("scale", ["x", "0", "-1"])
    def test_bad_scale_exit_1(self, pentagon_file, tmp_path, capsys, scale):
        out_path = tmp_path / "yy.json"
        self.assert_rejected(capsys, ["fibersum", pentagon_file, pentagon_file,
                                      "-o", str(out_path), f"--scale={scale}"], 1)
        assert not out_path.exists()

    @pytest.mark.parametrize("where, value", [
        ("outer.halfspaces[2].offset", "-1e100000"),
        ("outer.vertices[0][1]", "5E-1"),
        ("--point[0]", "-125e-3"),
        ("--point[0]", "1e10000000"),
        ("--scale", "1e-1"),
    ])
    def test_exponent_exit_1(self, pentagon_file, tmp_path, capsys, where, value):
        # Fraction reads exponents: an offset of -1e100000 made the report
        # fail while printing a 100,001-digit vertex coordinate, and
        # expanding 1e10000000 alone takes seconds
        out_path = tmp_path / "sum.json"
        if where == "outer.halfspaces[2].offset":
            doc = cp2_spec_dict()
            doc["outer"]["halfspaces"][2]["offset"] = value
            argv = ["report", self.spec_file(tmp_path, **doc)]
        elif where == "outer.vertices[0][1]":
            doc = pentagon_spec_dict()
            doc["outer"]["vertices"][0][1] = value
            argv = ["report", self.spec_file(tmp_path, **doc)]
        elif where == "--point[0]":
            argv = ["mac", pentagon_file, f"--point={value},2"]
        else:
            argv = ["fibersum", pentagon_file, pentagon_file, "-o", str(out_path),
                    f"--scale={value}"]
        self.assert_rejected(capsys, argv, 1,
                             f"{where}: bad rational {value!r}: exponents are not allowed")
        assert not out_path.exists()

    @pytest.mark.parametrize("text, value", [
        ("7", Fraction(7)), ("-7/2", Fraction(-7, 2)), ("0.25", Fraction(1, 4)),
        (" 1/3 ", Fraction(1, 3)), (-4, Fraction(-4)),
        # "p/q" is read as Fraction(int(p), int(q)), which must agree with Fraction("p/q")
        *((text, Fraction(text)) for text in ("+3/4", "03/004", "-0/5", "6/4", " 7/2 "))])
    def test_parse_rational_keeps_integers_fractions_and_decimals(self, text, value):
        assert _parse_rational(text, "x") == value

    @pytest.mark.parametrize("text, reason", [("1/0", "Fraction(1, 0)"),
                                              ("-1/0", "Fraction(-1, 0)")])
    def test_parse_rational_refuses_a_zero_denominator(self, text, reason):
        with pytest.raises(SpecParseError) as exc:
            _parse_rational(text, "x")
        assert str(exc.value) == f"x: bad rational {text!r}: {reason}"

    @pytest.mark.parametrize("text, value", [
        ("1_000", None), (" 1/2 ", Fraction(1, 2)), ("١", None), ("0.25", Fraction(1, 4)),
        ("-7/2", Fraction(-7, 2))])
    @pytest.mark.parametrize("where", ["outer.halfspaces[0].offset", "--point[0]"])
    def test_rational_grammar_is_ascii_p_q_or_decimal(self, tmp_path, capsys, where, text, value):
        # Fraction alone reads "1_000" from Python 3.11 on, and the Arabic-Indic
        # digit one on every version, so the same spec exited 0 or 1 by version
        if where == "--point[0]":
            # the triangle holds (x, 1/4) for every |x| <= 15/4, and d_e2 = 15/4 - x
            path = self.spec_file(tmp_path, outer={"vertices": [[-4, 0], [4, 0], [0, 4]]},
                                  characteristic={"e1": [1, 0], "e2": [0, 1], "e3": [-1, -1]})
            argv = ["mac", path, f"--point={text},1/4"]
        else:
            doc = cp2_spec_dict()
            doc["outer"]["halfspaces"][0]["offset"] = text  # y >= value
            argv = ["report", self.spec_file(tmp_path, **doc)]
        if value is None:
            self.assert_rejected(capsys, argv, 1,
                                 f"{where}: bad rational {text!r}: expected p/q or a decimal")
        elif where == "--point[0]":
            code, out = run_cli(argv)
            assert code == 0 and f"  e2: {Fraction(15, 4) - value}\n" in out
        else:
            assert run_cli(argv)[0] == 0
            assert parse_spec(argv[1]).body.outer.halfspaces[0].offset == value

    def assert_unreadable(self, tmp_path, capsys, pentagon_file, role, data, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data if isinstance(data, bytes) else data.encode())
        out_path = tmp_path / "sum.json"
        argv = {
            "report": ["report", str(bad)],
            "fibersum base": ["fibersum", str(bad), pentagon_file, "-o", str(out_path)],
            "fibersum piece": ["fibersum", pentagon_file, str(bad), "-o", str(out_path)],
        }[role]
        self.assert_rejected(capsys, argv, 1, f"{bad}: {reason}")
        assert not out_path.exists()

    @pytest.mark.parametrize("role", ["report", "fibersum base", "fibersum piece"])
    def test_deeply_nested_json_exit_1(self, pentagon_file, tmp_path, capsys, role):
        self.assert_unreadable(tmp_path, capsys, pentagon_file, role,
                               "[" * 200000 + "]" * 200000, "invalid JSON: nested too deeply")

    @pytest.mark.parametrize("role", ["report", "fibersum base", "fibersum piece"])
    def test_not_utf8_exit_1(self, pentagon_file, tmp_path, capsys, role):
        # a UTF-16 byte order mark: the decode error is not an OSError
        self.assert_unreadable(tmp_path, capsys, pentagon_file, role,
                               b"\xff\xfe{\x00}\x00", "not UTF-8 text")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer string conversion")
    @pytest.mark.parametrize("role", ["report", "fibersum base", "fibersum piece"])
    def test_integer_over_the_digit_limit_exit_1(self, pentagon_file, tmp_path, capsys, role):
        doc = pentagon_spec_dict()
        doc["outer"]["vertices"][0][0] = "HUGE"
        text = json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000)
        self.assert_unreadable(tmp_path, capsys, pentagon_file, role, text,
                               "invalid JSON: integer literal too long")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer string conversion")
    @pytest.mark.parametrize("command", ["report json", "report text", "fibersum", "mac"])
    def test_rational_over_the_digit_limit_exit_3(self, pentagon_file, tmp_path, capsys,
                                                  command):
        # CP^2 on a triangle whose offsets have parts of 3/5 of the limit: each
        # part parses, but the vertex (a, -c - a) has a part of 6/5 of it
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the digit limit is switched off")
        sevens, threes = "7" * (limit * 3 // 5), "3" * (limit * 3 // 5 - 1) + "1"
        a, b = f"-{sevens}/{threes}", f"-{threes}/{sevens}"
        path = self.spec_file(tmp_path, outer={"halfspaces": [
            {"label": "e1", "normal": [1, 0], "offset": a},
            {"label": "e2", "normal": [0, 1], "offset": b},
            {"label": "e3", "normal": [-1, -1], "offset": f"-{sevens}"}]},
            characteristic={"e1": [1, 0], "e2": [0, 1], "e3": [-1, -1]})
        for other in ("validate", "invariants", "homology", "ring", "mac"):
            assert run_cli([other, path])[0] == 0
        out_path = tmp_path / "sum.json"
        argv = {"report json": ["report", path, "--format", "json"],
                "report text": ["report", path],
                "fibersum": ["fibersum", path, pentagon_file, "-o", str(out_path)],
                # the vertex (a, b): its facet value on e3 is -a - b - c
                "mac": ["mac", path, f"--point={a},{b}"]}[command]
        self.assert_rejected(capsys, argv, 3,
                             f"an integer with over {limit} digits cannot be written")
        assert not out_path.exists()

    @staticmethod
    def message_spec(tmp_path, kind, k):
        """A spec whose error message holds an int of about 6/5 of the digit
        limit, built from ints k of 3/5 of it."""
        def hs(label, normal, offset):
            return {"label": label, "normal": normal, "offset": offset}
        # (k, 1) . x >= 1 and (1, k) . x >= 0 meet at (k, -1) / (k^2 - 1)
        corner = [hs("a", [k, 1], 1), hs("b", [1, k], 0)]
        lam_2d = {"a": [1, 0], "b": [0, 1], "c": [1, 0], "d": [0, 1]}  # never validated
        simplex = {"halfspaces": [hs("x", [1, 0, 0], 0), hs("y", [0, 1, 0], 0),
                                  hs("z", [0, 0, 1], 0), hs("w", [-1, -1, -1], -1)]}
        spec = {
            # a third line through that corner
            "not simple": {"dimension": 2, "characteristic": lam_2d, "outer": {"halfspaces": [
                *corner, hs("c", [1, 1], f"1/{k + 1}"), hs("d", [-1, -1], -1)]}},
            # x + y = 1/(k + 1) at the corner, outside x + y >= 1/2
            "containment": {
                "dimension": 2, "characteristic": {**lam_2d, "p": [1, 0], "q": [0, 1]},
                "outer": {"halfspaces": [hs("d", [1, 1], "1/2"), hs("p", [-1, 0], -10),
                                         hs("q", [0, -1], -10)]},
                "holes": [{"halfspaces": [*corner, hs("c", [-1, -1], -1)]}]},
            # lambda = g (e1, e2, e3, -e1 - e2 - e3): the origin's edge covector
            # (1, -k, k^2) pairs to zero with nu
            "genericity": {"dimension": 3, "outer": simplex, "nu": [k, 1, 0], "characteristic": {
                "x": [1, 0, 0], "y": [k, 1, 0], "z": [0, k, 1], "w": [-1 - k, -1 - k, -1]}},
            # the span of (k, 1, 0) and (1, k, 0) has divisors (1, k^2 - 1)
            "summand": {"dimension": 3, "outer": simplex, "characteristic": {
                "x": [k, 1, 0], "y": [1, k, 0], "z": [0, 0, 1], "w": [1, 1, 1]}},
        }[kind]
        path = tmp_path / "long_message.json"
        path.write_text(json.dumps({"metadata": {"name": kind}, **spec}))
        return str(path)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer string conversion")
    @pytest.mark.parametrize("kind, command", [
        ("not simple", "validate"), ("not simple", "report"),
        ("containment", "validate"), ("containment", "report"),
        ("genericity", "invariants"), ("genericity", "report"),
        ("summand", "validate"), ("summand", "report")])
    def test_message_over_the_digit_limit_exit_3(self, tmp_path, capsys, kind, command):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the digit limit is switched off")
        path = self.message_spec(tmp_path, kind, 10 ** (3 * limit // 5) + 7)
        self.assert_rejected(capsys, [command, path], 3,
                             f"an integer with over {limit} digits cannot be written")

    def test_value_error_not_from_the_digit_limit_propagates(self, pentagon_file, monkeypatch):
        def broken(doc):
            raise ValueError("an int too long for a list index")
        monkeypatch.setattr("tmh.cli.build_report", broken)
        with pytest.raises(ValueError, match="too long for a list index"):
            run(["report", pentagon_file])


class TestGeometryRegressions:
    def test_pentagram_cycle_exit_1(self, tmp_path, capsys):
        # every turn of this cycle is a left turn, but it winds twice
        doc = pentagon_spec_dict()
        doc["outer"]["vertices"] = [[0, 10], [-6, -8], [10, 3], [-10, 3], [6, -8]]
        path = tmp_path / "pentagram.json"
        path.write_text(json.dumps(doc))
        TestArgumentErrors.assert_rejected(capsys, ["validate", str(path)], 1)

    @staticmethod
    def near_touching_file(tmp_path, exponent):
        """Two unit-square holes 10^-exponent apart in a 10 x 10 square."""
        lam = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        gap = str(2 + Fraction(1, 10**exponent))
        doc = {
            "dimension": 2,
            "metadata": {"name": "near-touching holes"},
            "outer": {"vertices": [[0, 0], [10, 0], [10, 10], [0, 10]]},
            "holes": [{"vertices": [[1, 1], [2, 1], [2, 2], [1, 2]]},
                      {"vertices": [[gap, 1], [3, 1], [3, 2], [gap, 2]]}],
            "characteristic": {f"{p}e{i + 1}": v for p in ("", "h1.", "h2.")
                               for i, v in enumerate(lam)},
        }
        path = tmp_path / f"near{exponent}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_collar_below_2_to_minus_64(self, tmp_path):
        # the holes are 10^-30 apart, so the collar width is ~100 halvings
        # of the first guess
        code, out = run_cli(["mac", self.near_touching_file(tmp_path, 30), "--point=5,8"])
        assert code == 0
        embedding = out.split("embedding:\n", 1)[1].splitlines()
        assert embedding[:4] == ["  e1: 8", "  e2: 5", "  e3: 2", "  e4: 5"]
        assert len(embedding) == 12
        assert all(Fraction(line.split(": ")[1]) > 0 for line in embedding)

    @staticmethod
    def corner_file(tmp_path):
        """A unit-square hole whose corner faces the long edge of a triangle hole:
        the square's facets put the triangle 1/2 away, its least bound, but its
        collar meets the triangle only at 5/4, so the square's width takes LPs."""
        lam = {"e1": [1, 0], "e2": [0, 1], "e3": [-1, 0], "e4": [0, -1]}
        doc = {
            "dimension": 2,
            "metadata": {"name": "corner to edge"},
            "outer": {"vertices": [[0, 0], [10, 0], [10, 10], [0, 10]]},
            "holes": [{"vertices": [[1, 1], [2, 1], [2, 2], [1, 2]]},
                      {"vertices": [[4, "5/2"], [4, 4], ["5/2", 4]]}],
            "characteristic": {**lam, **{f"h1.{k}": v for k, v in lam.items()},
                               "h2.e1": [1, 0], "h2.e2": [0, 1], "h2.e3": [-1, -1]},
        }
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_collar_work_does_not_grow_with_the_gap(self, tmp_path, monkeypatch):
        # the width is computed from one threshold, not found by halving:
        # as many linear programs at 10^-300 as at 10^-30, and the count
        # reaches the LPs on a body whose least bound no primal point proves
        calls = []
        phase_one = polytope._Dictionary.phase_one

        def counted(tab):
            calls.append(1)
            return phase_one(tab)

        monkeypatch.setattr(polytope._Dictionary, "phase_one", counted)
        counts = []
        for path in (self.near_touching_file(tmp_path, 30),
                     self.near_touching_file(tmp_path, 300), self.corner_file(tmp_path)):
            calls.clear()
            code, out = run_cli(["mac", path, "--point=5,8"])
            assert code == 0 and "embedding:" in out
            counts.append(len(calls))
        assert counts[0] == counts[1] < counts[2], counts


class TestNegativeValues:
    """`--opt -1,2` reads the value like `--opt=-1,2`."""

    @pytest.mark.parametrize("option, value", [
        ("--point", "-1/8,2"), ("--nu", "-1,2"), ("--nu", "-2,-1")])
    def test_same_as_equals_form(self, pentagon_file, capsys, option, value):
        cmd = "mac" if option == "--point" else "invariants"
        spaced = run_cli([cmd, pentagon_file, option, value]), capsys.readouterr().err
        joined = run_cli([cmd, pentagon_file, f"{option}={value}"]), capsys.readouterr().err
        assert spaced == joined
        assert "expected one argument" not in spaced[1]

    def test_point_embedding(self, pentagon_file):
        code, out = run_cli(["mac", pentagon_file, "--point", "-1/8,2"])
        assert code == 0
        assert "embedding:" in out


class TestFiberSum:
    def test_y_plus_y_roundtrip(self, pentagon_file, tmp_path):
        out_path = str(tmp_path / "yy.json")
        code, _ = run_cli(["fibersum", pentagon_file, pentagon_file,
                           "-o", out_path])
        assert code == 0
        doc = parse_spec(out_path)
        report = build_report(doc)
        assert report["validation"]["ok"]
        assert report["dim4"]["c2"] == 10
        assert report["dim4"]["c1_squared"] == 38
        assert report["hole_count"] == 1
        assert report["dim4"]["betti"] == [1, 1, 10, 1, 1]

    def test_fibersum_two_pieces(self, pentagon_file, cp2_file, tmp_path):
        out_path = str(tmp_path / "three.json")
        code, _ = run_cli(["fibersum", pentagon_file, cp2_file, cp2_file,
                           "-o", out_path])
        assert code == 0
        doc = parse_spec(out_path)
        report = build_report(doc)
        assert report["validation"]["ok"]
        assert report["hole_count"] == 2
        # c2 additive: 5 + 3 + 3
        assert report["dim4"]["c2"] == 11
        assert report["dim4"]["c1_squared"] == 19 + 9 + 9

    def test_fibersum_output_deterministic(self, pentagon_file, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run_cli(["fibersum", pentagon_file, pentagon_file, "-o", a])
        run_cli(["fibersum", pentagon_file, pentagon_file, "-o", b])
        with open(a) as fa, open(b) as fb:
            assert fa.read() == fb.read()

    def test_piece_inside_a_base_hole_exit_2(self, tmp_path, capsys):
        # the piece is placed at the centroid of the base, inside its hole
        lam = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "dimension": 2,
            "outer": {"vertices": [[0, 0], [8, 0], [8, 8], [0, 8]]},
            "holes": [{"vertices": [[3, 3], [5, 3], [5, 5], [3, 5]]}],
            "characteristic": {f"{p}e{i + 1}": v for p in ("", "h1.")
                               for i, v in enumerate(lam)},
        }))
        piece = tmp_path / "piece.json"
        piece.write_text(json.dumps({
            "dimension": 2,
            "outer": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "characteristic": {f"e{i + 1}": v for i, v in enumerate(lam)},
        }))
        out_path = tmp_path / "sum.json"
        TestArgumentErrors.assert_rejected(
            capsys, ["fibersum", str(base), str(piece), "-o", str(out_path)],
            2, "holes 1 and 2 intersect")
        assert not out_path.exists()

    @pytest.mark.parametrize("base_hole", [False, True])
    def test_disjointness_is_decided_once_per_pair(self, monkeypatch, base_hole):
        # place_holes decides the two pieces' one pair; only a base with a
        # hole of its own needs the body rebuilt, with its three pairs
        spec = square_in_square_spec_dict()
        spec["outer"]["vertices"] = [[0, 0], [12, 0], [12, 12], [0, 12]]
        if not base_hole:
            del spec["holes"]
            spec["characteristic"] = {k: v for k, v in spec["characteristic"].items()
                                      if not k.startswith("h1.")}
        base, piece = parse_spec_dict(spec), parse_spec_dict(cp2_spec_dict())
        pairs, lps, disjoint, feasible = [], [], polytope._disjoint, polytope.feasible

        def counted_pair(dim, rows, points, a, b):
            pairs.append((len(rows[a]), len(rows[b])))
            return disjoint(dim, rows, points, a, b)

        def counted_lp(dim, rows):
            lps.append(len(rows))
            return feasible(dim, rows)

        monkeypatch.setattr(polytope, "_disjoint", counted_pair)
        monkeypatch.setattr(polytope, "feasible", counted_lp)
        composed = compose_fibersum(base, [piece, piece])
        # one decision per pair: two triangles, and each with the square; the
        # pieces sit apart, so a facet separates every pair and no LP runs
        assert pairs == ([(3, 3), (4, 3), (4, 3), (3, 3)] if base_hole
                         else [(3, 3)])
        assert lps == []
        assert len(composed["holes"]) == 2 + base_hole

    def test_rejects_holed_piece(self, pentagon_file, tmp_path):
        holed = tmp_path / "holed.json"
        holed.write_text(json.dumps(square_in_square_spec_dict()))
        out_path = str(tmp_path / "x.json")
        code, _ = run_cli(["fibersum", pentagon_file, str(holed), "-o", out_path])
        assert code == 3


class TestBuildReport:
    def test_invalid_report_short(self, tmp_path):
        spec = cp2_spec_dict()
        spec["characteristic"]["a"] = [2, 0]
        doc_path = tmp_path / "inv.json"
        doc_path.write_text(json.dumps(spec))
        report = build_report(parse_spec(str(doc_path)))
        assert not report["validation"]["ok"]
        assert report["validation"]["facets"] == ["a"]
        assert "vertex_signs" not in report


# a str of every kind the encoder treats apart: escapes, control and non-ASCII
# characters, and one outside the Basic Multilingual Plane
JSON_TEXT = "az \"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\u2603\U0001d11e"


def random_json_scalar(rng, kind):
    return [None, rng.random() < 0.5,
            rng.choice([0, -1, 10 ** 40, -(10 ** 40), rng.randrange(-10 ** 6, 10 ** 6)]),
            "".join(rng.choices(JSON_TEXT, k=rng.randrange(6)))][kind]


def random_json_tree(rng, depth=4):
    """A JSON value: every scalar, lists of one scalar type, mixed lists,
    tuples, and objects, empty ones included."""
    kind = rng.randrange(8 if depth else 4)
    if kind < 4:
        return random_json_scalar(rng, kind)
    n = rng.randrange(5)
    if kind == 4:
        return {random_json_scalar(rng, 3): random_json_tree(rng, depth - 1) for _ in range(n)}
    if kind == 5:
        kind = rng.randrange(4)
        return [random_json_scalar(rng, kind) for _ in range(n)]
    items = [random_json_tree(rng, depth - 1) for _ in range(n)]
    return items if kind == 6 else tuple(items)


class TestRenderJson:
    """render_json writes the bytes of json.dumps(sort_keys=True, indent=2)."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in golden_corpus.SPECS.glob("*.json")))
    def test_matches_dumps_on_golden_reports(self, name):
        report = build_report(parse_spec(str(golden_corpus.SPECS / f"{name}.json")))
        assert render_json(report) == render_json_by_dumps(report)

    def test_matches_dumps_on_golden_fibersums(self):
        entries = [e for e in golden_corpus.manifest() if e["command"] == "fibersum"]
        assert entries
        for entry in entries:
            base, *pieces = (parse_spec(str(golden_corpus.SPECS / f"{s}.json"))
                             for s in entry["specs"])
            doc = compose_fibersum(base, pieces)
            assert render_json(doc) == render_json_by_dumps(doc)

    def test_matches_dumps_on_random_trees(self):
        rng = random.Random(2111)
        for _ in range(3000):
            tree = random_json_tree(rng)
            assert render_json(tree) == render_json_by_dumps(tree)

    def test_matches_dumps_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        text = st.text(max_size=8)
        scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                            st.integers(min_value=10 ** 30), text)
        uniform = st.one_of(*(st.lists(s, max_size=4) for s in (st.none(), st.booleans(),
                                                                st.integers(), text)))
        trees = st.recursive(scalars | uniform, lambda kids: st.one_of(
            st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(text, kids, max_size=4)), max_leaves=20)

        @hypothesis.settings(derandomize=True, max_examples=100, deadline=None,
                             database=None)
        @hypothesis.given(trees)
        def check(tree):
            assert render_json(tree) == render_json_by_dumps(tree)

        check()

    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1, 2}, {1: "a"}, {"a": 1, 2: "b"}],
                             ids=["Fraction", "float", "set", "int key", "mixed keys"])
    def test_non_json_values_raise_type_error(self, value):
        for tree in (value, [value], {"a": [1, value]}, (True, {"b": value})):
            with pytest.raises(TypeError):
                render_json(tree)
