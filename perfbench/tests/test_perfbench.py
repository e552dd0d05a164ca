"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.Program()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    generate = workloads.GENERATORS[name]
    first = json.dumps(generate(7), sort_keys=True).encode()
    assert json.dumps(generate(7), sort_keys=True).encode() == first
    assert json.dumps(generate(8), sort_keys=True).encode() != first


def test_corrupted_specs_are_about_one_in_five():
    for name in ("cli_small", "report_ladder"):
        ops = workloads.GENERATORS[name](0)
        share = sum(not op["valid"] for op in ops) / len(ops)
        assert 0.1 <= share <= 0.3, (name, share)


def _cheap_valid_report(prog):
    ops = workloads.gen_report_ladder(workloads.DEFAULT_SEED)
    op = min((o for o in ops if o["valid"]), key=lambda o: len(json.dumps(o["spec"])))
    return op, prog.report(op)


def test_checker_flags_a_corrupted_report_byte(prog):
    op, out = _cheap_valid_report(prog)
    digests = checks.load_digests()
    assert checks.op_key(op) in digests
    assert checks.check(op, out, digests) == []
    for pos in (len(out) // 3, len(out) // 2, len(out) - 2):
        bad = out[:pos] + bytes([out[pos] ^ 1]) + out[pos + 1:]
        assert checks.check(op, bad, digests), pos


def test_checker_invariants_hold_without_digests(prog):
    op, out = _cheap_valid_report(prog)
    bad = re.sub(rb'"top_chern": (-?\d+)',
                 lambda m: b'"top_chern": %d' % (int(m.group(1)) + 1), out)
    assert any("chi_y(-1)" in e for e in checks.check(op, bad, {}))
    wrong_intent = dict(op, valid=False)
    assert any("intended" in e for e in checks.check(wrong_intent, out, {}))


def test_pentagon_counts_through_both_routes(prog):
    assert run.pentagon_selfcheck(prog, "report_ladder") == []
    assert run.pentagon_selfcheck(prog, "cli_small") == []


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "MIN_SAMPLES", 3)
    monkeypatch.setattr(run, "MAX_STRETCH", 1e6)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    for workload, trace, key in (("embed_points", 0, "end_to_end"),
                                 ("report_ladder", 1, "per_layer")):
        assert run.main(["--workload", workload, "--seconds", "0.001",
                         "--trace", str(trace)]) == 0
        result = _last_json(capsys.readouterr().out)
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in bench[key]}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert set(workloads.WHY) == set(workloads.GENERATORS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
