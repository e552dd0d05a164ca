"""Per-op output checks.

Every op is checked three ways; any failed check counts the op as failed:

* the exit code / validation result matches the validity the generator
  intended (an expected validation failure is a pass);
* the output bytes match the digest recorded for that exact input, when
  one is recorded (``digests.json`` holds the default seed of every
  workload; the fixed textbook corpus of ``cli_small`` recurs under every
  seed);
* seed-independent invariants hold: chi_y(-1) equals the vertex sign sum,
  and every embedding coordinate is >= 0.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

EXIT_OK, EXIT_INVALID = 0, 2


def op_key(op: dict) -> str:
    """Digest of everything the program is given for this op."""
    data = {k: v for k, v in op.items() if k != "valid"}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:32]


def out_digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()[:32]


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _report_invariants(report: dict, valid: bool) -> list[str]:
    errs = []
    if report["validation"]["ok"] != valid:
        errs.append(f"validation ok={report['validation']['ok']}, intended {valid}")
    if report["validation"]["ok"]:
        sign_sum = sum(v["sign"] for v in report["vertex_signs"])
        if report["chi_y"]["top_chern"] != sign_sum:
            errs.append(f"chi_y(-1)={report['chi_y']['top_chern']} != sign sum {sign_sum}")
    return errs


def _coords_invariants(coords) -> list[str]:
    bad = [c for c in coords if Fraction(c) < 0]
    return [f"negative embedding coordinates {bad[:3]}"] if bad else []


def check_report(op, output: bytes) -> list[str]:
    try:
        return _report_invariants(json.loads(output), op["valid"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def check_embed(op, output: bytes) -> list[str]:
    try:
        doc = json.loads(output)
        errs = [] if doc["valid"] == op["valid"] else [f"valid={doc['valid']}"]
        for coords in doc["coordinates"]:
            if len(coords) != doc["facet_count"]:
                errs.append("coordinate count != facet count")
            errs += _coords_invariants(coords)
        return errs
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable embedding output: {exc!r}"]


def check_cli(op, output: bytes) -> list[str]:
    code_line, _, rest = output.partition(b"\n")
    stdout = rest.partition(b"\0")[0]
    code = int(code_line)
    want = EXIT_OK if op["valid"] else EXIT_INVALID
    if code != want:
        return [f"exit {code}, intended {want}"]
    cmd = op["argv"][0]
    try:
        if cmd == "report":
            return _report_invariants(json.loads(stdout), op["valid"])
        if cmd == "mac" and code == EXIT_OK:
            text = stdout.decode()
            tail = text.split("embedding:\n", 1)[1].splitlines()
            return _coords_invariants([line.rsplit(": ", 1)[1] for line in tail])
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable {cmd} output: {exc!r}"]
    return []


CHECKERS = {"report": check_report, "embed": check_embed, "cli": check_cli}


def check(op: dict, output: bytes, digests: dict[str, str]) -> list[str]:
    errs = CHECKERS[op["kind"]](op, output)
    want = digests.get(op_key(op))
    if want is not None and want != out_digest(output):
        errs.append(f"output digest {out_digest(output)} != recorded {want}")
    return errs
