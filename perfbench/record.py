"""Record the output digests that run.py checks against.

    python3 perfbench/record.py

Runs every op of every workload at the default seed once and writes
sha256(output) keyed by sha256(input) to digests.json.  Each output must
first pass the seed-independent checks.  Re-record only when a change is
meant to alter the output bytes, and say why in CHANGES.md.
"""

import json
import sys

import checks
import run
import workloads


def main() -> int:
    prog = run.Program()
    table = {}
    for name, generate in workloads.GENERATORS.items():
        ops = generate(workloads.DEFAULT_SEED)
        if name == "cli_small":
            prog.write_specs(ops)
        execute = run.executor(prog, name)
        for op in ops:
            output = execute(op)
            errs = checks.check(op, output, {})
            if errs:
                print(f"{name}: {'; '.join(errs)}", file=sys.stderr)
                return 1
            table[checks.op_key(op)] = checks.out_digest(output)
        print(f"{name}: {len(ops)} ops")
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
