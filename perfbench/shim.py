"""Traced stand-in for ``python -m tmh.cli`` in the cli_small traced run.

    python shim.py <spans-out.json> <op-id> <tmh cli arguments...>

Imports tmh.cli, wraps the layers (spans.Tracer), runs the command with
the same stdout, stderr and exit code as the real CLI, then writes its
spans to <spans-out.json>.  The ``import tmh.cli`` time is recorded as a
``cli.import`` span.
"""

import json
import sys
from time import perf_counter_ns

import spans

if __name__ == "__main__":
    out_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = perf_counter_ns()
    import tmh.cli  # noqa: E402

    tracer = spans.Tracer()
    tracer.spans.append(["cli.import", t0, perf_counter_ns(), -1, op_id])
    tracer.op = op_id
    tracer.install()
    code = tmh.cli.run(argv)
    tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    sys.exit(code)
