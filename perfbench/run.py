"""tmh benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (inputs generated from --seed by workloads.py, excluded from
every metric):

  cli_small      sequential ``python -m tmh.cli <cmd> spec`` child processes
  report_ladder  in-process parse_spec_dict -> build_report -> render_json
  embed_points   in-process compose_fibersum -> parse -> validate ->
                 embedding_chart -> evaluate at seeded points

With --trace 0 the run measures the end-to-end metrics with no wrappers
installed.  Their times are wall times scaled to a reference machine
speed (see timed_run); the unscaled values are printed in the table.
With --trace 1 it runs every op twice, untraced and traced in
alternating order, and reports per-layer self times and counts (see
spans.py), the tracing overhead, and single-call probes at the ROADMAP
baseline sizes.  Every op's output is checked (checks.py) in both modes.

The last line of stdout is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_SAMPLES = 100       # p90 needs at least 10 samples beyond it
MAX_STRETCH = 3         # never measure longer than this many --seconds
SETUP_REPEATS = 9
REF_NOMINAL_MS = 2.5    # reference_ms() at the speed all times are scaled to
REF_WINDOW = 9          # reference samples around an op that give its speed

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PROBES = (
    "polytope.probe_polygon32_ms", "polytope.probe_polygon64_ms",
    "polytope.probe_prism24_ms", "mac.probe_freeness32_ms",
    "mac.probe_freeness64_ms", "mac.probe_chart16x16_ms",
    "mac.probe_chart_oct8hex_ms",
)

PER_LAYER_UNITS = {
    "interp.start_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_ms": "ms",
    **{m: "ms" for m in spans.SELF_TIMES},
    **{m: "ms" for m in spans.LAYER_SELF},
    **{m: "count" for m in spans.CALL_COUNTS},
    spans.VALUE_CALLS: "count",
    spans.FRAMES_PER_VERTEX: "frames/vertex",
    **{m: "ms" for m in PROBES},
}

# build_report on the pentagon (no pinned nu) builds 65 vertex frames for
# 5 vertices, calls all_signs 7 times and chi_y 3 times.  A traced run
# that counts fewer has missed an import site.
PENTAGON_COUNTS = {"charpair.vertex_frame": 65, "charpair.all_signs": 7, "genus.chi_y": 3}


class Program:
    """The tmh sources of this checkout, imported in-process and run as
    child processes."""

    def __init__(self):
        if not (SRC / "tmh" / "cli.py").is_file():
            raise SystemExit(f"perfbench: no tmh sources under {SRC}")
        sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("tmh.cli")
        self.polytope = importlib.import_module("tmh.polytope")
        self.charpair = importlib.import_module("tmh.charpair")
        self.mac = importlib.import_module("tmh.mac")
        if Path(self.cli.__file__).resolve().parent != SRC / "tmh":
            raise SystemExit(f"perfbench: imported tmh from {self.cli.__file__}")
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    # -- in-process ops --------------------------------------------------

    def report(self, op) -> bytes:
        cli = self.cli
        return cli.render_json(cli.build_report(cli.parse_spec_dict(op["spec"]))).encode()

    def embed(self, op) -> bytes:
        cli = self.cli
        base = cli.parse_spec_dict(op["base"])
        pieces = [cli.parse_spec_dict(p) for p in op["pieces"]]
        composed = cli.compose_fibersum(base, pieces)
        pair = cli.parse_spec_dict(composed).to_pair()
        valid = self.charpair.validate(pair).ok
        chart = self.mac.embedding_chart(pair)
        coords = [[str(x) for x in chart.evaluate(tuple(Fraction(c) for c in p))]
                  for p in op["points"]]
        return json.dumps({"composed": composed, "valid": valid,
                           "facet_count": pair.body.facet_count,
                           "coordinates": coords}, sort_keys=True).encode()

    # -- child-process ops -----------------------------------------------

    @staticmethod
    def spec_path(spec) -> str:
        name = checks.out_digest(workloads.spec_bytes(spec))[:16]
        return str((WORK / "specs" / f"{name}.json").relative_to(ROOT))

    def write_specs(self, ops):
        (WORK / "specs").mkdir(parents=True, exist_ok=True)
        for op in ops:
            path = ROOT / self.spec_path(op["spec"])
            if not path.exists():
                path.write_bytes(workloads.spec_bytes(op["spec"]))

    def _child(self, cmd) -> bytes:
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, check=False)
        return f"{proc.returncode}\n".encode() + proc.stdout + b"\0" + proc.stderr

    def cli_argv(self, op):
        return [op["argv"][0], self.spec_path(op["spec"]), *op["argv"][1:]]

    def cli_run(self, op) -> bytes:
        return self._child([sys.executable, "-m", "tmh.cli", *self.cli_argv(op)])

    def cli_traced(self, op, op_id, tracer: spans.Tracer) -> bytes:
        dump = WORK / "child-spans.json"
        out = self._child([sys.executable, str(HERE / "shim.py"), str(dump),
                           str(op_id), *self.cli_argv(op)])
        tracer.absorb(json.loads(dump.read_text()))
        dump.unlink()
        return out

    def fresh_ms(self, code) -> float:
        """Wall time of a fresh interpreter running ``code`` (ms)."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True)
        return (perf_counter() - t0) * 1e3

    def import_ms(self) -> float:
        """In-child time of ``import tmh.cli`` in a fresh interpreter (ms)."""
        code = ("import time; t = time.perf_counter(); import tmh.cli; "
                "print((time.perf_counter() - t) * 1e3)")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                             check=True, capture_output=True, text=True)
        return float(out.stdout)


def executor(prog: Program, workload: str):
    return {"cli_small": prog.cli_run, "report_ladder": prog.report,
            "embed_points": prog.embed}[workload]


class Checker:
    """Checks each op's first output in full; a repeat must reproduce it."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = checks.load_digests()
        self.first: dict[int, str] = {}
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, index: int, output: bytes):
        digest = checks.out_digest(output)
        if index not in self.first:
            self.first[index] = digest
            errs = checks.check(self.ops[index], output, self.digests)
        else:
            errs = [] if digest == self.first[index] else ["output differs from first run"]
        if errs:
            self.failed += 1
            name = (self.ops[index].get("spec") or self.ops[index]["base"])["metadata"]["name"]
            self.errors.append(f"op {index} ({name}): {'; '.join(errs)}")


def _percentile(samples, q) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def reference_ms() -> float:
    """Wall time of a fixed pure-Python Fraction loop (ms).  It shares no
    code with tmh, so it measures only how fast the machine is running."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    return (perf_counter() - t0) * 1e3


def timed_run(prog, workload, ops, seconds):
    """Closed loop over the ops until --seconds of op time have passed.

    On a shared VM the machine's speed drifts by tens of percent over
    seconds to minutes, for this code and for reference_ms() alike.  So
    reference_ms() runs after every op, outside the op's timing, and every
    time is scaled to the reference speed (REF_NOMINAL_MS) by the median
    of the REF_WINDOW reference times around it.  The set-up samples
    (fresh-interpreter ``import tmh.cli``) are spread over the run and
    scaled the same way.  Returns (scaled metrics, unscaled metrics,
    attempted, checker)."""
    run = executor(prog, workload)
    checker = Checker(ops)
    samples, refs, setup = [], [], []
    busy = 0.0
    while (busy < seconds or len(samples) < MIN_SAMPLES) and busy < MAX_STRETCH * seconds:
        if len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
            setup.append((len(samples), prog.fresh_ms("import tmh.cli") / 1e3))
        index = len(samples) % len(ops)
        t0 = perf_counter()
        out = run(ops[index])
        dt = perf_counter() - t0
        busy += dt
        samples.append(dt * 1e3)
        refs.append(reference_ms())
        checker(index, out)
    while len(setup) < SETUP_REPEATS:
        setup.append((len(samples) - 1, prog.fresh_ms("import tmh.cli") / 1e3))

    def speed(i):
        lo = max(0, i - REF_WINDOW // 2)
        return REF_NOMINAL_MS / statistics.median(refs[lo:lo + REF_WINDOW])

    scaled = [x * speed(i) for i, x in enumerate(samples)]
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli_small"
                             else resource.RUSAGE_SELF).ru_maxrss / 1024

    def metrics(times, setup_times):
        return {"op_ms_p50": statistics.median(times),
                "op_ms_p90": _percentile(times, 90),
                "ops_per_s": len(times) / sum(times) * 1e3,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": rss}

    return (metrics(scaled, [x * speed(i) for i, x in setup]),
            metrics(samples, [x for _, x in setup]) | {"reference_ms": statistics.median(refs)},
            len(samples), checker)


def traced_run(prog, workload, ops, seconds):
    """Each op untraced and traced, in alternating order; per-layer means
    come from the traced executions only.  The tracing overhead is the
    median over ops of traced minus untraced time of the same op."""
    run = executor(prog, workload)
    checker = Checker(ops)
    tracer = spans.Tracer()
    plain, traced = [], []
    busy = 0.0
    while (busy < seconds or len(traced) < MIN_SAMPLES) and busy < MAX_STRETCH * seconds:
        i = len(traced)
        index = i % len(ops)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                t0 = perf_counter()
                out = run(ops[index])
                dt = perf_counter() - t0
                plain.append(dt * 1e3)
            elif workload == "cli_small":
                t0 = perf_counter()
                out = prog.cli_traced(ops[index], i, tracer)
                dt = perf_counter() - t0
                traced.append(dt * 1e3)
            else:
                tracer.op = i
                tracer.install()
                try:
                    t0 = perf_counter()
                    out = run(ops[index])
                    dt = perf_counter() - t0
                finally:
                    tracer.uninstall()
                traced.append(dt * 1e3)
            busy += dt
            checker(index, out)
    metrics = spans.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_ms"] = statistics.median(t - p for t, p in zip(traced, plain))
    WORK.mkdir(exist_ok=True)
    (WORK / f"{workload}-spans.json").write_text(json.dumps(tracer.dump()))
    return metrics, len(plain) + len(traced), checker


def pentagon_selfcheck(prog, workload) -> list[str]:
    """Trace one pentagon report through the workload's own route and
    compare the call counts with PENTAGON_COUNTS."""
    op = {"kind": "report", "valid": True, "spec": workloads.fixed_corpus()[0]}
    tracer = spans.Tracer()
    if workload == "cli_small":
        op = {"kind": "cli", "valid": True, "spec": op["spec"],
              "argv": ["report", "--format", "json"]}
        prog.write_specs([op])
        prog.cli_traced(op, "selfcheck", tracer)
    else:
        tracer.op = "selfcheck"
        tracer.install()
        try:
            prog.report(op)
        finally:
            tracer.uninstall()
    counts = spans.op_counts(tracer, "selfcheck")
    return [f"pentagon: {name} called {counts.get(name, 0)} times, expected {n}"
            for name, n in PENTAGON_COUNTS.items() if counts.get(name, 0) != n]


def _timed_ms(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return (perf_counter() - t0) * 1e3


def run_probes(prog) -> dict[str, float]:
    """One untraced call each at the ROADMAP baseline sizes.  Inputs come
    from a fixed generator, independent of --seed."""
    polytope = prog.polytope
    w = workloads
    rng = random.Random("probes")
    out = {}
    polys = {}
    for m, bound in ((32, 5), (64, 6)):
        pts = w.lattice_polygon(rng, m, bound)
        t0 = perf_counter()
        polys[m] = polytope.polygon_from_vertices(pts)
        out[f"polytope.probe_polygon{m}_ms"] = (perf_counter() - t0) * 1e3
    base = w.lattice_polygon(rng, 24, 3)
    rows = [polytope.HalfSpace(n, off) for n, off in w.prism_rows(base, 2)]
    out["polytope.probe_prism24_ms"] = _timed_ms(polytope.build_polytope, 3, rows)
    for m, poly in polys.items():
        lam = dict(enumerate(w.lambda_cycle(rng, m)))
        pair = prog.charpair.CharacteristicPair(polytope.build_with_holes(poly, []), lam)
        out[f"mac.probe_freeness{m}_ms"] = _timed_ms(prog.mac.freeness_check, pair)
    # No 32+32 chart probe: at this commit its 32 Fourier-Motzkin calls on
    # 65 rows each take minutes, past the 180 s a run may last.
    for name, outer_m, hole_m, holes in (("chart16x16", 16, 16, 1),
                                          ("chart_oct8hex", 8, 6, 8)):
        pts = w.lattice_polygon(rng, outer_m, 3)
        pieces = w.placed_pieces(pts, [w.lattice_polygon(rng, hole_m, 2)] * holes)
        spec = w.spec_2d(name, rng, pts, pieces)
        pair = prog.cli.parse_spec_dict(spec).to_pair()
        out[f"mac.probe_{name}_ms"] = _timed_ms(prog.mac.embedding_chart, pair)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prog = Program()
    ops = workloads.GENERATORS[args.workload](args.seed)
    if args.workload == "cli_small":
        prog.write_specs(ops)

    errors = []
    if args.trace:
        metrics, attempted, checker = traced_run(prog, args.workload, ops, args.seconds)
        errors += pentagon_selfcheck(prog, args.workload)
        metrics["interp.start_ms"] = statistics.median(
            prog.fresh_ms("pass") for _ in range(SETUP_REPEATS))
        metrics["cli.import_ms"] = statistics.median(
            prog.import_ms() for _ in range(SETUP_REPEATS))
        metrics.update(run_probes(prog))
        units = PER_LAYER_UNITS
    else:
        metrics, unscaled, attempted, checker = timed_run(
            prog, args.workload, ops, args.seconds)
        units = END_TO_END_UNITS
    errors += checker.errors

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops {attempted}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:14.4f} {units[name]}")
    print(f"  {'fail_ratio':32s} {checker.failed / attempted:14.4f} "
          f"({checker.failed}/{attempted})")
    if not args.trace:
        print("  unscaled: " + "  ".join(f"{k} {v:.4f}" for k, v in unscaled.items()))
    for err in errors[:20]:
        print(f"  FAILED {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
