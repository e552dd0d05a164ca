"""The golden corpus: CLI outputs recorded byte for byte (see test_golden.py).

``tests/golden/specs/`` holds the spec documents and ``tests/golden/`` one
file per recorded command output; ``tests/golden/MANIFEST.json`` lists
each command with its exit code.  The corpus covers the named instances,
seeded random 2D (one and several holes) and 3D pairs, the Y + Y fiber
sum, and invalid specs of every failure shape (a non-primitive vector, a
failing 2-face in 2D, a failing 2-face and 3-face in 3D).  Large outputs
(2D m = 64 and 128, the 64+31 and 128+128 one-hole fiber sums, an octagon
with 8 holes, 3D prisms of 50 and 98 facets) are pinned by a ``sha256`` in
their manifest entry in place of a golden file: ``report`` (json and text),
``ring`` and ``mac --point`` of each.  Any change to these bytes must be
stated in CHANGES.md.  To record the corpus again:

    PYTHONPATH=src python tests/golden_corpus.py

To replay it without pytest, on any interpreter (exit 1 on a mismatch):

    PYTHONPATH=src:tests python -c 'import golden_corpus as g; raise SystemExit(bool(g.check()))'
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from tmh.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = GOLDEN / "specs"


def manifest():
    return json.loads((GOLDEN / "MANIFEST.json").read_text())


def entry_id(entry):
    """The golden file name, or for a digest entry the name it would have."""
    return entry.get("golden") or _entry(entry["command"], entry["specs"],
                                         entry["args"])["golden"] + ".sha256"


def compared(entry, data):
    """(got, expected): the bytes and the golden file's, or their sha256 and the pinned one."""
    if "sha256" in entry:
        return hashlib.sha256(data).hexdigest(), entry["sha256"]
    return data, (GOLDEN / entry["golden"]).read_bytes()


def check():
    """Replay every manifest entry; the ids of those whose exit code or bytes differ."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for entry in manifest():
            code, data = output(entry, SPECS, Path(tmp))
            got, expected = compared(entry, data)
            if code != entry["exit"] or got != expected:
                failures.append(entry_id(entry))
    for name in failures:
        print(f"golden mismatch: {name}")
    return failures


def _run(argv):
    """(exit code, stdout); the entry's stderr, such as an expected error
    line, is captured and dropped, so a passing replay prints nothing."""
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(argv, out=out)
    return code, out.getvalue()


def _argv(entry, spec_dir, out_path=None):
    argv = [entry["command"], *(str(spec_dir / f"{s}.json") for s in entry["specs"]),
            *entry["args"]]
    if entry["command"] == "fibersum":
        argv += ["-o", str(out_path)]
    return argv


def output(entry, spec_dir, tmp_dir):
    """(exit code, recorded bytes): stdout, or the written file for fibersum."""
    out_path = tmp_dir / "fibersum.json"
    code, stdout = _run(_argv(entry, spec_dir, out_path))
    if entry["command"] == "fibersum":
        return code, out_path.read_bytes()
    return code, stdout.encode()


def _polygon_spec(name, vertices, lam, holes=()):
    """Vertex-cycle spec; facet i joins vertex i to vertex i + 1."""
    def pts(vs):
        return [[str(Fraction(c)) for c in p] for p in vs]

    char = {f"e{i + 1}": list(v) for i, v in enumerate(lam)}
    for k, (_, hole_lam) in enumerate(holes, start=1):
        char.update({f"h{k}.e{i + 1}": list(v) for i, v in enumerate(hole_lam)})
    return {"dimension": 2, "metadata": {"name": name},
            "outer": {"vertices": pts(vertices)},
            "holes": [{"vertices": pts(hv)} for hv, _ in holes],
            "characteristic": char}


def _halfspace_spec(name, pair):
    """Half-space spec of any pair; labels f1.. on the outer, hK.f1.. on holes."""
    body = pair.body
    char, comps = {}, []
    for ci, comp in enumerate(body.components):
        prefix = f"h{ci}." if ci else ""
        rows = []
        for local, h in enumerate(comp.halfspaces):
            label = f"{prefix}f{local + 1}"
            rows.append({"label": label, "normal": list(h.normal),
                         "offset": str(h.offset)})
            char[label] = list(pair.lam[body.facet_offsets[ci] + local])
        comps.append({"halfspaces": rows})
    return {"dimension": body.dim, "metadata": {"name": name},
            "outer": comps[0], "holes": comps[1:], "characteristic": char}


def _corpus():
    """(spec name, spec dict) pairs, deterministic."""
    from instances import (
        PENTAGON_LAMBDA,
        PENTAGON_VERTICES,
        random_multi_hole_2d,
        random_one_hole_2d,
        random_one_hole_3d,
        random_quasitoric_3d,
        unit_cube,
        pair_from_components,
    )

    square = [(0, 0), (6, 0), (6, 6), (0, 6)]
    unit = [(0, 0), (1, 0), (1, 1), (0, 1)]
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    specs = [
        ("pentagon", _polygon_spec("pentagon-y", PENTAGON_VERTICES, PENTAGON_LAMBDA)),
        ("cp2", {"dimension": 2, "metadata": {"name": "cp2"},
                 "outer": {"halfspaces": [
                     {"label": "a", "normal": [0, 1], "offset": 0},
                     {"label": "b", "normal": [1, 0], "offset": 0},
                     {"label": "c", "normal": [-1, -1], "offset": -1}]},
                 "characteristic": {"a": [0, 1], "b": [1, 0], "c": [-1, -1]}}),
        ("cp1xcp1", _polygon_spec("cp1xcp1", unit, axes)),
    ]
    for k in range(4):
        specs.append((f"hirzebruch{k}", _polygon_spec(
            f"hirzebruch-{k}", square, [(1, 0), (0, 1), (-1, k), (0, -1)])))
    specs.append(("square_in_square", _polygon_spec(
        "square-in-square", [(0, 0), (4, 0), (4, 4), (0, 4)], axes,
        [([(1, 1), (2, 1), (2, 2), (1, 2)], axes)])))
    specs.append(("hirzebruch1_cp2", _polygon_spec(
        "hirzebruch-1#cp2", square, [(1, 0), (0, 1), (-1, 1), (0, -1)],
        [([(1, 1), (3, Fraction(3, 2)), (Fraction(3, 2), 3)],
          [(0, -1), (1, 1), (-1, 0)])])))

    rng = random.Random(20260)
    for i in range(3):
        specs.append((f"one_hole_2d_{i}",
                      _halfspace_spec(f"one-hole-2d-{i}", random_one_hole_2d(rng))))
    for i, holes in enumerate((2, 3)):
        specs.append((f"multi_hole_2d_{i}", _halfspace_spec(
            f"multi-hole-2d-{i}", random_multi_hole_2d(rng, holes=holes))))
    for i in range(2):
        specs.append((f"quasitoric_3d_{i}",
                      _halfspace_spec(f"quasitoric-3d-{i}", random_quasitoric_3d(rng))))
    specs.append(("one_hole_3d", _halfspace_spec("one-hole-3d", random_one_hole_3d(rng))))

    # invalid: one spec per failure shape
    bad = list(PENTAGON_LAMBDA)
    bad[2] = (2, -4)
    specs.append(("bad_primitivity", _polygon_spec("bad-primitivity",
                                                   PENTAGON_VERTICES, bad)))
    specs.append(("bad_2d_edge", _polygon_spec(
        "bad-2d-edge", unit, [(1, 0), (1, 0), (-1, 0), (0, -1)])))
    specs.append(("bad_2d_hole", _polygon_spec(
        "bad-2d-hole", [(0, 0), (4, 0), (4, 4), (0, 4)], axes,
        [([(1, 1), (2, 1), (2, 2), (1, 2)], [(1, 0), (1, 0), (-1, 0), (0, -1)])])))
    cube = unit_cube()
    standard = {(1, 0, 0): (1, 0, 0), (0, 1, 0): (0, 1, 0), (0, 0, 1): (0, 0, 1),
                (-1, 0, 0): (-1, 0, 0), (0, -1, 0): (0, -1, 0), (0, 0, -1): (0, 0, -1)}
    for name, normal, vec in (("bad_3d_2face", (0, 1, 0), (1, 2, 0)),
                              ("bad_3d_3face", (0, 0, 1), (1, 1, 2))):
        table = {**standard, normal: vec}
        lam = [table[h.normal] for h in cube.halfspaces]
        specs.append((name, _halfspace_spec(
            name.replace("_", "-"), pair_from_components(cube, [], [lam]))))
    return specs


def _large_corpus():
    """(spec name, spec dict) pairs of the cases pinned by digest, deterministic."""
    from instances import (
        fibersum_pairs,
        random_many_sided_quasitoric_2d,
        random_prism_3d,
        random_quasitoric_2d,
    )

    rng = random.Random(20261)

    def polygon(m):
        return random_many_sided_quasitoric_2d(rng, m, bound=8)

    pairs = [(f"polygon_{m}", polygon(m)) for m in (64, 128)]
    pairs += [(f"fibersum_{a}_{b}", fibersum_pairs(polygon(a), [polygon(b)]))
              for a, b in ((64, 31), (128, 128))]
    pairs.append(("octagon_8_holes", fibersum_pairs(
        polygon(8), [random_quasitoric_2d(rng) for _ in range(8)])))
    pairs += [(f"prism_{m + 2}", random_prism_3d(rng, m)) for m in (48, 96)]
    return [(name, _halfspace_spec(name.replace("_", "-"), pair)) for name, pair in pairs]


def _point_in(spec_path):
    """A rational point of the body: an interior point near an outer vertex
    when one is free of holes, else that outer vertex."""
    from tmh.cli import parse_spec

    body = parse_spec(str(spec_path)).body
    corner = body.outer.vertices[0].point
    centre = body.outer.centroid()
    for t in (Fraction(1, 8), Fraction(1, 32), Fraction(0)):
        point = tuple(c + t * (m - c) for c, m in zip(corner, centre))
        if body.contains(point):
            return ",".join(str(c) for c in point)
    raise AssertionError("no point found")


def _entry(command, specs, args=()):
    """A manifest entry (without its exit code)."""
    golden = f"{'+'.join(specs)}.{command}"
    suffix = "json" if command == "fibersum" or "json" in args else "txt"
    return {"command": command, "specs": list(specs), "args": list(args),
            "golden": f"{golden}.{suffix}"}


def _report_entries(name):
    return [_entry("report", [name], ["--format", fmt]) for fmt in ("json", "text")]


SUBCOMMAND_SPECS = ("pentagon", "cp2", "square_in_square", "hirzebruch1_cp2",
                    "one_hole_2d_0", "multi_hole_2d_0", "quasitoric_3d_0",
                    "one_hole_3d", "bad_primitivity", "bad_2d_edge", "bad_3d_3face")


def record():
    """Write the corpus specs, run every command, and store the outputs."""
    SPECS.mkdir(parents=True, exist_ok=True)
    names = []
    for name, spec in _corpus():
        (SPECS / f"{name}.json").write_text(json.dumps(spec, sort_keys=True, indent=2) + "\n")
        names.append(name)
    entries = [e for name in names for e in _report_entries(name)]
    for name in SUBCOMMAND_SPECS:
        entries += [_entry(command, [name])
                    for command in ("validate", "invariants", "homology", "ring")]
        entries.append(_entry("mac", [name],
                              [f"--point={_point_in(SPECS / f'{name}.json')}"]))
    fibersum = _entry("fibersum", ["pentagon", "pentagon"])
    entries.append(fibersum)
    scratch = GOLDEN / ".record"
    scratch.mkdir(exist_ok=True)

    def store(batch):
        for e in batch:
            e["exit"], data = output(e, SPECS, scratch)
            (GOLDEN / e["golden"]).write_bytes(data)

    store(entries)
    # the Y + Y fiber sum is then reported like every other spec
    (SPECS / "y_plus_y.json").write_bytes((GOLDEN / fibersum["golden"]).read_bytes())
    entries += _report_entries("y_plus_y")
    store(entries[-2:])
    (scratch / "fibersum.json").unlink()
    scratch.rmdir()
    (GOLDEN / "MANIFEST.json").write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} outputs of {len(names) + 1} specs under {GOLDEN}")
    record_digests()


def record_digests():
    """Write the large specs and pin each output by its sha256 in the manifest:
    ``report --format json`` and ``text``, ``ring`` and ``mac --point`` of
    every case."""
    entries = [e for e in manifest() if "sha256" not in e]
    pinned, large = [], _large_corpus()
    for name, spec in large:
        path = SPECS / f"{name}.json"
        path.write_text(json.dumps(spec, sort_keys=True, indent=2) + "\n")
        pinned += [_entry("report", [name], ["--format", fmt]) for fmt in ("json", "text")]
        pinned += [_entry("ring", [name]),
                   _entry("mac", [name], [f"--point={_point_in(path)}"])]
    with tempfile.TemporaryDirectory() as tmp:
        for e in pinned:
            del e["golden"]
            e["exit"], data = output(e, SPECS, Path(tmp))
            e["sha256"] = hashlib.sha256(data).hexdigest()
    (GOLDEN / "MANIFEST.json").write_text(json.dumps(entries + pinned, indent=1) + "\n")
    print(f"pinned {len(pinned)} outputs of {len(large)} large specs by sha256")


if __name__ == "__main__":
    record()
