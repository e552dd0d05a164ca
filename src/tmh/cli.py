"""Command-line front end: parse spec documents, run validations and
invariant computations, compose fiber sums, and emit reports.

Spec documents are JSON.  All numbers are exact: integers are written as
JSON ints and rationals as strings "p/q"; float literals are rejected so
no precision can silently leak in.  Reports are emitted as text or as
canonical JSON, the bytes of ``json.dumps(sort_keys=True, indent=2)``:
ASCII, a trailing newline, and a TypeError for any value that is not JSON.
Identical inputs produce byte-identical output.

Every command prints from the same section builders: ``report`` joins
them, and ``invariants``, ``homology``, ``ring`` and ``mac`` print their
own section line by line (``mac --point`` adds the embedding to it).
One table maps errors to exit codes: 1 for malformed input or arguments,
2 for an invalid pair, a non-generic direction or a point outside the
body, 3 for requests out of scope and for any integer past
sys.get_int_max_str_digits(), which no output or message can write.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import dim4, genus, mac
from .charpair import CharacteristicPair, all_signs, is_positive_omniorientation, validate
from .errors import (DomainError, GenericityError, GeometryError, InternalError, ScopeError,
                     SpecParseError)
from .exactlin import det_exact
from .polytope import (
    HalfSpace,
    SimplePolytope,
    build_polytope,
    build_with_holes,
    place_holes,
    polygon_from_vertices,
)
from .value import Value

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_SCOPE = 3


# ---------------------------------------------------------------------------
# document parsing


def _reject_float(text):
    raise SpecParseError(
        f"float literal {text!r} is not allowed; write rationals as \"p/q\"")


# "p/q", read as Fraction(int(p), int(q)): the value and error text of Fraction("p/q")
_RATIO = re.compile(r"\s*([-+]?\d+)/(\d+)\s*", re.ASCII)
_EXPONENT = re.compile(r"\s*[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+\s*", re.ASCII)


def _parse_rational(value, where: str, *args) -> Fraction:
    """An int, "p/q" or decimal string as a Fraction; errors name where.format(*args)."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise SpecParseError(f"{where.format(*args)}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        ratio = _RATIO.fullmatch(value)
        if ratio is None:
            # Fraction also reads exponents, and 1e10000000 takes seconds to expand
            if _EXPONENT.fullmatch(value):
                raise SpecParseError(f"{where.format(*args)}: bad rational {value!r}: "
                                     "exponents are not allowed")
            # Fraction takes "_" digit groups from 3.11 on and non-ASCII digits on all versions
            if not re.fullmatch(r"\s*[-+]?\d*\.?\d*\s*", value, re.ASCII):
                raise SpecParseError(f"{where.format(*args)}: bad rational {value!r}: "
                                     "expected p/q or a decimal")
        try:
            return Fraction(int(ratio[1]), int(ratio[2])) if ratio else Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecParseError(f"{where.format(*args)}: bad rational {value!r}: {exc}") from exc
    raise SpecParseError(f"{where.format(*args)}: expected an integer or \"p/q\" string")


def _parse_int_vector(value, length: int, where: str, *args) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise SpecParseError(f"{where.format(*args)}: expected a list of {length} integers")
    for i, x in enumerate(value):
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise SpecParseError(f"{where.format(*args)}[{i}]: expected an integer")
    return tuple(value)


def _parse_component(obj, dim: int, where: str, default_prefix: str):
    """Returns (SimplePolytope, facet labels in facet order)."""
    if not isinstance(obj, dict):
        raise SpecParseError(f"{where}: expected an object")
    if "halfspaces" in obj:
        halfspaces = obj["halfspaces"]
        if not isinstance(halfspaces, list) or not halfspaces:
            raise SpecParseError(f"{where}.halfspaces: expected a nonempty list")
        labels, hs = [], []
        for i, entry in enumerate(halfspaces):
            if not isinstance(entry, dict):
                raise SpecParseError(f"{where}.halfspaces[{i}]: expected an object")
            label = entry.get("label")
            if not isinstance(label, str) or not label:
                raise SpecParseError(f"{where}.halfspaces[{i}].label: expected a nonempty string")
            normal = _parse_int_vector(entry.get("normal"), dim, "{}.halfspaces[{}].normal",
                                       where, i)
            if not any(normal):
                raise SpecParseError(f"{where}.halfspaces[{i}].normal: expected a nonzero vector")
            offset = _parse_rational(entry.get("offset"), "{}.halfspaces[{}].offset", where, i)
            labels.append(label)
            hs.append(HalfSpace(normal, offset))
        build, args = build_polytope, (dim, hs)
    elif "vertices" in obj:
        if dim != 2:
            raise SpecParseError(f"{where}: vertex cycles are only supported "
                                 "in dimension 2")
        verts = obj["vertices"]
        if not isinstance(verts, list) or len(verts) < 3:
            raise SpecParseError(f"{where}.vertices: expected at least 3 points")
        points = []
        for i, p in enumerate(verts):
            if not isinstance(p, list) or len(p) != 2:
                raise SpecParseError(f"{where}.vertices[{i}]: expected a pair")
            points.append(tuple(_parse_rational(c, "{}.vertices[{}][{}]", where, i, j)
                                for j, c in enumerate(p)))
        labels = obj.get("labels")
        if labels is None:
            labels = [f"{default_prefix}e{i + 1}" for i in range(len(points))]
        if (not isinstance(labels, list) or len(labels) != len(points)
                or not all(isinstance(x, str) and x for x in labels)):
            raise SpecParseError(
                f"{where}.labels: expected one label per vertex-cycle edge")
        build, args = polygon_from_vertices, (points,)
    else:
        raise SpecParseError(f"{where}: needs either \"halfspaces\" or \"vertices\"")
    try:
        return build(*args), list(labels)
    except GeometryError as exc:
        raise SpecParseError(f"{where}: {exc}") from exc


class SpecDocument(Value):
    # body is a PolytopeWithHoles; facet_labels are in global facet order, and
    # lam holds one integer vector per label, in the same order
    __slots__ = ("name", "description", "body", "facet_labels", "lam", "nu")

    def to_pair(self) -> CharacteristicPair:
        return CharacteristicPair(self.body, self.lam)


def parse_spec_dict(doc, source: str = "<spec>") -> SpecDocument:
    if not isinstance(doc, dict):
        raise SpecParseError(f"{source}: top level must be an object")
    dim = doc.get("dimension")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise SpecParseError("dimension: expected an integer >= 2")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise SpecParseError("metadata: expected an object")
    name = meta.get("name", source)
    description = meta.get("description", "")
    for key, value in (("name", name), ("description", description)):
        if not isinstance(value, str):
            raise SpecParseError(f"metadata.{key}: expected a string")

    outer, labels = _parse_component(doc.get("outer"), dim, "outer", "")
    hole_objs = doc.get("holes")
    if hole_objs is not None and not isinstance(hole_objs, list):
        raise SpecParseError("holes: expected a list")
    holes = []
    for k, hole_obj in enumerate(hole_objs or []):
        hole, hole_labels = _parse_component(
            hole_obj, dim, f"holes[{k}]", f"h{k + 1}.")
        holes.append(hole)
        labels.extend(hole_labels)
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise SpecParseError(f"duplicate facet labels: {dupes}")
    try:
        body = build_with_holes(outer, holes)
    except GeometryError as exc:
        raise SpecParseError(f"holes: {exc}") from exc

    char = doc.get("characteristic")
    if not isinstance(char, dict):
        raise SpecParseError("characteristic: expected an object")
    if set(char) != set(labels):
        missing = sorted(set(labels) - set(char))
        extra = sorted(set(char) - set(labels))
        raise SpecParseError(
            f"characteristic: labels do not match facets "
            f"(missing {missing}, unknown {extra})")
    # parsed in document order, so the first bad vector named is the first written
    by_label = {label: _parse_int_vector(vec, dim, "characteristic[{!r}]", label)
                for label, vec in char.items()}

    nu = doc.get("nu")
    if nu is not None:
        nu = _parse_int_vector(nu, dim, "nu")
    return SpecDocument(name, description, body, tuple(labels),
                        tuple(by_label[label] for label in labels), nu)


def parse_spec(path: str) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path}: not UTF-8 text") from exc
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SpecParseError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise SpecParseError(f"{path}: invalid JSON: integer literal too long") from exc
    return parse_spec_dict(doc, source=path)


# ---------------------------------------------------------------------------
# report assembly


def _chi_y_section(pair, nu) -> dict:
    poly = genus.chi_y(pair, nu)
    return {
        "nu": list(poly.nu),
        "coefficients": list(poly.coefficients),
        "top_chern": poly.top_chern,
        "signature": poly.signature,
        "todd": poly.todd,
    }


def _homology_section(pair) -> dict:
    profile = dim4.homology_groups(pair)
    return {
        "betti": list(profile.betti),
        "cell_counts": list(profile.cell_counts),
        "euler_characteristic": profile.m,
    }


def _intersection_section(doc: SpecDocument, data, signature: int) -> dict:
    """The section of an intersection form; its signature is chi_1 of the genus.  A
    unimodular form of rank r and signature s has determinant
    (-1)^((r - s) / 2), which certifies the matrix and chi_1 together."""
    det, r = det_exact(data.matrix), len(data.matrix)
    if (r - signature) % 2 or abs(signature) > r or det != (-1) ** ((r - signature) // 2):
        raise InternalError(f"intersection form of rank {r} has determinant {det}, "
                            f"not that of a unimodular form of signature {signature}")
    return {
        "generators": [doc.facet_labels[g] if kind == "facet" else f"S{g}"
                       for kind, g in data.generators],
        "matrix": [list(row) for row in data.matrix],
        "one_three_pairing": data.one_three_pairing,
        "determinant": det,
        "signature": signature,
    }


def _moment_angle_section(pair) -> dict:
    kdata = mac.kernel_data(pair)
    return {
        "torus_rank": kdata.torus_rank,
        "kernel_basis_columns": [list(vec) for vec in kdata.kernel_basis],
        "freeness": mac.freeness_check(pair),
    }


def build_report(doc: SpecDocument) -> dict:
    pair = doc.to_pair()
    result = validate(pair)
    report = {
        "name": doc.name,
        "dimension": pair.body.dim,
        "facet_count": pair.body.facet_count,
        "hole_count": pair.body.hole_count,
        "vertex_count": pair.body.vertex_count,
        "validation": {
            "ok": result.ok,
            "kind": result.kind,
            "facets": [doc.facet_labels[f] for f in result.facets],
            "message": result.message,
        },
    }
    if not result.ok:
        return report

    signs = all_signs(pair)
    report["vertex_signs"] = [
        {
            "vertex": gv.gid,
            "component": gv.component,
            "point": [str(c) for c in gv.point],
            "sign": signs[gv.gid],
        }
        for gv in pair.body.global_vertices()
    ]
    report["positive_omniorientation"] = is_positive_omniorientation(pair)
    report["chi_y"] = _chi_y_section(pair, doc.nu)

    if pair.body.dim == 2:
        c1sq, c2 = dim4.chern_numbers_dim4(pair)
        report["dim4"] = {
            **_homology_section(pair),
            "c1_squared": c1sq,
            "c2": c2,
            "intersection": None if pair.body.hole_count > 1 else _intersection_section(
                doc, dim4.intersection_form(pair), report["chi_y"]["signature"]),
        }

    flags = dim4.structure_flags(pair)
    report["structure_flags"] = {
        "invariant_almost_complex": flags.invariant_almost_complex,
        "invariant_symplectic": (
            "excluded" if flags.invariant_symplectic_excluded
            else "unobstructed by this tool"),
        "kahler": ("excluded" if flags.kahler_excluded
                   else "unobstructed by this tool"),
        "complex_excluded_by_bmy": flags.complex_excluded_by_bmy,
    }
    report["moment_angle"] = _moment_angle_section(pair)
    return report


# each JSON scalar's text, by exact type: bool is not written as an int
_LEAVES = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json(value, pad: str) -> str:
    kind, inner = type(value), pad + "  "
    if kind in _LEAVES:
        return _LEAVES[kind](value)
    if kind is dict:  # a key that is not a str fails in sorted() or in the encoder
        ends, items = "{}", (f"{_LEAVES[str](k)}: {_json(value[k], inner)}" for k in sorted(value))
    elif kind is list or kind is tuple:
        kinds = set(map(type, value))
        leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        ends, items = "[]", map(leaf, value) if leaf else (_json(v, inner) for v in value)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    body = (",\n" + inner).join(items)
    return f"{ends[0]}\n{inner}{body}\n{pad}{ends[1]}" if value else ends


def render_json(report: dict) -> str:
    """The bytes of ``json.dumps(report, sort_keys=True, indent=2)`` plus a
    newline: ASCII only, and a TypeError for any value that is not JSON."""
    return _json(report, "") + "\n"


def _text_lines(value, key="", indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if key:
            yield f"{pad}{key}:"
            indent += 1
            pad = "  " * indent
        for k in value:
            yield from _text_lines(value[k], k, indent)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        yield f"{pad}{key}:"
        for item in value:
            if isinstance(item, dict):
                flat = "  ".join(f"{k}={_scalar(v)}" for k, v in item.items())
                yield f"{pad}  - {flat}"
            else:
                yield f"{pad}  - {_scalar(item)}"
    else:
        yield f"{pad}{key}: {_scalar(value)}"


def _scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(str(x) for x in value) + "]"
    if value is None:
        return "none"
    return str(value)


def render_text(report: dict) -> str:
    return "\n".join(_text_lines(report)).lstrip() + "\n"


# ---------------------------------------------------------------------------
# fiber sum composition


def _halfspace_json(poly: SimplePolytope, labels) -> dict:
    return {"halfspaces": [{"label": label, "normal": list(h.normal),
                            "offset": str(h.offset)}
                           for label, h in zip(labels, poly.halfspaces)]}


def compose_fibersum(base: SpecDocument, pieces, scale=None) -> dict:
    """Place each quasitoric piece as a hole of the base and emit the
    composed spec document as a JSON-ready dict."""
    for i, piece in enumerate(pieces):
        if piece.body.hole_count != 0:
            raise ScopeError(f"piece {i + 1} has holes; fiber-sum pieces "
                             "must be quasitoric")
        if piece.body.dim != base.body.dim:
            raise ScopeError(f"piece {i + 1} dimension mismatch")
    new_holes = place_holes(base.body.outer, [p.body.outer for p in pieces], scale=scale).holes
    # the base's own components first, then the new pieces
    cuts, labels = base.body.facet_offsets, base.facet_labels
    parts = [_halfspace_json(comp, labels[cuts[k]:cuts[k + 1]])
             for k, comp in enumerate(base.body.components)]
    char = {label: list(vec) for label, vec in zip(labels, base.lam)}
    for i, (piece, hole) in enumerate(zip(pieces, new_holes), start=1):
        hole_labels = [f"p{i}.{label}" for label in piece.facet_labels]
        if set(hole_labels) & set(char):
            raise SpecParseError(f"piece {i} label prefix collides")
        parts.append(_halfspace_json(hole, hole_labels))
        char.update(zip(hole_labels, map(list, piece.lam)))

    name = base.name + "".join(f"+{p.name}" for p in pieces)
    # place_holes never sees the base's own holes, so this is what rejects
    # a piece that hits one; without them, place_holes checked this body
    if base.body.holes:
        build_with_holes(base.body.outer, list(base.body.holes) + list(new_holes))
    return {
        "dimension": base.body.dim,
        "metadata": {"name": name, "description": "fiber sum composition"},
        "outer": parts[0],
        "holes": parts[1:],
        "characteristic": char,
    }


# ---------------------------------------------------------------------------
# command dispatch


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token such as -1/8,2 is an option value, not an unknown option
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        raise SpecParseError(f"argument error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tmh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd in ("validate", "invariants", "homology", "ring", "mac", "report"):
        p = sub.add_parser(cmd)
        p.add_argument("spec")
        if cmd == "invariants":
            p.add_argument("--nu", help="comma-separated integer direction")
        if cmd == "mac":
            p.add_argument("--point", help="comma-separated rational point")
        if cmd == "report":
            p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("fibersum")
    p.add_argument("base")
    p.add_argument("pieces", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", help="explicit scale factor p/q for the pieces")
    return parser


def _option_vector(text: str, dim: int, option: str) -> tuple[Fraction, ...]:
    """A comma-separated --nu or --point value: one rational per dimension."""
    parts = text.split(",")
    if len(parts) != dim:
        raise SpecParseError(f"{option}: expected {dim} comma-separated numbers")
    return tuple(_parse_rational(x, f"{option}[{i}]") for i, x in enumerate(parts))


def _print_section(section: dict, out, rows=()) -> None:
    """Print a report section as the subcommands do: one `key: value` line
    per entry, lists in Python notation, and one indented line per item for
    the entries named in ``rows``."""
    for key, value in section.items():
        if key in rows:
            print(f"{key}:", file=out)
            for item in value:
                print(f"  {item}", file=out)
        else:
            print(f"{key}: {value if isinstance(value, list) else _scalar(value)}", file=out)


def _command(args, out) -> int:
    if args.command == "fibersum":
        scale = None if args.scale is None else _parse_rational(args.scale, "--scale")
        if scale is not None and scale <= 0:
            raise SpecParseError(f"--scale: expected a positive rational, got {scale}")
        base = parse_spec(args.base)
        pieces = [parse_spec(p) for p in args.pieces]
        payload = render_json(compose_fibersum(base, pieces, scale=scale))
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.output}", file=out)
        return EXIT_OK

    doc = parse_spec(args.spec)

    if args.command == "report":
        report = build_report(doc)
        render = render_text if args.format == "text" else render_json
        print(render(report), end="", file=out)
        return EXIT_OK if report["validation"]["ok"] else EXIT_INVALID

    dim = doc.body.dim
    if args.command in ("homology", "ring") and dim != 2:
        raise ScopeError(f"{args.command} needs dimension 2, got {dim}")
    nu, point = doc.nu, None
    if args.command == "invariants" and args.nu is not None:
        nu = _option_vector(args.nu, dim, "--nu")
        if any(c.denominator != 1 for c in nu):
            raise SpecParseError(f"--nu: expected integers, got {args.nu}")
    if args.command == "mac" and args.point is not None:
        point = _option_vector(args.point, dim, "--point")
    pair = doc.to_pair()
    result = validate(pair)
    facets = [doc.facet_labels[f] for f in result.facets]
    if args.command == "validate":
        if result.ok:
            print(f"{doc.name}: valid characteristic pair "
                  f"(m={pair.body.facet_count}, s={pair.body.hole_count})",
                  file=out)
            return EXIT_OK
        print(f"{doc.name}: INVALID ({result.kind}) at {facets}: "
              f"{result.message}", file=out)
        return EXIT_INVALID
    if not result.ok:
        print(f"validation failed ({result.kind}) at {facets}: {result.message}",
              file=out)
        return EXIT_INVALID

    rows = ()
    if args.command == "invariants":
        section = _chi_y_section(pair, nu)
        section = {"chi_y coefficients": section.pop("coefficients"), **section}
    elif args.command == "homology":
        section = _homology_section(pair)
    elif args.command == "ring":
        # the form comes first, so a body it refuses costs no genus; chi_1 does
        # not depend on the direction, so a pinned nu is not used
        section = _intersection_section(doc, dim4.intersection_form(pair),
                                        genus.chi_y(pair).signature)
        rows = ("matrix",)
    else:
        section = _moment_angle_section(pair)
        if point is not None:
            coords = mac.embedding_chart(pair).evaluate(point)
            section["embedding"] = [f"{label}: {x}" for label, x in zip(doc.facet_labels, coords)]
            rows = ("embedding",)
    _print_section(section, out, rows)
    return EXIT_OK


# the exit code of each error that reaches the command line
_EXIT_CODES = {
    SpecParseError: EXIT_IO,
    OSError: EXIT_IO,
    GenericityError: EXIT_INVALID,
    DomainError: EXIT_INVALID,
    GeometryError: EXIT_INVALID,  # composition failures: placement, containment
    ScopeError: EXIT_SCOPE,
}


def run(argv, out=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        return _command(_build_parser().parse_args(argv), out or sys.stdout)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    except ValueError as exc:
        # str() of an int past sys.get_int_max_str_digits(), in output or in a message
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an integer with over {sys.get_int_max_str_digits()} digits cannot be "
              "written", file=sys.stderr)
        return EXIT_SCOPE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
