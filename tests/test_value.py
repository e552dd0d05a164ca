"""The frozen value types: equality, hashing, immutability, copy and pickle,
an import of the CLI that leaves ``dataclasses`` and ``inspect`` alone, and
a package source without ``assert`` or unused imports."""

import ast
import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tmh
from tmh.charpair import ValidationReport, validate, vertex_frame
from tmh.cli import SpecDocument
from tmh.dim4 import (
    HomologyProfile,
    IntersectionData,
    homology_groups,
    intersection_form,
    structure_flags,
)
from tmh.errors import NotValidatedError
from tmh.genus import chi_y
from tmh.mac import embedding_chart, kernel_data
from tmh.polytope import GlobalVertex, HalfSpace, Vertex

from instances import cp2_triangle, random_one_hole_2d, square_in_square, validated

BUILDS = {"cp2": cp2_triangle, "square_in_square": square_in_square,
          "one_hole_seed19": lambda: random_one_hole_2d(random.Random(19))}


def one_of_each(pair):
    """One instance of each of the 15 value types, built from the pair."""
    body = pair.body
    labels = tuple(f"f{i}" for i in range(body.facet_count))
    return {
        "HalfSpace": body.outer.halfspaces[0],
        "Vertex": body.outer.vertices[0],
        "SimplePolytope": body.outer,
        "GlobalVertex": body.global_vertices()[-1],
        "PolytopeWithHoles": body,
        "CharacteristicPair": pair,
        "ValidationReport": validate(pair),
        "VertexFrame": vertex_frame(pair, 0),
        "HomologyProfile": homology_groups(pair),
        "IntersectionData": intersection_form(pair),
        "StructureFlags": structure_flags(pair),
        "ChiYPolynomial": chi_y(pair),
        "EmbeddingChart": embedding_chart(pair),
        "KernelData": kernel_data(pair),
        "SpecDocument": SpecDocument("doc", "", body, labels, pair.lam, None),
    }


TYPES = list(one_of_each(validated(cp2_triangle())))


def test_one_of_each_covers_every_type():
    assert len(TYPES) == 15
    for name, value in one_of_each(validated(cp2_triangle())).items():
        assert type(value).__name__ == name


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
@pytest.mark.parametrize("name", TYPES)
def test_value_semantics(name, build):
    first = one_of_each(validated(build()))[name]
    second = one_of_each(validated(build()))[name]
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert not hasattr(first, "__dict__")
    field = type(first)._fields[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(first, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(first, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.extra = 1
    # the refused writes left the value as it was
    assert first == second and repr(first) == repr(second)
    assert repr(first).startswith(f"{name}({field}=")


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
@pytest.mark.parametrize("name", TYPES)
def test_copy_and_pickle_give_an_equal_object(name, build):
    value = one_of_each(validated(build()))[name]
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value)


def test_a_copied_pair_comes_back_unvalidated():
    # the copy is rebuilt through the constructor, so it gets a cache of its own:
    # the frames kept on the original do not carry over, and vertex_frame,
    # which serves kept frames first, refuses the copy until it is validated
    pair = validated(square_in_square())
    frames = {gv.gid: vertex_frame(pair, gv.gid) for gv in pair.body.global_vertices()}
    for again in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
        assert again == pair and not again.validated
        for vid in [*frames, *frames]:  # twice: a refused call keeps no frame
            with pytest.raises(NotValidatedError):
                vertex_frame(again, vid)
        assert validate(again).ok and again.validated
        assert {vid: vertex_frame(again, vid) for vid in frames} == frames


def test_shared_values_in_different_types_are_unequal():
    point, facets = (1, 2), frozenset({0, 1})
    vertex, global_vertex = Vertex(point, facets), GlobalVertex(0, 0, point, facets)
    assert vertex != global_vertex and global_vertex != vertex
    assert (vertex.point, vertex.facets) == (global_vertex.point, global_vertex.facets)
    assert vertex == Vertex(point, facets) and vertex != (point, facets)
    # equal field tuples, different classes
    halfspace = HalfSpace(point, facets)
    assert vertex != halfspace and halfspace != vertex and hash(vertex) == hash(halfspace)


def test_caches_stay_out_of_equality_and_repr():
    first, second = validated(square_in_square()), square_in_square()
    assert first.validated and not second.validated
    assert first == second and hash(first) == hash(second)
    assert "_cache" not in repr(first) and "_vertex_table" not in repr(first.body)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = "import sys; {}print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(tmh.__file__).parent.parent)}

    def modules(prelude):
        proc = subprocess.run([sys.executable, "-c", script.format(prelude)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    bare, cli = modules(""), modules("import tmh.cli; ")
    assert "tmh.cli" in cli and "tmh.value" in cli
    assert not {"dataclasses", "inspect"} & (cli - bare)


def test_package_source_has_no_assert():
    """Every check in tmh is a raise, so that python -O drops none of them."""
    sources = sorted(Path(tmh.__file__).parent.glob("*.py"))
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert "exactlin.py" in {path.name for path in sources}
    assert asserts == []


def test_package_modules_use_every_name_they_import():
    """No module of tmh but __init__, which re-exports, imports a name it never reads."""
    sources = [path for path in sorted(Path(tmh.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in read]
    assert "polytope.py" in {path.name for path in sources}
    assert unused == []


@pytest.mark.parametrize("cls", [HomologyProfile, ValidationReport, IntersectionData])
def test_shared_constructor_refuses_too_few_and_too_many_arguments(cls):
    least = len(cls._fields) - len(cls._defaults)
    for count in (least - 1, len(cls._fields) + 1):
        with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) takes"):
            cls(*range(count))
    for count in range(least, len(cls._fields) + 1):
        assert cls(*range(count))._fields == cls._fields


def test_validation_report_defaults_the_trailing_fields():
    report = ValidationReport(True)
    assert (report.ok, report.kind, report.facets, report.message) == (True, None, (), "valid")
    assert report == ValidationReport(True, None, (), "valid")
    assert ValidationReport(False, "summand") == ValidationReport(False, "summand", (), "valid")
    # the shared constructor is positional only
    with pytest.raises(TypeError):
        ValidationReport(ok=True)


def test_two_argument_intersection_data():
    data = IntersectionData((("facet", 0),), ((1,),))
    assert data.one_three_pairing is None
    assert data == IntersectionData((("facet", 0),), ((1,),), None)
    assert repr(data) == ("IntersectionData(generators=(('facet', 0),), matrix=((1,),), "
                          "one_three_pairing=None)")
