"""README.md's examples, run as written: the library session prints what its
comments say, the spec document validates, and the fiber sum of that spec
with itself reports the c2 and c1_squared the README states."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from tmh.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language):
    """The README's fenced code blocks in one language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_library_session_prints_what_its_comments_say():
    (session,) = blocks("python")
    stated = [line.partition("#")[2].strip() for line in session.splitlines()
              if line.startswith("print(")]
    assert stated == ["(1, -1, 1)", "(9, 3)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(session, str(README), "exec", optimize=0), {})  # asserts kept under -O
    assert out.getvalue().splitlines() == stated


def test_spec_document_validates(tmp_path):
    (spec,) = blocks("json")
    path = tmp_path / "pentagon.json"
    path.write_text(spec, encoding="utf-8")
    out = io.StringIO()
    assert run(["validate", str(path)], out=out) == 0
    assert out.getvalue() == "pentagon-y: valid characteristic pair (m=5, s=0)\n"


def test_fibersum_of_the_spec_with_itself_reports_the_stated_chern_numbers(
        tmp_path, monkeypatch):
    (spec,) = blocks("json")
    (tmp_path / "pentagon.json").write_text(spec, encoding="utf-8")
    (commands,) = [block for block in blocks("sh") if "tmh fibersum" in block]
    monkeypatch.chdir(tmp_path)
    for line in commands.splitlines():
        command, _, comment = line.partition("#")
        tmh, *argv = shlex.split(command)
        out = io.StringIO()
        assert tmh == "tmh" and run(argv, out=out) == 0
    # the last command is the report, and its comment reads "key = value, ..."
    stated = {key: int(value) for key, value in re.findall(r"(\w+) = (-?\d+)", comment)}
    assert stated == {"c2": 10, "c1_squared": 38}
    dim4 = json.loads(out.getvalue())["dim4"]
    assert {key: dim4[key] for key in stated} == stated
