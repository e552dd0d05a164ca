"""Byte-for-byte golden outputs of the CLI on the corpus in tests/golden/.

Every recorded output (``tests/golden/MANIFEST.json``) must come out the
same, exit code included.  golden_corpus.py says how the corpus was made
and how to record it again.
"""

import pytest

from golden_corpus import GOLDEN, SPECS, manifest, output


@pytest.mark.parametrize("entry", manifest(), ids=lambda e: e["golden"])
def test_golden_output(entry, tmp_path):
    code, got = output(entry, SPECS, tmp_path)
    assert code == entry["exit"]
    assert got == (GOLDEN / entry["golden"]).read_bytes()
