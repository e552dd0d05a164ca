"""Byte-for-byte golden outputs of the CLI on the corpus in tests/golden/.

Every recorded output (``tests/golden/MANIFEST.json``) must come out the
same, exit code included; a large output is compared by its sha256.
golden_corpus.py says how the corpus was made and how to record it again.
"""

import pytest

from golden_corpus import SPECS, compared, entry_id, manifest, output


@pytest.mark.parametrize("entry", manifest(), ids=entry_id)
def test_golden_output(entry, tmp_path):
    code, data = output(entry, SPECS, tmp_path)
    assert code == entry["exit"]
    got, expected = compared(entry, data)
    assert got == expected
