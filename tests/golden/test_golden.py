"""Golden-output contract: simulated outputs must not drift across commits.

Each producer in :mod:`tests.golden.outputs` re-renders one CLI artifact
and the bytes must equal the committed file.  A mismatch means the
simulation computes something different from the commit the files were
generated on; see ``outputs.py`` for when regenerating is legitimate.
"""

from __future__ import annotations

import difflib

import pytest

from tests.golden.outputs import DATA_DIR, PRODUCERS


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_output_matches_golden(producer, capsys):
    produced = PRODUCERS[producer]()
    capsys.readouterr()
    for name, content in produced.items():
        expected = (DATA_DIR / name).read_bytes()
        if content != expected:
            diff = "".join(difflib.unified_diff(
                expected.decode(errors="replace").splitlines(keepends=True),
                content.decode(errors="replace").splitlines(keepends=True),
                fromfile=f"golden/{name}", tofile="produced", n=2))
            pytest.fail(f"{name} drifted from the golden file:\n{diff[:4000]}")
