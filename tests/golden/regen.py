"""Rewrite the golden files from the current tree.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.regen

Running this is a deliberate act: the golden files pin simulated
outputs across commits, so a regeneration must come with a CHANGES.md
line saying why the outputs moved.
"""

from __future__ import annotations

import sys

from tests.golden.outputs import DATA_DIR, PRODUCERS


def regenerate() -> int:
    DATA_DIR.mkdir(exist_ok=True)
    for producer in PRODUCERS.values():
        for name, content in producer().items():
            (DATA_DIR / name).write_bytes(content)
            sys.stderr.write(f"wrote {DATA_DIR / name} ({len(content)} B)\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
