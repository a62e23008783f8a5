"""The canonical outputs the golden suite pins, and how to produce them.

Each entry renders one user-facing artifact of the CLI to bytes:

* ``sched_bench_plain.json`` — ``sched-bench --requests 400 -o`` ReplayReport;
* ``sched_bench_power_verify.json`` — the same with
  ``--power --verify --prefetch-hot 2``;
* ``report_no_unroll.md`` — ``repro report --no-unroll``;
* ``power_report.json`` — ``repro power report --json``;
* ``reconfig_sobel.txt`` / ``reconfig_sobel_chrome.json`` — the console
  timeline + metrics and the Chrome trace of ``reconfig sobel
  --trace-chrome``.

ReplayReports drop ``wall_seconds`` (host time).  Every other byte is
simulated, so a refactor that changes any of them has changed what the
simulator computes.  Regenerate only on purpose, with
``PYTHONPATH=src python -m tests.golden.regen``, and log the reason in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

from repro.cli import main

DATA_DIR = Path(__file__).with_name("data")


def _stdout_of(argv: List[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {rc}")
    return buffer.getvalue().encode()


def _replay_report(extra: List[str]) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        _stdout_of(["sched-bench", "--requests", "400", *extra,
                    "-o", str(out)])
        document = json.loads(out.read_text())
    document.pop("wall_seconds")
    return (json.dumps(document, indent=2) + "\n").encode()


def _reconfig_sobel() -> Dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        chrome = Path(tmp) / "trace.json"
        text = _stdout_of(["reconfig", "sobel", "--trace-chrome", str(chrome)])
        trace = chrome.read_bytes()
    # the last console line names the (temporary) output path
    lines = text.decode().splitlines(keepends=True)
    body = "".join(line for line in lines
                   if not line.startswith("chrome trace written to"))
    return {"reconfig_sobel.txt": body.encode(),
            "reconfig_sobel_chrome.json": trace}


#: golden file name -> producer (producers may emit several files)
PRODUCERS: Dict[str, Callable[[], Dict[str, bytes]]] = {
    "sched_bench_plain": lambda: {
        "sched_bench_plain.json": _replay_report([])},
    "sched_bench_power_verify": lambda: {
        "sched_bench_power_verify.json": _replay_report(
            ["--power", "--verify", "--prefetch-hot", "2"])},
    "report_no_unroll": lambda: {
        "report_no_unroll.md": _stdout_of(["report", "--no-unroll"])},
    "power_report": lambda: {
        "power_report.json": _stdout_of(["power", "report", "--json"])},
    "reconfig_sobel": _reconfig_sobel,
}
