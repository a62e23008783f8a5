"""Wall-clock perf harness for the DPR simulator.

Runs the canonical benches (bitstream generation, raw ICAP parse,
end-to-end reconfiguration, the Table II sweep — tracer-off and
tracer-on, the ISS unroll sweep and the fault campaign), records wall
time plus simulated-payload throughput to ``BENCH_perf.json``, and — in
``--check`` mode — fails when a bench regresses more than 25 % against
the committed baseline.  ``--obs-check`` additionally gates the
observability layer's detached overhead below 2 % on Table II.

Wall-clock numbers are machine-dependent, and a shared host drifts
for identical work, so the repository benchmark's calibration loop
(``_calibration_work`` from ``perfbench/run.py``: a fixed event-loop
mix of heap, dict, slotted-attribute and bytes work) is timed around
every repetition of every bench, and ``--check`` compares the median
over repetitions of each wall divided by the calibrations taken around
it, so the gate follows the code, not the host's speed at the moment.

Usage::

    PYTHONPATH=src python benchmarks/perf.py              # run + write JSON
    PYTHONPATH=src python benchmarks/perf.py --check      # gate vs baseline
    PYTHONPATH=src python benchmarks/perf.py --bench table2 --repeat 3
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_perf.json"

SCHEMA = "rvcap-perf/2"

#: wall seconds measured on the pre-optimization tree (same machine that
#: produced the committed baseline; used only for the speedup column).
PRE_PR_WALL_S = {
    "bitgen_ref": 0.387,
    "icap_stream": 0.368,
    "e2e_reconfig": 0.478,
    "table2": 3.456,
    "iss_unroll": 0.852,
    "fault_sweep": 4.682,
    "sched_replay": 1.1552,
    "table2_obs": 0.5312,
}

#: allowed normalized wall-clock regression before --check fails
REGRESSION_TOLERANCE = 1.25

#: block-engine gate: iss_unroll must run >= this much faster under the
#: block-compiling engine than under the interpreter reference engine.
#: Measured as a same-run A/B (both engines, same process, same
#: machine), so CI-runner speed differences cancel exactly — the old
#: fixed-constant formulation (5x vs the interpreter-*era* seed, which
#: also predated the MMIO fastpath and kernel batching that sped the
#: interpreter up too) flagged spurious failures whenever the runner
#: drifted from the machine that captured the constants.  The block
#: engine's marginal win measures ~2.3x; gate at 1.8x.
ISS_UNROLL_MIN_SPEEDUP = 1.8

#: serving-path seed gates: each bench must stay >= min_speedup faster
#: than the pre-optimization engine, calibration-normalized.  The seed
#: (wall_s, calibration_wall_s) pairs were captured by re-running the
#: committed pre-optimization tree on the machine that refreshed the
#: baseline, in the same session — name -> (wall, calib, min_speedup).
#: The walls were calibrated against the old scalar-CRC loop (0.0365 s);
#: the calibration here is that figure converted to the perfbench loop
#: by the median ratio of 24 interleaved timings of both loops on one
#: 2-vCPU host (perfbench / scalar-CRC = 3.61, quartiles 3.42-4.16).
SEED_GATES = {
    "sched_replay": (1.4971, 0.1318, 3.0),
    "table2_obs": (0.3069, 0.1318, 1.5),
}

#: power-accounting gate: the power_replay bench (sched_replay's exact
#: workload plus profile + governor) must stay within this factor of
#: the plain sched_replay wall, measured as a same-run A/B so machine
#: speed cancels — energy accounting must not tax the serving path.
POWER_REPLAY_MAX_OVERHEAD = 1.25

#: rounds of each same-run A/B gate (the median paired ratio is gated)
AB_ROUNDS = 5

#: least bench time per repetition: short benches repeat within one
#: repetition, since their best wall needs many samples on a busy host
MIN_REPETITION_S = 0.25

#: allowed tracer-off overhead of the observability layer: the guarded
#: emit sites (`obs is not None` checks) must cost <2 % on the Table II
#: workload vs the committed baseline (--obs-check)
OBS_OVERHEAD_TOLERANCE = 1.02


# ---------------------------------------------------------------------------
# bench bodies live in repro.eval.benches so `python -m repro profile`
# runs the exact same workloads the regression gate times
# ---------------------------------------------------------------------------

from repro.eval.benches import BENCHES  # noqa: E402


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

@functools.cache
def _calibration_work() -> Callable[[], int]:
    """The repository benchmark's calibration loop, loaded from its file.

    ``perfbench/run.py`` is not a package module (it runs as a script),
    so it is loaded by path; importing it has no side effects.
    """
    perfbench = REPO_ROOT / "perfbench"
    if str(perfbench) not in sys.path:
        sys.path.append(str(perfbench))  # run.py imports its sibling layers.py
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", perfbench / "run.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._calibration_work


def calibrate() -> float:
    """Host seconds the perfbench calibration loop takes right now."""
    work = _calibration_work()
    gc.collect()
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def run_bench(name: str, repeat: int,
              calibrated: bool = False) -> Tuple[float, int, float]:
    """Time ``name`` over ``repeat`` repetitions.

    A repetition runs the bench back to back until it has taken
    :data:`MIN_REPETITION_S` (at least once) and keeps its best wall, so
    millisecond benches get many samples.  Returns ``(wall, work,
    normalized)``: the median repetition wall, the work amount, and —
    with ``calibrated``, where the calibration loop is timed before
    every repetition and after the last — the median over repetitions
    of the wall divided by the mean of its two bracketing calibrations
    (0.0 otherwise).  Medians on both sides of ``--check`` keep one
    lucky or unlucky repetition from deciding the gate.
    """
    fn = BENCHES[name]
    walls: List[float] = []
    calibrations: List[float] = [calibrate()] if calibrated else []
    work = 0
    for _ in range(repeat):
        best = float("inf")
        spent = 0.0
        while spent < MIN_REPETITION_S:
            # start every timed run from a collected heap — garbage
            # carried over from earlier benches otherwise lands its
            # collection cost on whichever bench happens to trip the GC
            # threshold, which is exactly the kind of cross-bench
            # contamination that breaks the few-percent A/B gates
            gc.collect()
            t0 = time.perf_counter()
            work = fn()
            wall = time.perf_counter() - t0
            best = min(best, wall)
            spent += wall
        walls.append(best)
        if calibrated:
            calibrations.append(calibrate())
    normalized = 0.0
    if calibrated:
        normalized = statistics.median(
            wall / ((before + after) / 2)
            for wall, before, after in zip(walls, calibrations[:-1],
                                           calibrations[1:], strict=True))
    return statistics.median(walls), work, normalized


def _paired_ratio(first: Callable[[], float], second: Callable[[], float],
                  rounds: int = AB_ROUNDS) -> float:
    """Median over ``rounds`` of ``second() / first()``, run back to back.

    Each pair runs within seconds, so a host slowdown lands on both
    sides of a ratio; the median keeps one disturbed pair from deciding
    the gate.
    """
    ratios = []
    for _ in range(rounds):
        base = first()
        ratios.append(second() / base if base > 0 else float("inf"))
    return statistics.median(ratios)


def _interpreted(timer: Callable[[], float]) -> float:
    """Run ``timer`` with the ISS forced onto the interpreter engine."""
    saved = os.environ.get("REPRO_ISS_ENGINE")
    os.environ["REPRO_ISS_ENGINE"] = "interp"
    try:
        return timer()
    finally:
        if saved is None:
            del os.environ["REPRO_ISS_ENGINE"]
        else:
            os.environ["REPRO_ISS_ENGINE"] = saved


def run_all(names: List[str], repeat: int) -> dict:
    results = []
    for name in names:
        wall, work, normalized = run_bench(name, repeat, calibrated=True)
        mb_s = work / wall / 1e6 if wall > 0 else 0.0
        baseline = PRE_PR_WALL_S.get(name)
        entry = {
            "name": name,
            "wall_s": round(wall, 4),
            "normalized": round(normalized, 4),
            "sim_mb_s": round(mb_s, 2),
            "speedup_vs_baseline": round(baseline / wall, 2) if baseline else None,
        }
        results.append(entry)
        print(
            f"{name:14s} {wall:8.3f} s   {mb_s:9.2f} MB/s   "
            f"{entry['speedup_vs_baseline'] or '-':>6}x vs pre-opt   "
            f"(normalized {normalized:.4f})"
        )
    return {"schema": SCHEMA, "benches": results}


# ---------------------------------------------------------------------------
# regression gate
# ---------------------------------------------------------------------------

def check_regressions(current: dict, baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(
            f"perf-check: no committed baseline at {baseline_path}; "
            "skipping gate (non-blocking first run)"
        )
        return 0
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("schema") != SCHEMA:
        print(f"perf-check: baseline schema {baseline.get('schema')!r} is "
              f"not {SCHEMA!r}; re-run without --check to refresh it")
        return 1
    base_by_name = {b["name"]: b for b in baseline.get("benches", [])}
    failures = []
    for bench in current["benches"]:
        ref = base_by_name.get(bench["name"])
        if ref is None:
            continue
        # each repetition is normalized by the calibrations timed
        # around it, so differently-fast machines (and one machine
        # drifting between runs) compare like for like
        cur_norm = bench["normalized"]
        ref_norm = ref["normalized"]
        ratio = cur_norm / ref_norm if ref_norm > 0 else 1.0
        tag = "FAIL" if ratio > REGRESSION_TOLERANCE else "ok"
        print(
            f"perf-check: {bench['name']:14s} normalized {ratio:5.2f}x "
            f"of baseline [{tag}]"
        )
        if ratio > REGRESSION_TOLERANCE:
            failures.append((bench["name"], ratio))
    for bench in current["benches"]:
        gate = SEED_GATES.get(bench["name"])
        if gate is not None:
            # absolute gate: the optimized engine's win over the seed
            # must hold, not just not-regress vs the last commit
            seed_wall, seed_calib, min_speedup = gate
            seed_norm = seed_wall / seed_calib
            cur_norm = bench["normalized"]
            speedup = seed_norm / cur_norm if cur_norm > 0 else float("inf")
            tag = "ok" if speedup >= min_speedup else "FAIL"
            print(
                f"perf-check: {bench['name']} seed speedup {speedup:5.2f}x "
                f"(need >= {min_speedup:.1f}x) [{tag}]"
            )
            if speedup < min_speedup:
                failures.append((f"{bench['name']}(seed-speedup)", speedup))
        if bench["name"] == "iss_unroll":
            # same-run A/B: time the bench under the block engine and
            # the interpreter reference engine, in back-to-back pairs — machine
            # speed cancels exactly
            speedup = _paired_ratio(
                lambda: run_bench("iss_unroll", 1)[0],
                lambda: _interpreted(lambda: run_bench("iss_unroll", 1)[0]))
            tag = "ok" if speedup >= ISS_UNROLL_MIN_SPEEDUP else "FAIL"
            print(
                f"perf-check: iss_unroll block-engine speedup "
                f"{speedup:5.2f}x vs interpreter (same-run A/B, need "
                f">= {ISS_UNROLL_MIN_SPEEDUP:.1f}x) [{tag}]"
            )
            if speedup < ISS_UNROLL_MIN_SPEEDUP:
                failures.append(("iss_unroll(seed-speedup)", speedup))
        if bench["name"] == "power_replay":
            # same-run A/B against the plain scheduler replay.  Both
            # benches are re-timed here, in back-to-back pairs, rather than
            # reusing walls from run_all — minutes of elapsed time (and
            # load drift) between the two run_all measurements can
            # swamp the few-percent overhead being gated
            ratio = _paired_ratio(
                lambda: run_bench("sched_replay", 1)[0],
                lambda: run_bench("power_replay", 1)[0])
            tag = "ok" if ratio <= POWER_REPLAY_MAX_OVERHEAD else "FAIL"
            print(
                f"perf-check: power_replay accounting overhead "
                f"{ratio:5.2f}x of sched_replay (same-run A/B, need "
                f"<= {POWER_REPLAY_MAX_OVERHEAD:.2f}x) [{tag}]"
            )
            if ratio > POWER_REPLAY_MAX_OVERHEAD:
                failures.append(("power_replay(accounting-overhead)",
                                 ratio))
    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"perf-check: FAILED — {len(failures)} bench(es) regressed "
            f">{(REGRESSION_TOLERANCE - 1) * 100:.0f}% "
            f"(worst: {worst[0]} at {worst[1]:.2f}x)"
        )
        return 1
    print("perf-check: all benches within tolerance")
    return 0


def check_obs_overhead(repeat: int, baseline_path: Path) -> int:
    """Gate the observability layer's cost on the Table II workload.

    Two measurements: ``table2`` with the tracer detached (the emit
    sites reduce to one ``is not None`` check each) and ``table2_obs``
    with a full tracer+metrics registry attached.  The tracer-ON ratio
    is informational; the gate is on tracer-OFF — calibration-normalized
    against the committed baseline, it must stay under
    ``OBS_OVERHEAD_TOLERANCE`` (2 %).
    """
    off_wall, _, off_norm = run_bench("table2", repeat, calibrated=True)
    on_wall, _, _ = run_bench("table2_obs", repeat)
    on_ratio = on_wall / off_wall if off_wall > 0 else 1.0
    print(f"obs-check: table2 tracer-off {off_wall:7.3f} s")
    print(f"obs-check: table2 tracer-on  {on_wall:7.3f} s "
          f"({on_ratio:5.2f}x of tracer-off, informational)")
    if not baseline_path.exists():
        print(f"obs-check: no committed baseline at {baseline_path}; "
              "skipping gate (non-blocking first run)")
        return 0
    baseline = json.loads(baseline_path.read_text())
    ref = next((b for b in baseline.get("benches", [])
                if b["name"] == "table2"), None)
    if ref is None:
        print("obs-check: baseline has no table2 entry; skipping gate")
        return 0
    ratio = off_norm / ref["normalized"]
    tag = "FAIL" if ratio > OBS_OVERHEAD_TOLERANCE else "ok"
    print(f"obs-check: tracer-off normalized {ratio:5.3f}x of baseline "
          f"(tolerance {OBS_OVERHEAD_TOLERANCE:.2f}x) [{tag}]")
    if ratio > OBS_OVERHEAD_TOLERANCE:
        print("obs-check: FAILED — detached observability costs more "
              f"than {(OBS_OVERHEAD_TOLERANCE - 1) * 100:.0f}% on the "
              "Table II workload")
        return 1
    print("obs-check: detached observability overhead within tolerance")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", action="append", choices=sorted(BENCHES),
        help="run only the named bench (repeatable; default: all)",
    )
    parser.add_argument(
        "--repeat", type=int, default=5,
        help="repetitions per bench; the median calibration-normalized "
             "repetition is recorded (default 5)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help=f"output path (default {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline and fail on "
             f">{(REGRESSION_TOLERANCE - 1) * 100:.0f}%% normalized regression",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_JSON,
        help="baseline JSON for --check (default: the committed one)",
    )
    parser.add_argument(
        "--obs-check", action="store_true",
        help="gate the detached-observability overhead on the Table II "
             f"workload (<{(OBS_OVERHEAD_TOLERANCE - 1) * 100:.0f}%% vs "
             "baseline); tracer-on cost is reported alongside",
    )
    args = parser.parse_args(argv)

    if args.obs_check:
        return check_obs_overhead(max(3, args.repeat), args.baseline)

    names = args.bench or list(BENCHES)
    current = run_all(names, max(1, args.repeat))

    out_path = args.json
    if args.check:
        status = check_regressions(current, args.baseline)
    else:
        status = 0
        if out_path is None:
            out_path = DEFAULT_JSON
    if out_path is not None:
        out_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {out_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
