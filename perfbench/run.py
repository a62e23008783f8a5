"""Repository benchmark: end-to-end and per-layer metrics per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats set-up plus the timed phase until ``--seconds``
have passed and reports every end-to-end metric; host times are
normalized by a calibration loop timed around every repetition (see
README.md).  ``--trace 1`` measures untraced repetitions for half the
time, then repeats the workload with every layer entry point wrapped
(see ``layers.py``) and reports the per-layer metrics, the tracing
overhead and the layer-attribution table.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a human-readable report.
Reports, span dumps and the simulated-statistics fingerprints go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from layers import LAYERS, LayerTracer

#: (name, unit, better) of the end-to-end metrics, printed with --trace 0
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
    ("sim_p50_us", "sim_us", "lower"),
    ("sim_p99_us", "sim_us", "lower"),
    ("sim_ontime_share", "share", "higher"),
    ("sim_goodput_rps", "1/sim_s", "higher"),
    ("sim_energy_uj_per_req", "uJ", "lower"),
    ("anchor_fit_pct", "%", "higher"),
]

#: (name, unit, better) of the per-layer metrics, printed with --trace 1
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sched.self_s", "s", "lower"),
    ("sched.batches", "count", "lower"),
    ("sched.mean_batch_size", "count", "higher"),
    ("sched.reconfig_skip_ratio", "ratio", "higher"),
    ("sched.queue_wait_p99_us", "sim_us", "lower"),
    ("cache.self_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.sd_bytes_loaded", "B", "lower"),
    ("fat32.self_s", "s", "lower"),
    ("fat32.files_read", "count", "lower"),
    ("fat32.host_mb_per_s", "MB/s", "higher"),
    ("verify.self_s", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("verify.memo_ratio", "ratio", "higher"),
    ("power.self_s", "s", "lower"),
    ("power.deferrals", "count", "lower"),
    ("power.deferred_us", "sim_us", "lower"),
    ("drivers.self_s", "s", "lower"),
    ("drivers.reconfigs", "count", "lower"),
    ("drivers.host_ms_per_reconfig", "ms", "lower"),
    ("drivers.sim_td_us", "sim_us", "lower"),
    ("drivers.sim_tr_us", "sim_us", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.advance_calls", "count", "lower"),
    ("sim.advance_calls_per_op", "count", "lower"),
    ("dma.mm2s_bursts", "count", "lower"),
    ("dma.mm2s_descriptors", "count", "lower"),
    ("dma.s2mm_bytes", "B", "lower"),
    ("icap.self_s", "s", "lower"),
    ("icap.accept_calls", "count", "lower"),
    ("icap.words", "count", "lower"),
    ("icap.host_mwords_per_s", "Mword/s", "higher"),
    ("icap.busy_cycles", "cycles", "lower"),
    ("icap.stall_cycles", "cycles", "lower"),
    ("axi.self_s", "s", "lower"),
    ("ddr.self_s", "s", "lower"),
    ("ddr.bytes_read", "B", "lower"),
    ("ddr.row_activates", "count", "lower"),
    ("accel.self_s", "s", "lower"),
    ("accel.pixels", "count", "lower"),
    ("accel.host_mpix_per_s", "Mpix/s", "higher"),
    ("accel.sim_tc_us", "sim_us", "lower"),
    ("riscv.self_s", "s", "lower"),
    ("riscv.instret", "count", "lower"),
    ("riscv.host_minstr_per_s", "Minstr/s", "higher"),
    ("riscv.sim_cpi", "cycles", "lower"),
    ("soc.build_s", "s", "lower"),
    ("bitgen.self_s", "s", "lower"),
    ("sdcard.provision_s", "s", "lower"),
    ("obs.spans_per_op", "count", "lower"),
    ("unattributed.self_s", "s", "lower"),
    ("traced.run_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]

OUT_DIR = Path(".bench_out")
#: set-up is short next to the timed phase; sample it more often
SETUPS_PER_REPETITION = 3
#: host times are reported in seconds of a reference host on which
#: :func:`calibrate` takes this long (a shared 2-vCPU host was measured
#: changing speed by +-20% over tens of seconds for identical work)
CALIBRATION_REFERENCE_S = 0.22


def _load_program() -> None:
    """Put the checkout's ``src/`` on the path, or refuse to run."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src}/repro; run from "
                         "the root of a checkout")
    sys.path.insert(0, str(src))


def _digest(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _calibration_work() -> int:
    """Fixed interpreter-bound work: a small event loop over a few MB
    of objects (heap, dict, slotted attributes, bytes slicing), the mix
    the simulator spends its time in.  It is part of the benchmark, so
    no change to the program can move it."""
    count = 60_000
    nodes = [_Node(i * 2654435761 & 0xFFFF) for i in range(count)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 7919 + 1) % count]
    heap = [(n.value, i) for i, n in enumerate(nodes[:4096])]
    heapq.heapify(heap)
    blob = bytes(range(256)) * 64
    table: Dict[int, int] = {}
    acc = 0
    node = nodes[0]
    for _ in range(120_000):
        when, key = heapq.heappop(heap)
        node = node.next
        table[key & 4095] = node.value ^ when
        acc += len(blob[key & 8191:(key & 8191) + 32])
        heapq.heappush(heap, (when + (node.value & 255) + 1, key))
    return acc


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: Any = None


def calibrate() -> float:
    """Host seconds :func:`_calibration_work` takes right now."""
    gc.collect()
    started = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - started


def _repetition(workload: Any, seed: int
                ) -> Tuple[List[float], float, List[float], Any]:
    """:data:`SETUPS_PER_REPETITION` set-ups, then the timed phase on the
    last platform, between two calibrations.

    Returns (set-up times, run_s, calibration times, evaluation).
    """
    calibrations = [calibrate()]
    setups = []
    for _ in range(SETUPS_PER_REPETITION):
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - started)
    gc.collect()
    started = time.perf_counter()
    workload.run(state)
    run_s = time.perf_counter() - started
    calibrations.append(calibrate())
    return setups, run_s, calibrations, workload.evaluate(state)


def _check_fingerprints(name: str, seed: int,
                        evaluations: List[Any]) -> Tuple[str, List[str]]:
    """Every repetition, and every earlier run of this seed in this
    checkout, must produce the same simulated statistics."""
    digests = {_digest(e.fingerprint) for e in evaluations}
    problems = []
    if len(digests) != 1:
        problems.append(f"simulated fingerprint differs across the "
                        f"{len(evaluations)} repetitions of this run")
    digest = _digest(evaluations[0].fingerprint)
    path = OUT_DIR / "fingerprints" / f"{name}-seed{seed}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["sha256"] != digest:
            problems.append(f"simulated fingerprint differs from {path}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"sha256": digest,
                                    "fingerprint": evaluations[0].fingerprint},
                                   indent=1, sort_keys=True) + "\n")
    return digest, problems


def _tally(evaluations: List[Any],
           run_problems: List[str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over a run's repetitions; each
    run-level problem (a fingerprint mismatch) counts as one failure."""
    attempted = sum(e.ops for e in evaluations)
    failed = sum(e.failed for e in evaluations) + len(run_problems)
    problems = run_problems + [p for e in evaluations for p in e.problems]
    return attempted, min(attempted, failed), problems


def _metric_block(values: Dict[str, float],
                  spec: List[Tuple[str, str, str]]) -> Dict[str, Any]:
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in spec}


def _print_table(title: str, rows: List[Tuple[str, Any, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<44} {shown:>14} {unit}")


def measured_run(name: str, workload: Any, seed: int,
                 seconds: float) -> Dict[str, Any]:
    """End-to-end metrics: untraced repetitions for ``seconds``."""
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    runs: List[float] = []
    calibrations: List[float] = []
    evaluations: List[Any] = []
    while True:
        setup_times, run_s, calibration, evaluation = _repetition(workload,
                                                                  seed)
        setups.extend(setup_times)
        runs.append(run_s)
        calibrations.extend(calibration)
        evaluations.append(evaluation)
        if time.perf_counter() >= deadline:
            break
    digest, problems = _check_fingerprints(name, seed, evaluations)
    attempted, failed, problems = _tally(evaluations, problems)
    first = evaluations[0]
    # the calibrations sample the host's speed all through the run; a
    # repetition is longer than the host holds one speed, so the mean
    # run time is scaled by the mean calibration time, not each
    # repetition by its own two samples
    speed = CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)
    values = {
        "setup_s": statistics.median(setups) * speed,
        "run_s": statistics.fmean(runs) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_share": 1.0 - failed / attempted,
        **first.sim,
    }
    _print_table(f"{name} seed={seed}: {len(runs)} repetitions of "
                 f"{first.ops} operations, fingerprint {digest[:16]}",
                 [(n, values[n], u) for n, u, _b in END_TO_END])
    _print_table("failure, miss and anchor-error shares (0 when healthy)",
                 [(n, v, "%" if n.startswith("anchor_err_pct") else "share")
                  for n, v in first.raw.items()])
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    report = {"workload": name, "seed": seed, "repetitions": len(runs),
              "raw_setup_s": setups, "raw_run_s": runs,
              "calibration_s": calibrations, "speed_factor": speed,
              "metrics": values,
              "raw": first.raw, "fingerprint_sha256": digest,
              "problems": problems}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace0.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": _metric_block(values, END_TO_END)}


def _stamp_ops(tracer: Any) -> None:
    """Give spans under the scheduler the id of the request they serve."""
    from repro.sched.scheduler import DprScheduler

    tracer.stamp_ops(DprScheduler, "_service_batch",
                     lambda _self, batch, *_: batch[0].request.request_id)
    tracer.stamp_ops(DprScheduler, "_run_payload",
                     lambda _self, entry, *_a, **_k: entry.request.request_id)


def _layer_metrics(tracer: Any, evaluation: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    # a layer the workload bypasses reports 0
    values: Dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    values.update({f"{layer}.self_s": tracer.self_s(layer)
                   for layer in LAYERS})
    values.update(evaluation.layer)
    files, _fat_s, fat_bytes = tracer.entry("fat32.Fat32FileSystem.read_file")
    fat_self = tracer.self_s("fat32")
    verify_calls = tracer.entry("verify.verify_bitstream")[0]
    lookups = tracer.entry("cache.BitstreamCache.get")[0]
    reconfigs, reconfig_s, _ = tracer.entry(
        "drivers.RvCapDriver.init_reconfig_process")
    advances = tracer.entry("sim.Simulator.advance_to")[0]
    accepts, _icap_s, words = tracer.entry("icap.Icap.accept")
    pixels = tracer.entry("accel.StreamAccelerator.accept")[2]
    hart_s = tracer.entry("riscv.Hart.run")[1]
    instret = values["riscv.instret"]
    values.update({
        "fat32.files_read": files,
        "fat32.host_mb_per_s": fat_bytes / fat_self / 1e6 if fat_self else 0.0,
        "verify.calls": verify_calls,
        "verify.memo_ratio": (1.0 - verify_calls / lookups
                              if verify_calls and lookups else 0.0),
        "drivers.reconfigs": reconfigs,
        "drivers.host_ms_per_reconfig": (reconfig_s / reconfigs * 1e3
                                         if reconfigs else 0.0),
        "sim.advance_calls": advances,
        "sim.advance_calls_per_op": advances / evaluation.ops,
        "icap.accept_calls": accepts,
        "icap.host_mwords_per_s": (words / values["icap.self_s"] / 1e6
                                   if values["icap.self_s"] else 0.0),
        "accel.pixels": pixels,
        "accel.host_mpix_per_s": (pixels / values["accel.self_s"] / 1e6
                                  if values["accel.self_s"] else 0.0),
        "riscv.host_minstr_per_s": instret / hart_s / 1e6 if hart_s else 0.0,
        "soc.build_s": tracer.entry("soc.build_soc", "setup")[1],
        "bitgen.self_s": tracer.self_s("bitgen", "setup")
        + tracer.self_s("bitgen"),
        "sdcard.provision_s": tracer.entry(
            "sdcard.ReconfigurationManager.provision_sdcard", "setup")[1],
    })
    return values


def traced_run(name: str, workload: Any, seed: int,
               seconds: float) -> Dict[str, Any]:
    """Per-layer metrics: untraced repetitions for half of ``seconds``,
    then traced ones; the first traced repetition's spans are kept."""
    started = time.perf_counter()
    untraced: List[float] = []
    evaluations: List[Any] = []
    while not untraced or time.perf_counter() - started < seconds / 2:
        _setups, run_s, _calibrations, evaluation = _repetition(workload,
                                                                 seed)
        untraced.append(run_s)
        evaluations.append(evaluation)
    traced: List[float] = []
    kept: Any = None
    while not traced or time.perf_counter() - started < seconds:
        tracer = LayerTracer()
        tracer.install()
        _stamp_ops(tracer)
        gc.collect()
        try:
            tracer.phase = "setup"
            state = workload.setup(seed)
            tracer.phase = "run"
            tracer.op = 0
            begin = time.perf_counter()
            workload.run(state)
            run_s = time.perf_counter() - begin
            tracer.phase = "check"
            tracer.op = None
            evaluation = workload.evaluate(state)
        finally:
            tracer.uninstall()
        del state
        traced.append(run_s)
        evaluations.append(evaluation)
        if kept is None:
            kept = (tracer, evaluation, run_s)
    # tracing must not change what the simulation computes
    digest, problems = _check_fingerprints(name, seed, evaluations)
    attempted, failed, problems = _tally(evaluations, problems)
    tracer, evaluation, kept_run_s = kept
    values = _layer_metrics(tracer, evaluation)
    table = tracer.attribution(kept_run_s)
    values["unattributed.self_s"] = table["unattributed"]["self_s"]
    values["traced.run_s"] = kept_run_s
    values["trace_overhead"] = (statistics.median(traced)
                                / statistics.median(untraced))
    _print_table(f"{name} seed={seed}: {len(untraced)} untraced and "
                 f"{len(traced)} traced repetitions, fingerprint "
                 f"{digest[:16]}",
                 [(n, values[n], u) for n, u, _b in PER_LAYER])
    print(f"layer attribution of the traced run_s ({kept_run_s:.4f} s, "
          f"{len(tracer.spans)} spans)")
    for layer, row in table.items():
        print(f"  {layer:<14} {row['self_s']:>10.4f} s {100 * row['share']:>7.2f} %")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    tracer.write(OUT_DIR / f"{name}-seed{seed}-spans.json",
                 {"workload": name, "seed": seed, "attribution": table,
                  "metrics": values, "problems": problems})
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": _metric_block(values, PER_LAYER)}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_hot", "serve_churn", "paper_repro"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from workloads import make_workloads

    workload = make_workloads()[args.workload]
    run = traced_run if args.trace else measured_run
    result = run(args.workload, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
