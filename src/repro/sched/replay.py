"""Trace replay: drive thousands of requests through the scheduler.

:func:`replay` is the measurement harness behind ``repro sched-bench``
and ``repro serve``: it submits an entire trace as concurrent asyncio
requests (open loop — arrival *eligibility* is enforced by the
scheduler against simulated time, so submission order does not model
anything), lets the arbiter drain it, and distils the outcomes plus the
obs metrics registry into a :class:`ReplayReport`.

All latencies are simulated microseconds; ``wall_seconds`` is the only
wall-clock number and exists purely to size benchmark runs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.drivers.manager import ReconfigurationManager
from repro.obs import Observability
from repro.power.profile import DEFAULT_PROFILE, PowerProfile
from repro.sched.cache import BitstreamCache
from repro.sched.request import (
    CANCELLED,
    COMPLETED,
    RequestOutcome,
    SwapRequest,
)
from repro.sched.scheduler import DprScheduler
from repro.sched.workload import WorkloadSpec, build_sched_soc, make_cache, synthesize


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of raw (unbucketed) samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class ReplayReport:
    """Aggregate view of one replay, JSON-exportable."""

    requests: int
    completed: int
    deadline_misses: int
    statuses: Dict[str, int]
    #: simulated time the replay spanned (us)
    span_us: float
    #: completed requests per simulated second
    throughput_rps: float
    latency_p50_us: float
    latency_p99_us: float
    latency_mean_us: float
    queue_wait_p99_us: float
    deadline_miss_rate: float
    icap_utilization: float
    reconfigurations: int
    reconfig_skips: int
    batches: int
    mean_batch_size: float
    cache: Optional[Dict[str, Any]] = None
    wall_seconds: float = 0.0
    #: power accounting block from DprScheduler.power_summary();
    #: None when the replay ran without a power profile
    power: Optional[Dict[str, Any]] = None
    outcomes: List[RequestOutcome] = field(default_factory=list, repr=False)

    def to_dict(self, *, include_outcomes: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "requests": self.requests,
            "completed": self.completed,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": round(self.deadline_miss_rate, 6),
            "statuses": dict(self.statuses),
            "span_us": round(self.span_us, 3),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_p50_us": round(self.latency_p50_us, 3),
            "latency_p99_us": round(self.latency_p99_us, 3),
            "latency_mean_us": round(self.latency_mean_us, 3),
            "queue_wait_p99_us": round(self.queue_wait_p99_us, 3),
            "icap_utilization": round(self.icap_utilization, 6),
            "reconfigurations": self.reconfigurations,
            "reconfig_skips": self.reconfig_skips,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "cache": self.cache,
            "wall_seconds": round(self.wall_seconds, 3),
            "power": self.power,
        }
        if include_outcomes:
            out["outcomes"] = [o.to_dict() for o in self.outcomes]
        return out


def summarize(outcomes: List[RequestOutcome], *,
              scheduler: DprScheduler,
              cache: Optional[BitstreamCache],
              wall_seconds: float) -> ReplayReport:
    """Distil raw outcomes + scheduler state into a report."""
    statuses: Dict[str, int] = {}
    latencies: List[float] = []
    waits: List[float] = []
    first_arrival = min((o.arrival_us for o in outcomes), default=0.0)
    last_finish = first_arrival
    misses = 0
    for outcome in outcomes:
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        if outcome.deadline_missed:
            misses += 1
        if outcome.latency_us is not None:
            latencies.append(outcome.latency_us)
        if outcome.start_us is not None:
            waits.append(max(0.0, outcome.start_us - outcome.arrival_us))
        if outcome.finish_us is not None:
            last_finish = max(last_finish, outcome.finish_us)
    completed = statuses.get(COMPLETED, 0)
    span_us = max(last_finish - first_arrival, 1e-9)
    obs = scheduler.obs
    reconfigs = skips = batches = 0
    mean_batch = 0.0
    if obs is not None:
        def _count(name: str) -> int:
            instrument = obs.metrics.get(name)
            return int(instrument.value) if instrument is not None else 0
        reconfigs = _count("sched_reconfigurations_total")
        skips = _count("sched_reconfig_skips_total")
        batches = _count("sched_batches_total")
        hist = obs.metrics.get("sched_batch_size")
        if hist is not None and hist.count:
            mean_batch = hist.mean
    return ReplayReport(
        requests=len(outcomes),
        completed=completed,
        deadline_misses=misses,
        statuses=statuses,
        span_us=span_us,
        throughput_rps=completed / (span_us / 1e6),
        latency_p50_us=_percentile(latencies, 0.50),
        latency_p99_us=_percentile(latencies, 0.99),
        latency_mean_us=(sum(latencies) / len(latencies)) if latencies else 0.0,
        queue_wait_p99_us=_percentile(waits, 0.99),
        deadline_miss_rate=misses / len(outcomes) if outcomes else 0.0,
        icap_utilization=scheduler.icap_utilization(),
        reconfigurations=reconfigs,
        reconfig_skips=skips,
        batches=batches,
        mean_batch_size=mean_batch,
        cache=cache.snapshot() if cache is not None else None,
        wall_seconds=wall_seconds,
        power=scheduler.power_summary(),
        outcomes=outcomes,
    )


async def _serve(scheduler: DprScheduler,
                 requests: List[SwapRequest]) -> List[RequestOutcome]:
    async with scheduler:
        futures = [scheduler.submit(request) for request in requests]
        results = await asyncio.gather(*futures, return_exceptions=True)
    outcomes: List[RequestOutcome] = []
    for request, result in zip(requests, results):
        if isinstance(result, RequestOutcome):
            outcomes.append(result)
        elif isinstance(result, asyncio.CancelledError):
            # scheduler shutdown (or a caller) cancelled the future
            # before service; dropping it silently would understate
            # `requests` and hide the loss — report it in the
            # `cancelled` status bucket instead
            outcomes.append(RequestOutcome(
                request_id=request.request_id,
                module=request.module,
                status=CANCELLED,
                arrival_us=request.arrival_us,
                deadline_us=request.deadline_us,
                error="cancelled before completion",
            ))
        elif isinstance(result, BaseException):
            raise result
    return outcomes


def replay(manager: ReconfigurationManager,
           requests: List[SwapRequest], *,
           cache: Optional[BitstreamCache] = None,
           batch_limit: int = 64,
           drop_late: bool = False,
           max_retries: int = 1,
           reconfig_mode: str = "interrupt",
           verify: bool = False,
           prefetch: Optional[List[str]] = None,
           power_profile: Optional["PowerProfile"] = None,
           peak_power_mw: Optional[float] = None,
           power_window_us: float = 200.0,
           energy_budgets_nj: Optional[Dict[str, float]] = None) -> ReplayReport:
    """Replay ``requests`` through a fresh scheduler; returns the report.

    Observability is always attached (the report needs the metrics
    registry); reuse the SoC's existing instance when present.
    """
    soc = manager.soc
    if soc.obs is None:
        soc.attach_observability(Observability())
    scheduler = DprScheduler(
        manager, cache=cache, batch_limit=batch_limit, drop_late=drop_late,
        max_retries=max_retries, reconfig_mode=reconfig_mode,
        verify=verify,
        power_profile=power_profile, peak_power_mw=peak_power_mw,
        power_window_us=power_window_us,
        energy_budgets_nj=energy_budgets_nj)
    if cache is not None and prefetch:
        cache.prefetch(prefetch)
    started = time.perf_counter()
    outcomes = asyncio.run(_serve(scheduler, requests))
    wall = time.perf_counter() - started
    return summarize(outcomes, scheduler=scheduler, cache=cache,
                     wall_seconds=wall)


def bench(spec: WorkloadSpec, *,
          cache_bytes: int = 1 << 20,
          charge_sd_time: bool = True,
          batch_limit: int = 64,
          drop_late: bool = False,
          controller: str = "rvcap",
          reconfig_mode: str = "interrupt",
          verify: bool = False,
          prefetch_hot: int = 0,
          power_profile: Optional[PowerProfile] = None,
          peak_power_mw: Optional[float] = None,
          power_window_us: float = 200.0,
          energy_budgets_nj: Optional[Dict[str, float]] = None) -> ReplayReport:
    """One-call benchmark: build platform, synthesize, replay.

    ``cache_bytes=0`` runs without a bitstream cache: every module is
    staged into DDR up front, as ``sched-bench --cache-kb 0`` does.
    """
    manager = build_sched_soc(spec.modules, frame=spec.frame,
                              controller=controller)
    cache: Optional[BitstreamCache] = None
    if cache_bytes > 0:
        cache = make_cache(manager, arena_bytes=cache_bytes,
                           charge_sd_time=charge_sd_time)
    else:
        manager.init_rmodules()
    requests = synthesize(spec)
    warm = [f"rm{i}" for i in range(min(prefetch_hot, spec.modules))]
    return replay(manager, requests, cache=cache, batch_limit=batch_limit,
                  drop_late=drop_late, reconfig_mode=reconfig_mode,
                  verify=verify, prefetch=warm or None,
                  power_profile=power_profile, peak_power_mw=peak_power_mw,
                  power_window_us=power_window_us,
                  energy_budgets_nj=energy_budgets_nj)


def sweep(spec: WorkloadSpec, rates: List[float],
          **bench_kwargs: Any) -> List[Dict[str, Any]]:
    """Replay the same workload shape at several arrival rates.

    Returns one report dict per rate — the throughput/latency/miss
    curves the issue asks for.
    """
    from dataclasses import replace
    curves: List[Dict[str, Any]] = []
    for rate in rates:
        report = bench(replace(spec, arrival_rate_rps=rate), **bench_kwargs)
        entry = report.to_dict()
        entry["arrival_rate_rps"] = rate
        curves.append(entry)
    return curves


def power_sweep(spec: WorkloadSpec, caps_mw: List[Optional[float]],
                **bench_kwargs: Any) -> List[Dict[str, Any]]:
    """Replay the same workload under several peak-power caps.

    The first point is always the uncapped baseline (power accounting
    on, governor off); each capped point reports its deadline-miss
    delta against it — the deadline-miss-vs-energy tradeoff curve.
    A ``None`` in ``caps_mw`` is skipped (the baseline already covers
    it).  Caps infeasible for a single reconfiguration surface in-band
    as failed requests, so a sweep never aborts mid-curve.
    """
    bench_kwargs.pop("peak_power_mw", None)
    profile = bench_kwargs.pop("power_profile", None) or DEFAULT_PROFILE
    baseline = bench(spec, power_profile=profile, **bench_kwargs)
    points: List[Dict[str, Any]] = []
    entry = baseline.to_dict()
    entry["power_cap_mw"] = None
    entry["miss_delta_vs_uncapped"] = 0.0
    points.append(entry)
    for cap in caps_mw:
        if cap is None:
            continue
        report = bench(spec, power_profile=profile, peak_power_mw=cap,
                       **bench_kwargs)
        entry = report.to_dict()
        entry["power_cap_mw"] = cap
        entry["miss_delta_vs_uncapped"] = round(
            report.deadline_miss_rate - baseline.deadline_miss_rate, 6)
        points.append(entry)
    return points
