"""Workload synthesis for the DPR scheduler benchmarks.

The generator produces open-loop Poisson request streams over a catalog
of registered modules with Zipf-skewed popularity — the shape that
makes a bitstream cache interesting: a few hot modules dominate (cache
hits, batching) while a long tail forces faults and LRU churn.

:func:`build_sched_soc` assembles the serving platform: the reference
SoC with its case-study partition swapped for a *small* RP (one CLB
column) whose partial bitstream reconfigures in ~63 us instead of the
case study's 1651 us — a multi-tenant server floorplans for swap
latency, and the small RP keeps a 10k-request replay tractable in
wall-clock while exercising exactly the same driver stack.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.accel import ACCELERATOR_RESOURCES
from repro.drivers.manager import ReconfigurationManager
from repro.errors import SchedulerError
from repro.fat32 import Fat32FileSystem, SdBackdoorBlockDevice
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.sched.cache import BitstreamCache
from repro.sched.request import SwapRequest
from repro.soc.builder import build_soc
from repro.soc.config import SocConfig

#: behaviours cycled over the synthetic module catalog
_BEHAVIOR_CYCLE = ("sobel", "median", "gaussian", "erode")

#: the serving RP: one CLB column -> ~15.8 KB pbit, ~63 us swap
SCHED_RP_GEOMETRY = RpGeometry(clb_cols=1, bram_cols=0, dsp_cols=0, rows=1)
#: generous budget so every case-study behaviour fits the serving RP
SCHED_RP_BUDGET = ResourceBudget(luts=4000, ffs=4000, brams=8, dsps=20)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic request stream."""

    #: number of requests to generate
    requests: int = 1000
    #: mean arrival rate (requests per simulated second, Poisson)
    arrival_rate_rps: float = 2000.0
    #: catalog size (modules rm0..rmN-1)
    modules: int = 8
    #: Zipf popularity exponent (0 = uniform, ~1.1 = web-like skew)
    zipf_s: float = 1.1
    #: mean deadline slack after arrival (us)
    deadline_slack_us: float = 20_000.0
    #: +/- fraction of uniform jitter applied to each deadline's slack
    slack_jitter: float = 0.5
    #: attach an image payload to each request
    payload: bool = True
    #: square payload frame edge (pixels); must match the RM geometry
    frame: int = 64
    #: per-request queue timeout (None = wait forever)
    timeout_us: Optional[float] = None
    #: RNG seed: same spec -> byte-identical trace
    seed: int = 2026
    #: arrival time of the first request (us)
    start_us: float = 100.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise SchedulerError("a workload needs at least one request")
        if self.modules < 1:
            raise SchedulerError("a workload needs at least one module")
        if self.arrival_rate_rps <= 0:
            raise SchedulerError("arrival_rate_rps must be positive")
        if self.zipf_s < 0:
            raise SchedulerError("zipf_s must be >= 0 (0 = uniform)")
        if not 0.0 <= self.slack_jitter < 1.0:
            raise SchedulerError("slack_jitter must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


def module_names(count: int) -> List[str]:
    return [f"rm{i}" for i in range(count)]


def synthesize(spec: WorkloadSpec) -> List[SwapRequest]:
    """Deterministically generate the request stream for ``spec``."""
    rng = random.Random(spec.seed)
    names = module_names(spec.modules)
    # Zipf popularity: weight of rank r is 1 / r**s
    weights = [1.0 / (rank ** spec.zipf_s) for rank in
               range(1, spec.modules + 1)]
    mean_gap_us = 1e6 / spec.arrival_rate_rps
    shape: Optional[Tuple[int, int]] = (spec.frame, spec.frame) \
        if spec.payload else None
    requests: List[SwapRequest] = []
    clock_us = spec.start_us
    for request_id in range(spec.requests):
        module = rng.choices(names, weights=weights, k=1)[0]
        jitter = 1.0 + rng.uniform(-spec.slack_jitter, spec.slack_jitter)
        slack = spec.deadline_slack_us * jitter
        requests.append(SwapRequest(
            module=module,
            arrival_us=round(clock_us, 3),
            deadline_us=round(clock_us + slack, 3),
            payload_shape=shape,
            timeout_us=spec.timeout_us,
            request_id=request_id,
        ))
        clock_us += rng.expovariate(1.0 / mean_gap_us)
    return requests


# ----------------------------------------------------------------------
# trace files: the `repro serve` interchange format
# ----------------------------------------------------------------------
def save_trace(requests: List[SwapRequest], path: str | Path, *,
               spec: Optional[WorkloadSpec] = None) -> None:
    """Write a replayable JSON trace."""
    payload = {
        "version": 1,
        "spec": spec.to_dict() if spec is not None else None,
        "requests": [request.to_dict() for request in requests],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_trace(path: str | Path) -> List[SwapRequest]:
    """Read a trace written by :func:`save_trace`."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        records = data.get("requests", [])
    else:  # bare list is accepted too
        records = data
    return [SwapRequest.from_dict(record) for record in records]


# ----------------------------------------------------------------------
# platform assembly
# ----------------------------------------------------------------------
def build_sched_soc(modules: int = 8, *, frame: int = 64,
                    controller: str = "rvcap",
                    config: Optional[SocConfig] = None
                    ) -> ReconfigurationManager:
    """Build the serving SoC: small RP + synthetic module catalog.

    Returns a provisioned :class:`ReconfigurationManager` (SD card holds
    every pbit) with **no** eager ``init_rmodules`` — bitstream staging
    is the cache's job.
    """
    soc = build_soc(config, with_case_study_modules=False)
    reference = soc.partitions[0]
    soc.partitions[0] = ReconfigurablePartition(
        name="rp_sched",
        geometry=SCHED_RP_GEOMETRY,
        budget=SCHED_RP_BUDGET,
        base_far=reference.base_far,
        device=reference.device,
    )
    for index, name in enumerate(module_names(modules)):
        behavior = _BEHAVIOR_CYCLE[index % len(_BEHAVIOR_CYCLE)]
        soc.register_module(ReconfigurableModule(
            name=name,
            resources=ACCELERATOR_RESOURCES[behavior],
            behavior=behavior,
            frame_width=frame,
            frame_height=frame,
        ))
    manager = ReconfigurationManager(soc, controller=controller)
    manager.provision_sdcard()
    return manager


def make_cache(manager: ReconfigurationManager, *,
               arena_bytes: int = 1 << 20,
               arena_offset: int = 32 << 20,
               charge_sd_time: bool = True) -> BitstreamCache:
    """Mount the provisioned card and build the DDR bitstream cache.

    The arena sits at ``ddr_base + arena_offset`` — clear of the image
    scratch buffers :meth:`ReconfigurationManager.process_image` uses at
    +64 MB / +80 MB.
    """
    soc = manager.soc
    filesystem = Fat32FileSystem.mount(SdBackdoorBlockDevice(soc.sdcard))
    return BitstreamCache(
        manager.port, filesystem,
        arena_base=soc.config.layout.ddr_base + arena_offset,
        arena_bytes=arena_bytes,
        charge_sd_time=charge_sd_time,
    )
