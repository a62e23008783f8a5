"""The benchmark's workloads: platform set-up, timed phase and checks.

Each workload splits one repetition into :meth:`setup` (build the
platform and generate the inputs from the seed; timed as ``setup_s``),
:meth:`run` (the fixed work; timed as ``run_s``) and :meth:`evaluate`
(output checks, simulated metrics, fingerprint and layer counters; not
timed).  The program only ever sees the generated inputs: the serving
workloads hand :func:`repro.sched.replay` a synthesized request trace,
and ``paper_repro`` hands the manager a seeded scene image.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

import repro.sched as sched
from repro.accel import scene_image, sobel3x3
from repro.drivers.fileio import RmDescriptor
from repro.drivers.mmio import HostPort
from repro.drivers.rvcap_driver import RvCapDriver
from repro.eval import scenarios
from repro.firmware import build_hwicap_firmware, runner
from repro.fpga.bitgen import Bitgen
from repro.fpga.partition import ReconfigurableModule, ResourceBudget, RpGeometry
from repro.power import DEFAULT_PROFILE
from repro.power.model import collect_activity
from repro.sched import workload as sched_workload
from repro.sched.request import COMPLETED, STATUSES
from repro.soc import builder

#: requests per serving trace: p99 then has 30 samples beyond it
SERVE_REQUESTS = 3000
#: payload frame edge of ``serve_hot`` (pixels)
FRAME = 32

#: (name, paper value, calibration target?) of every reproduced anchor
PAPER_ANCHORS = (
    ("td_us", 18.0, True),
    ("tr_us", 1651.0, True),
    ("tc_us", 588.0, True),
    ("hwicap_unroll1_mb_s", 4.16, True),
    ("hwicap_unroll16_mb_s", 8.23, True),
    # Fig. 3 ceiling: emerges from the model, nothing was fitted to it
    ("rvcap_ceiling_mb_s", 398.1, False),
)
PAPER_VALUES = {name: paper for name, paper, _calibrated in PAPER_ANCHORS}


@dataclass
class Evaluation:
    """What one repetition produced, apart from its host times."""

    #: operations attempted and how many failed or broke a check
    ops: int
    failed: int
    problems: List[str]
    #: simulated end-to-end metrics (identical for identical inputs)
    sim: Dict[str, float]
    #: failure, deadline-miss and anchor-error shares (0 when healthy)
    raw: Dict[str, float]
    #: stable simulated statistics; must repeat byte-for-byte
    fingerprint: Dict[str, Any]
    #: per-layer counters read from the program
    layer: Dict[str, float]


def _relative_err_pct(measured: float, paper: float) -> float:
    return abs(measured - paper) / paper * 100.0


def _sum_activity(socs: List[Any]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for soc in socs:
        for key, value in collect_activity(soc).items():
            total[key] = total.get(key, 0) + value
    return total


def _activity_layers(activity: Dict[str, int]) -> Dict[str, float]:
    """Per-layer counters that ``collect_activity`` already keeps."""
    return {
        "dma.mm2s_bursts": activity.get("dma_mm2s_bursts", 0),
        "dma.mm2s_descriptors": activity.get("dma_mm2s_descriptors", 0),
        "dma.s2mm_bytes": activity.get("dma_s2mm_bytes", 0),
        "icap.words": activity.get("icap_words", 0),
        "icap.busy_cycles": activity.get("icap_busy_cycles", 0),
        "icap.stall_cycles": activity.get("icap_stall_cycles", 0),
        "ddr.bytes_read": activity.get("ddr_bytes_read", 0),
        "ddr.row_activates": activity.get("ddr_row_activates", 0),
        "riscv.instret": activity.get("hart_instret", 0),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    manager: Any
    cache: Any
    requests: List[Any]
    report: Any = None


class ServeWorkload:
    """An open-loop request trace replayed through the DPR scheduler.

    Arrival times are simulated; :func:`repro.sched.replay` holds every
    request until its arrival, so the generator can never run late.
    """

    def __init__(self, *, modules: int, zipf_s: float,
                 rate_rps: float, arena_bytes: int, payload: bool,
                 warm: bool, slack_us: float, **replay_kwargs: Any) -> None:
        self.modules = modules
        self.zipf_s = zipf_s
        self.rate_rps = rate_rps
        self.arena_bytes = arena_bytes
        self.payload = payload
        self.warm = warm
        self.slack_us = slack_us
        self.replay_kwargs = replay_kwargs

    def setup(self, seed: int) -> ServeState:
        manager = sched_workload.build_sched_soc(self.modules, frame=FRAME)
        cache = sched_workload.make_cache(manager,
                                          arena_bytes=self.arena_bytes)
        start_us = 100.0
        if self.warm:
            # prefetch the whole catalog, then let arrivals begin after
            # the simulated SD time the prefetch took
            cache.prefetch(sched_workload.module_names(self.modules))
            start_us += manager.soc.sim.now_us
        spec = sched.WorkloadSpec(
            requests=SERVE_REQUESTS, arrival_rate_rps=self.rate_rps,
            modules=self.modules, zipf_s=self.zipf_s,
            deadline_slack_us=self.slack_us, payload=self.payload,
            frame=FRAME, seed=seed, start_us=start_us)
        return ServeState(manager, cache, sched.synthesize(spec))

    def run(self, state: ServeState) -> None:
        state.report = sched.replay(state.manager, state.requests,
                                    cache=state.cache, **self.replay_kwargs)

    def evaluate(self, state: ServeState) -> Evaluation:
        report = state.report
        outcomes = report.outcomes
        soc = state.manager.soc
        problems: List[str] = []
        # each request ends in exactly one terminal status
        ids = sorted(o.request_id for o in outcomes)
        if ids != sorted(r.request_id for r in state.requests):
            problems.append("request ids of outcomes != ids of the trace")
        if sum(report.statuses.values()) != report.requests \
                or report.requests != len(state.requests):
            problems.append(f"statuses {report.statuses} do not sum to "
                            f"{len(state.requests)} requests")
        unknown = [o.status for o in outcomes if o.status not in STATUSES]
        if unknown:
            problems.append(f"non-terminal statuses {sorted(set(unknown))}")
        cache = report.cache
        if cache["resident_bytes"] > cache["arena_bytes"]:
            problems.append(f"cache holds {cache['resident_bytes']} B in a "
                            f"{cache['arena_bytes']} B arena")
        not_completed = sum(1 for o in outcomes if o.status != COMPLETED)
        requests = len(state.requests)
        failed = min(requests, not_completed + len(problems))

        freq_hz = soc.config.timing.soc_freq_hz
        if report.power is not None:
            energy_nj = report.power["energy_nj_total"]
        else:
            # the scheduler's accounting rule, applied after the fact so
            # the power layer stays idle during the timed phase
            energy_nj = sum(
                DEFAULT_PROFILE.reconfig_energy_nj(
                    int(o.tr_us * freq_hz / 1e6), freq_hz)
                + DEFAULT_PROFILE.payload_energy_nj(o.tc_us)
                for o in outcomes)
        reconfigured = [o for o in outcomes if o.reconfigured]
        on_time = sum(1 for o in outcomes if not o.deadline_missed)
        td_err = max((_relative_err_pct(o.td_us, PAPER_VALUES["td_us"])
                      for o in reconfigured), default=0.0)
        sim = {
            "sim_p50_us": report.latency_p50_us,
            "sim_p99_us": report.latency_p99_us,
            "sim_ontime_share": on_time / requests,
            "sim_goodput_rps": on_time / (report.span_us / 1e6),
            "sim_energy_uj_per_req": energy_nj / requests / 1e3,
            # T_d (decision time) is the one paper anchor the serving
            # path reproduces: every reconfiguration pays it
            "anchor_fit_pct": 100.0 - td_err,
        }
        raw = {
            "failed_share": failed / requests,
            "sim_miss_rate": report.deadline_miss_rate,
            "anchor_err_pct": td_err,
        }
        stable = report.to_dict()
        stable.pop("wall_seconds")
        activity = collect_activity(soc)
        power = report.power or {}
        lookups = report.reconfigurations + report.reconfig_skips
        layer = {
            "sched.batches": report.batches,
            "sched.mean_batch_size": report.mean_batch_size,
            "sched.reconfig_skip_ratio": (report.reconfig_skips / lookups
                                          if lookups else 0.0),
            "sched.queue_wait_p99_us": report.queue_wait_p99_us,
            "cache.hit_ratio": cache["hit_rate"],
            "cache.misses": cache["misses"],
            "cache.evictions": cache["evictions"],
            "cache.sd_bytes_loaded": cache["sd_bytes_loaded"],
            "power.deferrals": power.get("power_deferrals", 0),
            "power.deferred_us": power.get("power_deferred_cycles", 0)
            * 1e6 / freq_hz,
            "drivers.sim_td_us": _median([o.td_us for o in reconfigured]),
            "drivers.sim_tr_us": _median([o.tr_us for o in reconfigured]),
            "accel.sim_tc_us": _median([o.tc_us for o in outcomes
                                        if o.tc_us]),
            "obs.spans_per_op": len(soc.obs.tracer.spans) / requests,
            **_activity_layers(activity),
        }
        return Evaluation(
            ops=requests, failed=failed, problems=problems, sim=sim, raw=raw,
            fingerprint={"report": stable, "activity": activity},
            layer=layer)


# ----------------------------------------------------------------------
# the paper's own measurement protocol
# ----------------------------------------------------------------------
@dataclass
class PaperState:
    soc: Any
    manager: Any
    image: np.ndarray
    ceiling_soc: Any
    ceiling_driver: RvCapDriver
    ceiling_descriptor: RmDescriptor
    hwicap_pbit_bytes: int
    #: unroll factor -> (fresh SoC holding the pbit, firmware image)
    hwicap: Dict[int, Any]
    results: Dict[str, Any] = field(default_factory=dict)


def _staged_soc(pbit: bytes) -> Any:
    """A fresh SoC without case-study modules, ``pbit`` placed in DDR."""
    soc = builder.build_soc(with_case_study_modules=False)
    soc.ddr_write(soc.config.layout.ddr_base + (16 << 20), pbit)
    return soc


def _sweep_pbit(name: str, geometry: RpGeometry) -> bytes:
    rp = scenarios.rp_for_geometry(name, geometry)
    module = ReconfigurableModule(f"{name}_mod", ResourceBudget(1, 1, 0, 0))
    return Bitgen().generate(rp, module).to_bytes()


class PaperWorkload:
    """The paper's measurement protocol, once per repetition.

    Steps: RV-CAP reconfiguration of the 650 892-B reference pbit
    (T_d, T_r), one 512x512 sobel run (T_c, bit-exact against
    ``sobel3x3``), an RV-CAP reconfiguration of the largest Fig. 3
    bitstream (the 398.1 MB/s ceiling) and the HWICAP firmware copy
    loop on the ISS at unroll 1 and 16 (4.16 / 8.23 MB/s).
    """

    #: steps per repetition, each one operation
    STEPS = 5
    UNROLLS = (1, 16)

    def setup(self, seed: int) -> PaperState:
        soc, manager = scenarios.reference_setup()
        ceiling_pbit = _sweep_pbit("rp_xxl", dict(
            scenarios.fig3_geometries())["rp_xxl"])
        ceiling_soc = _staged_soc(ceiling_pbit)
        descriptor = RmDescriptor(
            name="ceiling", file_name="CEILING.PBI",
            start_address=ceiling_soc.config.layout.ddr_base + (16 << 20),
            pbit_size=len(ceiling_pbit))
        # the Sec. IV-B study's reduced bitstream (the CPU copy loop's
        # throughput does not depend on its size)
        hwicap_pbit = _sweep_pbit("unroll_rp", RpGeometry(4, 1, 1, 1))
        hwicap = {}
        for unroll in self.UNROLLS:
            staged = _staged_soc(hwicap_pbit)
            firmware = build_hwicap_firmware(
                staged.config.layout.ddr_base + (16 << 20), len(hwicap_pbit),
                unroll=unroll)
            hwicap[unroll] = (staged, firmware)
        return PaperState(
            soc=soc, manager=manager, image=scene_image(512, seed=seed),
            ceiling_soc=ceiling_soc,
            ceiling_driver=RvCapDriver(HostPort(ceiling_soc)),
            ceiling_descriptor=descriptor,
            hwicap_pbit_bytes=len(hwicap_pbit), hwicap=hwicap)

    def run(self, state: PaperState) -> None:
        results = state.results
        results["reconfig"] = state.manager.load_module("sobel")
        results["sobel"] = state.manager.process_image("sobel", state.image)
        results["ceiling"] = state.ceiling_driver.init_reconfig_process(
            state.ceiling_descriptor)
        results["hwicap"] = {
            unroll: runner.run_firmware(staged, firmware)
            for unroll, (staged, firmware) in state.hwicap.items()}

    def evaluate(self, state: PaperState) -> Evaluation:
        results = state.results
        reconfig = results["reconfig"]
        output, times = results["sobel"]
        ceiling = results["ceiling"]
        firmware = results["hwicap"]
        hwicap_socs = [staged for staged, _fw in state.hwicap.values()]
        problems: List[str] = []
        if reconfig is None or reconfig.pbit_size != \
                scenarios.REFERENCE_PBIT_BYTES:
            problems.append("reference reconfiguration did not stream the "
                            f"{scenarios.REFERENCE_PBIT_BYTES}-B pbit")
        if not np.array_equal(output, sobel3x3(state.image)):
            problems.append("sobel output differs from sobel3x3")
        for soc in [state.soc, state.ceiling_soc, *hwicap_socs]:
            if soc.icap.error:
                problems.append("icap.error is set")
        for unroll, result in firmware.items():
            if not result.done:
                problems.append(f"HWICAP firmware (unroll {unroll}) did "
                                "not set its done flag")
        failed = min(self.STEPS, len(problems))

        mb_s = {unroll: state.hwicap_pbit_bytes / result.elapsed_us()
                for unroll, result in firmware.items()}
        td_us = reconfig.td_us if reconfig else 0.0
        tr_us = reconfig.tr_us if reconfig else 0.0
        measured = {
            "td_us": td_us,
            "tr_us": tr_us,
            "tc_us": times.tc_us,
            "hwicap_unroll1_mb_s": mb_s[1],
            "hwicap_unroll16_mb_s": mb_s[16],
            "rvcap_ceiling_mb_s": ceiling.throughput_mb_s,
        }
        errors = {name: _relative_err_pct(measured[name], paper)
                  for name, paper in PAPER_VALUES.items()}
        anchor_err = max(errors.values())
        # one operation of the paper's RV-CAP case study: select,
        # reconfigure and compute (T_d + T_r + T_c); it has no deadline
        latency_us = td_us + tr_us + times.tc_us
        freq_hz = state.soc.config.timing.soc_freq_hz
        energy_nj = (DEFAULT_PROFILE.reconfig_energy_nj(
            int(tr_us * freq_hz / 1e6), freq_hz)
            + DEFAULT_PROFILE.payload_energy_nj(times.tc_us))
        sim = {
            "sim_p50_us": latency_us,
            "sim_p99_us": latency_us,
            "sim_ontime_share": (self.STEPS - failed) / self.STEPS,
            "sim_goodput_rps": 1e6 / latency_us if not failed else 0.0,
            "sim_energy_uj_per_req": energy_nj / 1e3,
            "anchor_fit_pct": 100.0 - anchor_err,
        }
        raw = {"failed_share": failed / self.STEPS,
               "sim_miss_rate": failed / self.STEPS,
               "anchor_err_pct": anchor_err}
        activity = _sum_activity([state.soc, state.ceiling_soc,
                                  *hwicap_socs])
        cycles = sum(result.cycles for result in firmware.values())
        instret = sum(result.instructions for result in firmware.values())
        layer = {
            "drivers.sim_td_us": td_us,
            "drivers.sim_tr_us": tr_us,
            "accel.sim_tc_us": times.tc_us,
            "riscv.sim_cpi": cycles / instret if instret else 0.0,
            **_activity_layers(activity),
        }
        fingerprint = {
            "measured": measured,
            "firmware": {str(unroll): [r.instructions, r.cycles,
                                       r.t0_ticks, r.t1_ticks]
                         for unroll, r in firmware.items()},
            "activity": activity,
        }
        return Evaluation(
            ops=self.STEPS, failed=failed, problems=problems, sim=sim,
            raw={**raw, **{
                "anchor_err_pct." + ("calibrated." if calibrated
                                     else "held_out.") + name: errors[name]
                for name, _paper, calibrated in PAPER_ANCHORS}},
            fingerprint=fingerprint, layer=layer)


def make_workloads() -> Dict[str, Any]:
    """Every workload by name."""
    return {
        # common serving path: every request hits a warm arena and most
        # reconfigure and run a 32x32 payload
        "serve_hot": ServeWorkload(
            modules=8, zipf_s=1.1, rate_rps=6000.0,
            arena_bytes=1 << 20, payload=True, warm=True, slack_us=2000.0),
        # reconfiguration-only, cache-missing path with the verifier and
        # a peak-power cap live
        "serve_churn": ServeWorkload(
            modules=24, zipf_s=0.6, rate_rps=150.0,
            arena_bytes=128 << 10, payload=False, warm=False,
            slack_us=20_000.0, verify=True, power_profile=DEFAULT_PROFILE,
            peak_power_mw=175.0, power_window_us=2000.0),
        "paper_repro": PaperWorkload(),
    }
