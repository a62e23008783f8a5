"""DMA engine vs the per-burst reference oracle over randomized scenarios.

The production engine collapses a transfer's per-burst simulation
events into one computed timeline; these properties pin it to the
per-burst reference (``dma_reference.py``) under everything that can
interrupt a transfer mid-flight: random lengths and burst geometries,
injected bus faults, soft resets, and the full multi-tenant serving
path (where the whole ReplayReport — statuses, latencies, Tr
breakdowns, ICAP busy cycles — must come out bit-identical).
"""

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.stream import BufferSource, CaptureSink
from repro.core import dma as dr
from repro.core.dma import AxiDma
from repro.faults.injectors import DmaResetInjector, install_mem_fault
from repro.mem.ddr import DdrController
from repro.sim import Simulator
from tests.property.dma_reference import use_reference_dma

#: ``True`` runs the reference oracle, ``False`` the production engine
ENGINES = (True, False)


def _prepare(dma, reference):
    return use_reference_dma(dma) if reference else dma


def _mm2s_observe(reference, length, burst_beats, seed, *,
                  fault_at=None, reset_delay=None):
    """Every externally visible observable of one MM2S transfer."""
    sim = Simulator()
    ddr = DdrController(1 << 20)
    dma = _prepare(AxiDma(sim, ddr, burst_beats=burst_beats), reference)
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=length, dtype=np.uint16).astype(
        np.uint8).tobytes()
    ddr.load_image(0x400, payload)
    sink = CaptureSink(bytes_per_cycle=4)
    channel = dma.mm2s
    channel.sink = sink
    proxy = None
    if fault_at is not None:
        proxy = install_mem_fault(channel, fail_read_at=fault_at)
    if reset_delay is not None:
        DmaResetInjector(sim, channel, reset_delay)
    dma.write(dr.MM2S_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
    dma.write(dr.MM2S_SA, (0x400).to_bytes(4, "little"), 0)
    dma.write(dr.MM2S_LENGTH, length.to_bytes(4, "little"), 0)
    sim.run()
    return {
        "data": bytes(sink.data),
        "bytes_done": channel.bytes_done,
        "status": channel.status,
        "completed": channel.transfers_completed,
        "errored": channel.transfers_errored,
        "aborted": channel.transfers_aborted,
        "start_cycle": channel.last_start_cycle,
        "complete_cycle": channel.last_complete_cycle,
        "final_now": sim.now,
        "faults_injected": proxy.faults_injected if proxy else 0,
    }


class TestTransferEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.sampled_from([1, 2, 4, 8, 16, 32]),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_clean_transfer_is_cycle_identical(self, length, burst_beats,
                                               seed):
        reference, production = (
            _mm2s_observe(engine, length, burst_beats, seed)
            for engine in ENGINES
        )
        assert reference == production

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=64, max_value=4000),
        st.sampled_from([2, 8, 16]),
        st.integers(min_value=0, max_value=2**16),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_mid_transfer_bus_fault_is_cycle_identical(
            self, length, burst_beats, seed, fault_frac):
        # the faulting burst must split out of the production engine's
        # eager timeline at exactly the reference engine's cycle
        fault_at = int(fault_frac * length)
        reference, production = (
            _mm2s_observe(engine, length, burst_beats, seed,
                          fault_at=fault_at)
            for engine in ENGINES
        )
        assert reference == production
        assert reference["faults_injected"] == 1

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=64, max_value=4000),
        st.sampled_from([2, 8, 16]),
        st.integers(min_value=1, max_value=400),
    )
    def test_mid_transfer_soft_reset_is_cycle_identical(
            self, length, burst_beats, reset_delay):
        reference, production = (
            _mm2s_observe(engine, length, burst_beats, seed=7,
                          reset_delay=reset_delay)
            for engine in ENGINES
        )
        assert reference == production

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=4000))
    def test_s2mm_roundtrip_is_cycle_identical(self, payload):
        def run(reference):
            sim = Simulator()
            ddr = DdrController(1 << 20)
            dma = _prepare(AxiDma(sim, ddr), reference)
            dma.s2mm.source = BufferSource(payload)
            dma.write(dr.S2MM_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
            dma.write(dr.S2MM_DA, (0x800).to_bytes(4, "little"), 0)
            dma.write(dr.S2MM_LENGTH, len(payload).to_bytes(4, "little"), 0)
            sim.run()
            return (ddr.dump(0x800, len(payload)), dma.s2mm.bytes_done,
                    dma.s2mm.status, dma.s2mm.last_complete_cycle, sim.now)

        reference, production = (run(engine) for engine in ENGINES)
        assert reference == production


def _replay_observe(reference, seed, rate):
    """Full serving-path replay: report dict + raw ICAP busy cycles."""
    from repro.sched import (
        DprScheduler, WorkloadSpec, build_sched_soc, make_cache,
        synthesize,
    )
    from repro.sched.replay import _serve, summarize

    spec = WorkloadSpec(requests=40, arrival_rate_rps=rate, modules=4,
                        frame=16, deadline_slack_us=20_000.0, seed=seed)
    manager = build_sched_soc(spec.modules, frame=spec.frame)
    manager.soc.attach_observability()
    _prepare(manager.soc.rvcap.dma, reference)
    cache = make_cache(manager, arena_bytes=1 << 18)
    scheduler = DprScheduler(manager, cache=cache)
    outcomes = asyncio.run(_serve(scheduler, synthesize(spec)))
    report = summarize(outcomes, scheduler=scheduler, cache=cache,
                       wall_seconds=0.0)
    document = report.to_dict(include_outcomes=True)
    document.pop("wall_seconds")
    return document, scheduler.icap_busy_cycles


class TestServingPathEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([500.0, 2000.0, 8000.0]),
    )
    def test_replay_reports_are_identical(self, seed, rate):
        reference, production = (
            _replay_observe(engine, seed, rate) for engine in ENGINES
        )
        reference_doc, reference_busy = reference
        production_doc, production_busy = production
        # per-request outcomes carry the Td/Tr/Tc breakdown, so dict
        # equality pins every latency the report can surface
        assert reference_doc == production_doc
        assert reference_busy == production_busy
