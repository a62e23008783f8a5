"""Bulk-run DMA streaming vs the per-burst oracle on the real RV-CAP chain.

Each property builds the serving SoC twice — once with the production
DMA (bulk runs through crossbar + DDR port + switch + AXIS2ICAP + ICAP,
closed-form S2MM retry chains) and once with the per-burst reference
channels of ``dma_reference.py`` — drives the same reconfiguration or
payload through the real drivers, and compares everything either side
can observe: transfer cycles and outcomes, ICAP / DDR / crossbar
counters, row activates, the rendered metrics registry and every span,
instant and signal change.  The scenarios aim at the run boundaries:
odd pbit lengths, DDR offsets straddling an 8 KiB row, CPU DMASR polling
with tight horizons, soft resets and bus faults mid-run, a corrupted
CRC, padding holding an aligned SYNC word, and an RP decoupled while
the S2MM channel waits on the accelerator.

The driver is run in interrupt mode or behind a fixed-period DMASR poll
loop.  Its own polling mode waits event to event (like a core in wfi),
so its poll count follows how many events an engine schedules — one per
burst for the oracle — and is not an observable the engines share.
"""

from __future__ import annotations

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dma as dr
from repro.core.rp_control import DECOUPLE_OFFSET
from repro.drivers.fileio import RmDescriptor
from repro.faults.injectors import (
    DmaResetInjector,
    flip_word_bit,
    install_mem_fault,
)
from repro.fpga.packets import NOOP_WORD, SYNC_WORD
from repro.obs import render_stats
from repro.sched.workload import build_sched_soc
from repro.sim.kernel import Delay
from tests.property.dma_reference import use_reference_dma

#: local DDR offset of the test pbit (clear of the serving arena)
PBIT_BASE = 8 << 20
#: row-straddling and arbitrary start offsets within a few DDR rows
OFFSETS = st.one_of(st.integers(min_value=0, max_value=3 * 8192),
                    st.integers(min_value=8192 - 400, max_value=8192 + 400))


def _platform(reference: bool, frame: int = 16):
    manager = build_sched_soc(2, frame=frame)
    manager.soc.attach_observability()
    if reference:
        use_reference_dma(manager.soc.rvcap.dma)
    return manager


def _pbit(manager, module: str = "rm0") -> bytes:
    soc = manager.soc
    return soc.bitgen.generate(soc.rp, soc.module(module)).to_bytes()


def _padding(noop_words: int, sync_at: int | None, tail: int) -> bytes:
    """Post-DESYNC padding: NOOPs, an optional SYNC, a partial word."""
    words = [NOOP_WORD] * noop_words
    if sync_at is not None:
        words.insert(min(sync_at, len(words)), SYNC_WORD)
    return (b"".join(w.to_bytes(4, "big") for w in words)
            + bytes([0x20] * tail))


def _stage(manager, pbit: bytes, offset: int) -> RmDescriptor:
    soc = manager.soc
    local = PBIT_BASE + offset
    soc.ddr.load_image(local, pbit)
    return RmDescriptor(name="rm0", file_name="RM0.PBI",
                        start_address=soc.config.layout.ddr_base + local,
                        pbit_size=len(pbit))


def _observe(manager, outcome) -> dict:
    soc = manager.soc
    tracer = soc.obs.tracer
    icap = soc.icap
    channels = (soc.rvcap.dma.mm2s, soc.rvcap.dma.s2mm)
    return {
        "outcome": outcome,
        "now": soc.sim.now,
        "channels": [
            (c.bytes_done, c.bursts_completed, c.status, c.control, c.busy,
             c.last_start_cycle, c.last_complete_cycle,
             c.transfers_completed, c.transfers_errored, c.transfers_aborted,
             getattr(c.mem_port, "inner", c.mem_port).transactions)
            for c in channels],
        "icap": (icap.words_consumed, icap.stall_cycles, icap.busy_until,
                 icap.crc_error, icap.protocol_error, icap.idcode_mismatch,
                 icap.desynced_count, icap.reconfigurations_completed,
                 icap.pending_frames),
        "ddr": (soc.ddr.bytes_read, soc.ddr.bytes_written,
                soc.ddr.row_activates),
        "frames_written": soc.config_memory.frames_written,
        "active": soc.active_module_name,
        "stats": render_stats(soc.obs.metrics),
        "spans": [(s.track, s.name, s.start_cycle, s.end_cycle, s.parent_id,
                   sorted(s.args.items())) for s in tracer.spans],
        "instants": [(e.cycle, e.track, e.name, sorted(e.args.items()))
                     for e in tracer.instants],
        "signals": tracer.signals,
    }


def _reconfigure(reference: bool, *, offset: int, padding: bytes = b"",
                 corrupt: bool = False,
                 reset_delay: int | None = None,
                 fault_at: int | None = None,
                 poll_gap: int | None = None) -> dict:
    manager = _platform(reference)
    soc = manager.soc
    pbit = _pbit(manager)
    if corrupt:
        # one flipped bit mid-FDRI: the CRC check must reject the stream
        pbit = flip_word_bit(pbit, len(pbit) // 8, 5)
    descriptor = _stage(manager, pbit + padding, offset)
    channel = soc.rvcap.dma.mm2s
    if fault_at is not None:
        install_mem_fault(channel, fail_read_at=fault_at)
    if reset_delay is not None:
        DmaResetInjector(soc.sim, channel, reset_delay)
    driver = manager.rvcap
    try:
        if poll_gap is None:
            result = driver.init_reconfig_process(descriptor)
            outcome = (result.td_us, result.tr_us)
        else:
            # a CPU polling DMASR every ``poll_gap`` cycles: every poll
            # is an advance with a conservative horizon, cutting runs
            driver.decouple_accel(1)
            driver.select_icap(1)
            driver.dma_start(irq_enabled=False)
            driver.dma_write_stream(descriptor.start_address,
                                    descriptor.pbit_size)
            polls = 0
            settled = dr.SR_IDLE | dr.SR_ERR_IRQ | dr.SR_HALTED
            while not manager.port.read32(
                    driver.dma_base + dr.MM2S_DMASR) & settled:
                manager.port.elapse(poll_gap)
                polls += 1
            outcome = ("polled", polls)
    except Exception as exc:  # the failure itself is an observable
        outcome = (type(exc).__name__, str(exc))
    return _observe(manager, outcome)


def _stat_rows(text: str) -> dict:
    rows = (re.split(r"\s{2,}", line.strip(), maxsplit=1)
            for line in text.splitlines())
    return {row[0]: row[1] for row in rows}


def _check(production: dict, reference: dict) -> None:
    assert {k: v for k, v in production.items() if k != "stats"} == \
        {k: v for k, v in reference.items() if k != "stats"}
    if production["stats"] == reference["stats"]:
        return
    # The production engine resolves the switch's per-port byte counter
    # when a descriptor starts; the oracle registers it at its first
    # accepted burst.  A transfer failing on burst 0 therefore leaves a
    # zero counter on the production side only — nothing else may differ.
    produced = _stat_rows(production["stats"])
    expected = _stat_rows(reference["stats"])
    extra = {name: produced.pop(name) for name in set(produced) - set(expected)}
    assert produced == expected
    assert set(extra.values()) == {"0"}
    assert all(name.startswith("axis_switch_bytes_total") for name in extra)


def _assert_same(**kwargs) -> dict:
    reference = _reconfigure(True, **kwargs)
    production = _reconfigure(False, **kwargs)
    _check(production, reference)
    return production


class TestReconfigurationRuns:
    @settings(max_examples=8, deadline=None)
    @given(OFFSETS, st.integers(min_value=0, max_value=90),
           st.integers(min_value=0, max_value=3))
    def test_odd_lengths_and_row_straddling_offsets(self, offset, noops, tail):
        observed = _assert_same(offset=offset,
                                padding=_padding(noops, None, tail))
        assert observed["icap"][7] == 1  # one clean reconfiguration

    @settings(max_examples=8, deadline=None)
    @given(OFFSETS, st.integers(min_value=1, max_value=400))
    def test_cpu_polling_cuts_runs(self, offset, poll_gap):
        observed = _assert_same(offset=offset, poll_gap=poll_gap)
        assert observed["outcome"][0] == "polled"

    @settings(max_examples=8, deadline=None)
    @given(OFFSETS, st.integers(min_value=1, max_value=4000),
           st.integers(min_value=1, max_value=400))
    def test_soft_reset_mid_run(self, offset, reset_delay, poll_gap):
        _assert_same(offset=offset, reset_delay=reset_delay,
                     poll_gap=poll_gap)

    @settings(max_examples=6, deadline=None)
    @given(OFFSETS, st.integers(min_value=0, max_value=15_000))
    def test_bus_fault_falls_back(self, offset, fault_at):
        observed = _assert_same(offset=offset, fault_at=fault_at)
        assert observed["outcome"][0] == "ControllerError"

    @settings(max_examples=4, deadline=None)
    @given(OFFSETS)
    def test_crc_corruption(self, offset):
        observed = _assert_same(offset=offset, corrupt=True)
        assert observed["icap"][3]  # crc_error latched on both sides

    @settings(max_examples=6, deadline=None)
    @given(OFFSETS, st.integers(min_value=0, max_value=90),
           st.integers(min_value=0, max_value=90),
           st.integers(min_value=0, max_value=3))
    def test_padding_sync_reopens_a_session(self, offset, noops, sync_at,
                                            tail):
        observed = _assert_same(offset=offset,
                                padding=_padding(noops, sync_at, tail))
        sessions = [s for s in observed["spans"]
                    if s[:2] == ("icap", "session")]
        assert len(sessions) == 2
        assert sessions[1][3] is None  # the reopened session stays open


def _payload(reference: bool, decouple_at: int, decoupled_for: int) -> dict:
    """One accelerator payload with the RP decoupled for a while."""
    manager = _platform(reference, frame=64)
    soc = manager.soc
    descriptor = _stage(manager, _pbit(manager), 0)
    manager.rvcap.init_reconfig_process(descriptor)
    driver = manager.rvcap
    rng = np.random.default_rng(decouple_at)
    image = rng.integers(0, 256, size=64 * 64, dtype=np.uint16).astype(
        np.uint8).tobytes()
    ddr_base = soc.config.layout.ddr_base
    src, dst = PBIT_BASE + (1 << 20), PBIT_BASE + (2 << 20)
    soc.ddr.load_image(src, image)
    driver.select_icap(0)
    driver.select_rm(0)
    driver.decouple_accel(0)
    soc.active_rms[0].reset()
    port = manager.port
    port.write32(driver.dma_base + dr.S2MM_DMACR, dr.CR_RS)
    port.write32(driver.dma_base + dr.S2MM_DA, ddr_base + dst)
    port.write32(driver.dma_base + dr.S2MM_LENGTH, len(image))
    driver.dma_start(irq_enabled=False)
    driver.dma_write_stream(ddr_base + src, len(image))
    rp_control = soc.rvcap.rp_control

    def saboteur():
        yield Delay(decouple_at)
        rp_control.write(DECOUPLE_OFFSET, (1).to_bytes(4, "little"),
                         soc.sim.now)
        yield Delay(decoupled_for)
        rp_control.write(DECOUPLE_OFFSET, (0).to_bytes(4, "little"),
                         soc.sim.now)

    soc.sim.add_process(saboteur(), name="test.decouple")
    s2mm = soc.rvcap.dma.s2mm
    try:
        port.wait_for(lambda: not s2mm.busy, timeout_cycles=30_000)
        outcome = "done"
    except Exception as exc:  # a frame starved by dropped input
        outcome = type(exc).__name__
    observed = _observe(manager, outcome)
    observed["output"] = soc.ddr.dump(dst, len(image))
    return observed


class TestS2mmWait:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=4000),
           st.integers(min_value=1, max_value=3000))
    def test_rp_decoupled_mid_payload(self, decouple_at, decoupled_for):
        reference = _payload(True, decouple_at, decoupled_for)
        production = _payload(False, decouple_at, decoupled_for)
        _check(production, reference)
