"""Run ports match the per-burst calls they replace, port by port.

The DMA's bulk runs are built from two plan-then-commit ports: the
crossbar + DDR ``resolve_burst_run`` and the ICAP ``resolve_accept_run``
(behind the switch and AXIS2ICAP stages).  These properties drive each
port from random prior states and compare it against the plain
``read_burst`` / ``accept`` calls issued burst by burst: every returned
cycle, every byte, every counter, and the state a later per-burst call
observes (port watermarks, open row, parser state, committed frames).
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.crossbar import AxiCrossbar
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.packets import NOOP_WORD, SYNC_WORD
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.mem.ddr import DdrController
from repro.obs import Observability, render_stats

BASE = 0x8000_0000
SIZE = 1 << 18


def _memory(seed: int, warmup: list):
    """A crossbar in front of a DDR port, warmed up by plain bursts."""
    ddr = DdrController(SIZE)
    rng = np.random.default_rng(seed)
    ddr.load_image(0, rng.integers(0, 256, SIZE, dtype=np.uint16)
                   .astype(np.uint8).tobytes())
    xbar = AxiCrossbar("x")
    xbar.attach("ddr", BASE, SIZE, ddr.port("p"))
    obs = Observability()
    xbar.attach_obs(obs)
    for addr, nbytes, at in warmup:
        xbar.read_burst(BASE + addr, nbytes, at)
    return ddr, xbar, obs


def _memory_state(ddr, xbar, obs, follow, probe) -> tuple:
    # later bursts see the port watermark, open row and sequential
    # address the run left behind: one continuing the stream, one
    # anywhere
    nxt = xbar.read_burst(BASE + follow, 128, 0)
    addr, at = probe
    after = xbar.read_burst(BASE + addr, 64, at)
    return (ddr.bytes_read, ddr.row_activates, xbar.transactions,
            render_stats(obs.metrics), nxt.complete_at, after.complete_at,
            after.data)


warmups = st.lists(st.tuples(st.integers(0, SIZE - 4096),
                             st.sampled_from([8, 64, 128]),
                             st.integers(0, 400)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), warmup=warmups,
       start=st.integers(0, 4 * 8192), burst=st.sampled_from([8, 64, 128, 256]),
       count=st.integers(1, 90), now=st.integers(0, 500),
       window=st.one_of(st.none(), st.integers(0, 4000)),
       take=st.floats(0.0, 1.0), probe=st.tuples(st.integers(0, SIZE - 64),
                                                st.integers(0, 20_000)))
def test_burst_run_matches_read_burst(seed, warmup, start, burst, count, now,
                                      window, take, probe):
    until = float("inf") if window is None else now + window
    ddr, xbar, obs = _memory(seed, warmup)
    plan = xbar.resolve_burst_run(BASE + start, BASE + start + count * burst)
    done, load, commit = plan(BASE + start, burst, count, now, until)
    assert 1 <= len(done) <= count
    if len(done) < count:  # cut short only past the first burst >= until
        assert done[-1] >= until
    k = max(1, int(take * len(done)))
    data = load(k)
    commit(k)
    follow = start + k * burst
    run = (done[:k], data, _memory_state(ddr, xbar, obs, follow, probe))

    ddr, xbar, obs = _memory(seed, warmup)
    times, chunks, at = [], [], now
    for i in range(k):
        result = xbar.read_burst(BASE + start + i * burst, burst, at)
        at = result.complete_at
        times.append(at)
        chunks.append(result.data)
    reference = (times, b"".join(chunks),
                 _memory_state(ddr, xbar, obs, follow, probe))
    assert run == reference


def _bitstream(clb_cols: int) -> bytes:
    rp = ReconfigurablePartition(
        "run_rp", RpGeometry(clb_cols, 0, 0, 1),
        ResourceBudget(10**6, 10**6, 10**3, 10**3))
    module = ReconfigurableModule("runmod", ResourceBudget(1, 1, 0, 0))
    return Bitgen().generate(rp, module).to_bytes()


BITSTREAMS = {cols: _bitstream(cols) for cols in (1, 2)}


def _icap() -> Icap:
    icap = Icap(ConfigMemory(KINTEX7_325T))
    icap.attach_obs(Observability())
    return icap


def _icap_state(icap: Icap) -> tuple:
    return (icap.words_consumed, icap.stall_cycles, icap.busy_until,
            icap.crc_error, icap.protocol_error, icap.desynced_count,
            icap.reconfigurations_completed, icap.pending_frames,
            icap.config_memory.frames_written,
            render_stats(icap.obs.metrics))


@settings(max_examples=80, deadline=None)
@given(cols=st.sampled_from(sorted(BITSTREAMS)),
       split=st.floats(0.0, 1.0), burst=st.sampled_from([8, 64, 128, 132]),
       count=st.integers(1, 60), lead=st.integers(0, 3),
       gaps=st.integers(0, 2**16), sync_at=st.one_of(st.none(),
                                                      st.integers(0, 40)),
       noops=st.integers(0, 40), tight=st.booleans())
def test_accept_run_matches_accept(cols, split, burst, count, lead, gaps,
                                   sync_at, noops, tight):
    padding = [NOOP_WORD] * noops
    if sync_at is not None:
        padding.insert(min(sync_at, noops), SYNC_WORD)
    stream = BITSTREAMS[cols] + b"".join(w.to_bytes(4, "big")
                                         for w in padding)
    offset = int(split * len(stream)) & ~3
    offered = stream[offset:offset + count * burst]
    count = len(offered) // burst

    run_icap = _icap()
    run_icap.accept(stream[:offset], 0)
    rng = random.Random(gaps)
    if tight:
        # arrivals within a cycle or two of the port draining the
        # previous burst: both branches of the busy chain, at the edge
        drain = run_icap.busy_until - lead
        arrivals = [drain + i * (burst // 4) + rng.choice([-2, -1, 0, 1, 2])
                    for i in range(count)]
        arrivals = [max(arrivals[:i + 1]) for i in range(count)]
    else:
        arrivals, at = [], 0
        for _ in range(count):
            at += rng.choice([0, 1, 5, 30, 40, 200])
            arrivals.append(at)
    plan = run_icap.resolve_accept_run(lead)
    offer = plan(count, burst) if count else None
    taken = 0
    if offer is not None:
        limit, pace, take = offer
        assert 1 <= limit <= count
        drained = pace(arrivals[:limit])
        taken = take(offered[:limit * burst])
        assert 0 <= taken <= limit
    run_done = drained[:taken] if taken else []

    ref_icap = _icap()
    ref_icap.accept(stream[:offset], 0)
    ref_done = [ref_icap.accept(offered[i * burst:(i + 1) * burst],
                                arrivals[i] + lead)
                for i in range(taken)]
    assert run_done == ref_done
    assert _icap_state(run_icap) == _icap_state(ref_icap)
    # the rest of the stream must parse identically on both sides
    rest = offset + taken * burst
    for icap in (run_icap, ref_icap):
        icap.accept(stream[rest:], 10**6)
    assert _icap_state(run_icap) == _icap_state(ref_icap)
    assert run_icap._state == ref_icap._state
