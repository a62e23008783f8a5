"""Xilinx-style AXI DMA model (direct register mode).

Component (1) of the RV-CAP architecture: "a Xilinx DMA controller
connected to the SoC DDR controller through an additional crossbar...
configured to transfer a 64-bit data word from the SoC DDR memory"
(Sec. III-B), with its completion interrupts wired to the PLIC for the
non-blocking reconfiguration mode.

The register map follows the real IP (PG021) closely enough that the
paper's driver pseudo-code maps one-to-one: DMACR.RS starts the
channel, writing LENGTH triggers the transfer, DMASR reports
Halted/Idle/IOC_Irq, and the IOC interrupt fires on completion.

Transfers follow a burst schedule (128 B per burst at the default
16-beat * 64-bit burst), so the DDR port, the stream switch and the
ICAP all see correctly interleaved traffic, and a CPU polling DMASR
mid-transfer observes the true in-flight state.

Execution: each descriptor runs eagerly inside the kernel's batch
window, tracking the virtual pacing position through
``Simulator.batch_advance`` instead of yielding a ``Delay`` per burst.
Every data-plane call takes explicit timestamps (memory ports, stream
sinks/sources keep their own ``busy_until`` watermarks), so eager
execution inside the window — bounded by the next foreign event and
the caller's observation horizon — produces bit-identical timing.  When
the next pacing target would reach the window the engine yields a real
``Delay`` (split-on-interrupt), which preserves exact interleaving with
fault injectors, concurrent channels and CPU observation, and keeps
``CR_RESET`` aborts working unchanged (the generator is always
suspended at a yield when foreign code runs).

Bulk runs: where the memory port and the stream sink both hand out run
ports (``resolve_burst_run`` / ``resolve_accept_run``: the RV-CAP
crossbar + DDR port feeding the switch + AXIS2ICAP + ICAP), each maximal
run of whole bursts the sink absorbs with no parser-visible effect —
the FDRI payload interior, and unsynced padding with no word-aligned
SYNC — is one step: one closed-form timing pass over the crossbar/DDR
request chain and the ICAP ``busy_until`` chain, one cut at the first
burst whose pacing target reaches the window, and one bulk commit (one
memory load, one ICAP staging, every counter and histogram sample
derived arithmetically).  The run is exact because (1) it covers only
bytes whose per-burst accepts would have changed nothing but timing
and counters, (2) it stays strictly inside the window, so nothing else
runs while it executes, exactly as for the per-burst loop, and (3) it
uses only chains whose per-burst recurrences are fixed (no fault proxy,
device-bandwidth cap, decompressor or unknown layer: those refuse a run
port and take the per-burst loop).  Likewise a stationary not-ready
S2MM source (``retry_spacing``) has its retry chain skipped in closed
form up to the window.  ``tests/property/dma_reference.py`` keeps the
one-event-per-burst reference engine as the test oracle.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Generator, List, Optional

from repro.axi.interface import AxiSlave, RegisterBank
from repro.axi.stream import StreamSink, StreamSource
from repro.errors import ControllerError
from repro.sim.kernel import Delay, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.metrics import Counter, Histogram

# register offsets (PG021 subset)
MM2S_DMACR = 0x00
MM2S_DMASR = 0x04
MM2S_SA = 0x18
MM2S_SA_MSB = 0x1C
MM2S_LENGTH = 0x28
S2MM_DMACR = 0x30
S2MM_DMASR = 0x34
S2MM_DA = 0x48
S2MM_DA_MSB = 0x4C
S2MM_LENGTH = 0x58

CR_RS = 1 << 0
CR_RESET = 1 << 2
CR_IOC_IRQ_EN = 1 << 12
CR_ERR_IRQ_EN = 1 << 14

SR_HALTED = 1 << 0
SR_IDLE = 1 << 1
SR_IOC_IRQ = 1 << 12
SR_ERR_IRQ = 1 << 14

class DmaChannel:
    """One DMA channel (MM2S: memory->stream, or S2MM: stream->memory)."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        mem_port: AxiSlave,
        *,
        is_mm2s: bool,
        burst_beats: int = 16,
        beat_bytes: int = 8,
        start_latency: int = 24,
    ) -> None:
        self.name = name
        self.sim = sim
        self.mem_port = mem_port
        self.is_mm2s = is_mm2s
        self.burst_bytes = burst_beats * beat_bytes
        self.start_latency = start_latency
        self.sink: Optional[StreamSink] = None
        self.source: Optional[StreamSource] = None
        self.irq_callback: Optional[Callable[[], None]] = None

        self.control = 0
        self.status = SR_HALTED
        self.address = 0
        self.length = 0
        self.bytes_done = 0
        self.busy = False
        #: activity counters the power model integrates; maintained
        #: unconditionally (plain int adds on the burst schedule)
        self.bursts_completed = 0
        self.descriptors_completed = 0
        self.transfers_completed = 0
        self.transfers_errored = 0
        self.transfers_aborted = 0
        self.last_start_cycle = 0
        self.last_complete_cycle = 0
        self._active_gen = None  # in-flight _run generator (for reset abort)
        # observability (attach_obs): tracer spans + metric instruments;
        # every emit below is guarded so the detached cost is one check
        self.obs: Optional["Observability"] = None
        self._span = None
        self._h_burst: Optional["Histogram"] = None
        self._h_transfer: Optional["Histogram"] = None
        self._c_bytes: Optional["Counter"] = None
        self._c_stall: Optional["Counter"] = None

    def attach_obs(self, obs: "Observability") -> None:
        """Wire the channel into an :class:`~repro.obs.Observability`."""
        self.obs = obs
        metrics = obs.metrics
        self._h_burst = metrics.histogram(
            f"dma_{self.name}_burst_latency_cycles",
            "per-burst memory-port latency of the DMA engine")
        self._h_transfer = metrics.histogram(
            f"dma_{self.name}_transfer_cycles",
            "end-to-end cycles per completed DMA transfer")
        self._c_bytes = metrics.counter(
            f"dma_{self.name}_bytes_total",
            "payload bytes moved by the channel")
        self._c_stall = metrics.counter(
            f"dma_{self.name}_stall_cycles_total",
            "cycles the engine paced itself behind memory or the sink")

    # ------------------------------------------------------------------
    # register behaviour (invoked by AxiDma)
    # ------------------------------------------------------------------
    def write_cr(self, value: int) -> None:
        if value & CR_RESET:
            if self._active_gen is not None:
                # a soft reset aborts the in-flight transfer engine: the
                # generator unwinds (GeneratorExit) and never reports
                # completion, so no stale data reaches the stream side
                self._active_gen.close()
                self._active_gen = None
                self.transfers_aborted += 1
                if self.obs is not None:
                    tracer = self.obs.tracer
                    if self._span is not None:
                        tracer.end(self._span, self.sim.now,
                                   status="aborted", bytes=self.bytes_done)
                        self._span = None
                    tracer.instant(f"dma.{self.name}", "reset", self.sim.now,
                                   bytes_done=self.bytes_done)
                    tracer.signal(f"dma_{self.name}_busy", self.sim.now, 0)
            self.control = 0
            self.status = SR_HALTED
            self.busy = False
            return
        self.control = value & 0xFFFF_FFFF
        if value & CR_RS:
            self.status &= ~SR_HALTED
        else:
            self.status |= SR_HALTED

    def read_sr(self) -> int:
        return self.status

    def write_sr(self, value: int) -> None:
        # interrupt bits are write-one-to-clear
        self.status &= ~(value & (SR_IOC_IRQ | SR_ERR_IRQ))

    def write_length(self, value: int) -> None:
        """Writing a non-zero LENGTH launches the transfer (PG021)."""
        self.length = value & 0x03FF_FFFF
        if not self.length:
            return
        if not self.control & CR_RS:
            raise ControllerError(
                f"DMA {self.name}: LENGTH written while channel stopped"
            )
        if self.busy:
            raise ControllerError(
                f"DMA {self.name}: LENGTH written while transfer in flight"
            )
        self.busy = True
        self.status &= ~SR_IDLE
        self.bytes_done = 0
        self.last_start_cycle = self.sim.now
        if self.obs is not None:
            self._span = self.obs.tracer.begin(
                f"dma.{self.name}", "transfer", self.sim.now,
                address=self.address, length=self.length)
            self.obs.tracer.signal(f"dma_{self.name}_busy", self.sim.now, 1)
        self._active_gen = self._run()
        self.sim.add_process(self._active_gen, name=f"dma.{self.name}")

    # ------------------------------------------------------------------
    # the transfer engine
    # ------------------------------------------------------------------
    def _run(self) -> Generator[Delay, None, None]:
        yield Delay(self.start_latency)
        if self.is_mm2s:
            ok = yield from self._transfer_mm2s()
        else:
            ok = yield from self._transfer_s2mm()
        self.busy = False
        self._active_gen = None
        self.last_complete_cycle = self.sim.now
        if not ok:
            # PG021 error semantics: the channel halts, DMASR.Err_Irq
            # latches, and the run/stop bit drops.  The transfer is NOT
            # reported complete — no IDLE, no IOC, no completion count.
            self.status |= SR_ERR_IRQ | SR_HALTED
            self.control &= ~CR_RS
            self.transfers_errored += 1
            if self.obs is not None:
                tracer = self.obs.tracer
                if self._span is not None:
                    tracer.end(self._span, self.sim.now, status="error",
                               bytes=self.bytes_done)
                    self._span = None
                tracer.instant(f"dma.{self.name}", "error", self.sim.now,
                               bytes_done=self.bytes_done)
                tracer.signal(f"dma_{self.name}_busy", self.sim.now, 0)
            if self.control & CR_ERR_IRQ_EN and self.irq_callback is not None:
                self.irq_callback()
            return
        self.status |= SR_IDLE | SR_IOC_IRQ
        self.transfers_completed += 1
        self.descriptors_completed += 1
        if self.obs is not None:
            cycles = self.sim.now - self.last_start_cycle
            if self._span is not None:
                self.obs.tracer.end(self._span, self.sim.now, status="ok",
                                    bytes=self.bytes_done)
                self._span = None
            self.obs.tracer.signal(f"dma_{self.name}_busy", self.sim.now, 0)
            self._h_transfer.record(cycles)  # type: ignore[union-attr]
            self._c_bytes.inc(self.bytes_done)  # type: ignore[union-attr]
        if self.control & CR_IOC_IRQ_EN and self.irq_callback is not None:
            self.irq_callback()

    # ------------------------------------------------------------------
    # the burst schedule, executed eagerly inside the kernel's batch
    # window (see module docstring).  The invariant maintained
    # throughout is ``sim.now == pacing position``: every step (a burst
    # or a bulk run) either batch-advances the clock or yields a real
    # Delay, so error returns, CR_RESET aborts and side-effect callbacks
    # (ICAP completion, IRQs) all observe exactly the generator-model
    # time.
    # ------------------------------------------------------------------
    def _flush_obs(self, latencies: List[int], stall: int) -> int:
        """Fold locally accumulated samples into the instruments.

        Called before every real yield (the only points where the
        generator can be unwound by ``CR_RESET``) and at every return,
        so the instruments never trail the burst schedule at any point
        foreign code can observe them.  Returns the reset stall count.
        """
        if self._h_burst is not None and latencies:
            self._h_burst.record_many(latencies)
            latencies.clear()
        if stall and self._c_stall is not None:
            self._c_stall.inc(stall)
        return 0

    def _transfer_mm2s(self) -> Generator[Delay, None, bool]:
        if self.sink is None:
            raise ControllerError(f"DMA {self.name}: no stream sink attached")
        sim = self.sim
        batch_window = sim.batch_window
        batch_advance = sim.batch_advance
        burst = self.burst_bytes
        addr = self.address
        remaining = self.length
        read_time = sim.now
        accept_done = sim.now
        observed = self.obs is not None
        latencies: List[int] = []
        stall = 0
        # fused per-descriptor ports: one closure instead of the
        # crossbar walk / switch+converter frames per burst.  Fault
        # proxies and unusual shapes resolve to None and take the
        # plain calls, burst by burst.
        resolve_read = getattr(self.mem_port, "resolve_burst_read", None)
        fast_read = (resolve_read(addr, addr + remaining)
                     if resolve_read is not None else None)
        resolve_accept = getattr(self.sink, "resolve_accept", None)
        fast_accept = resolve_accept() if resolve_accept is not None else None
        sink_accept = fast_accept if fast_accept is not None else self.sink.accept
        # bulk runs need a run port on both sides (see module docstring)
        resolve_run = getattr(self.mem_port, "resolve_burst_run", None)
        read_run = (resolve_run(addr, addr + remaining)
                    if resolve_run is not None else None)
        resolve_accept_run = getattr(self.sink, "resolve_accept_run", None)
        accept_run = (resolve_accept_run()
                      if read_run is not None and resolve_accept_run is not None
                      else None)
        while remaining:
            offer = (accept_run(remaining // burst, burst)
                     if accept_run is not None and remaining >= 2 * burst
                     else None)
            if offer is not None and offer[0] > 1:
                limit, pace, take = offer
                window = batch_window()
                done, load, commit = read_run(addr, burst, limit, read_time,
                                              window)
                accepted = pace(done)
                # the pacing target of each burst (both chains rise
                # strictly, so targets do too); the run is cut after the
                # first one that reaches the window (split-on-interrupt)
                targets = list(map(max, done,
                                   map(operator.sub, accepted,
                                       repeat(burst, len(accepted)))))
                k = take(load(min(bisect_left(targets, window) + 1,
                                  len(targets))))
                if k:
                    commit(k)
                    if observed:
                        latencies.append(done[0] - read_time)
                        latencies.extend(map(operator.sub, done[1:k],
                                             done[:k - 1]))
                    read_time = done[k - 1]
                    accept_done = accepted[k - 1]
                    nbytes = k * burst
                    addr += nbytes
                    remaining -= nbytes
                    self.bytes_done += nbytes
                    self.bursts_completed += k
                    now = sim._now
                    last = targets[k - 1]
                    if last > now:
                        if observed:
                            stall += last - now
                        if last < window:
                            batch_advance(last)
                        else:
                            # eager up to the previous target, then a
                            # real yield for the one that left the window
                            reach = targets[k - 2] if k > 1 else now
                            if reach > now:
                                batch_advance(reach)
                            else:
                                reach = now
                            stall = self._flush_obs(latencies, stall)
                            yield Delay(last - reach)
                    continue
            nbytes = burst if burst < remaining else remaining
            if fast_read is not None:
                data, complete_at = fast_read(addr, nbytes, read_time)
            else:
                result = self.mem_port.read_burst(addr, nbytes, read_time)
                if not result.ok:
                    self._flush_obs(latencies, stall)
                    return False
                data, complete_at = result.data, result.complete_at
            issue_time = read_time
            read_time = complete_at
            accept_done = sink_accept(data, read_time)
            addr += nbytes
            remaining -= nbytes
            self.bytes_done += nbytes
            self.bursts_completed += 1
            if observed:
                latencies.append(read_time - issue_time)
            # pace the engine: at most one burst ahead of the consumer
            target = accept_done - burst
            if read_time > target:
                target = read_time
            now = sim._now
            if target > now:
                if observed:
                    stall += target - now
                if target < batch_window():
                    batch_advance(target)
                else:
                    stall = self._flush_obs(latencies, stall)
                    yield Delay(target - now)
        final = read_time if read_time > accept_done else accept_done
        self._flush_obs(latencies, stall)
        if final > sim.now:
            yield Delay(final - sim.now)
        return True

    def _transfer_s2mm(self) -> Generator[Delay, None, bool]:
        if self.source is None:
            raise ControllerError(f"DMA {self.name}: no stream source attached")
        sim = self.sim
        batch_window = sim.batch_window
        batch_advance = sim.batch_advance
        burst = self.burst_bytes
        addr = self.address
        remaining = self.length
        pull_time = sim.now
        write_time = sim.now
        observed = self.obs is not None
        latencies: List[int] = []
        stall = 0
        spins = 0
        resolve_write = getattr(self.mem_port, "resolve_burst_write", None)
        fast_write = (resolve_write(addr, addr + remaining)
                      if resolve_write is not None else None)
        resolve_produce = getattr(self.source, "resolve_produce", None)
        fast_produce = (resolve_produce()
                        if resolve_produce is not None else None)
        produce = fast_produce if fast_produce is not None else self.source.produce
        retry_spacing = getattr(self.source, "retry_spacing", None)
        while remaining:
            nbytes = burst if burst < remaining else remaining
            now = sim._now
            data, ready = produce(nbytes, pull_time if pull_time > now else now)
            if not data:
                if ready > now:
                    # source not ready: batch the retry when the window
                    # allows, with a spin bound so a perpetually stalled
                    # source still surfaces as queue traffic (and hits
                    # the kernel's runaway-event guard) instead of
                    # spinning eagerly forever
                    spins += 1
                    window = batch_window()
                    if spins < 4096 and ready < window:
                        spacing = retry_spacing() if retry_spacing is not None else 0
                        if not spacing:
                            batch_advance(ready)
                            continue
                        # a stationary source answers every ``spacing``
                        # cycles: step over the retries that stay inside
                        # the window and the spin bound in one move, then
                        # yield for the first one that leaves them
                        steps = 4095 - spins
                        room = (window - ready - 1) // spacing
                        if room < steps:
                            steps = int(room)
                        now = ready + steps * spacing
                        batch_advance(now)
                        ready = now + spacing
                    spins = 0
                    stall = self._flush_obs(latencies, stall)
                    yield Delay(ready - now)
                    continue
                break
            spins = 0
            pull_time = ready
            issue_time = pull_time if pull_time > write_time else write_time
            if fast_write is not None:
                write_complete = fast_write(addr, data, issue_time)
            else:
                result = self.mem_port.write_burst(addr, data, issue_time)
                if not result.ok:
                    self._flush_obs(latencies, stall)
                    return False
                write_complete = result.complete_at
            write_time = write_complete
            ndata = len(data)
            addr += ndata
            remaining -= ndata
            self.bytes_done += ndata
            self.bursts_completed += 1
            if observed:
                latencies.append(write_time - issue_time)
            target = write_time - burst
            if pull_time > target:
                target = pull_time
            now = sim._now
            if target > now:
                if observed:
                    stall += target - now
                if target < batch_window():
                    batch_advance(target)
                else:
                    stall = self._flush_obs(latencies, stall)
                    yield Delay(target - now)
        final = pull_time if pull_time > write_time else write_time
        self._flush_obs(latencies, stall)
        if final > sim.now:
            yield Delay(final - sim.now)
        return True


class AxiDma(RegisterBank):
    """The AXI DMA IP: AXI4-Lite control port + two channels."""

    lite_only = True  # 32-bit AXI4-Lite port: DRC requires a protocol converter

    def __init__(
        self,
        sim: Simulator,
        mem_port: AxiSlave,
        *,
        mem_port_s2mm: AxiSlave | None = None,
        burst_beats: int = 16,
        start_latency: int = 24,
    ) -> None:
        super().__init__("axi_dma", size=0x1000)
        self.sim = sim
        self.mm2s = DmaChannel("mm2s", sim, mem_port, is_mm2s=True,
                               burst_beats=burst_beats,
                               start_latency=start_latency)
        self.s2mm = DmaChannel("s2mm", sim, mem_port_s2mm or mem_port,
                               is_mm2s=False, burst_beats=burst_beats,
                               start_latency=start_latency)

        cr_mask = CR_RS | CR_RESET | CR_IOC_IRQ_EN | CR_ERR_IRQ_EN
        sr_w1c = SR_IOC_IRQ | SR_ERR_IRQ  # interrupt bits, write-1-to-clear
        self.define_register(MM2S_DMACR, on_write=self.mm2s.write_cr,
                             write_mask=cr_mask)
        self.define_register(MM2S_DMASR, on_read=lambda _o: self.mm2s.read_sr(),
                             on_write=self.mm2s.write_sr, write_mask=sr_w1c)
        self.define_register(MM2S_SA, on_write=self._set_mm2s_sa_lo)
        self.define_register(MM2S_SA_MSB, on_write=self._set_mm2s_sa_hi)
        self.define_register(MM2S_LENGTH, on_write=self.mm2s.write_length,
                             write_mask=0x03FF_FFFF)
        self.define_register(S2MM_DMACR, on_write=self.s2mm.write_cr,
                             write_mask=cr_mask)
        self.define_register(S2MM_DMASR, on_read=lambda _o: self.s2mm.read_sr(),
                             on_write=self.s2mm.write_sr, write_mask=sr_w1c)
        self.define_register(S2MM_DA, on_write=self._set_s2mm_da_lo)
        self.define_register(S2MM_DA_MSB, on_write=self._set_s2mm_da_hi)
        self.define_register(S2MM_LENGTH, on_write=self.s2mm.write_length,
                             write_mask=0x03FF_FFFF)

    def attach_obs(self, obs: "Observability") -> None:
        """Attach observability to both channels."""
        self.mm2s.attach_obs(obs)
        self.s2mm.attach_obs(obs)

    def _set_mm2s_sa_lo(self, value: int) -> None:
        self.mm2s.address = (self.mm2s.address & ~0xFFFF_FFFF) | value

    def _set_mm2s_sa_hi(self, value: int) -> None:
        self.mm2s.address = (self.mm2s.address & 0xFFFF_FFFF) | (value << 32)

    def _set_s2mm_da_lo(self, value: int) -> None:
        self.s2mm.address = (self.s2mm.address & ~0xFFFF_FFFF) | value

    def _set_s2mm_da_hi(self, value: int) -> None:
        self.s2mm.address = (self.s2mm.address & 0xFFFF_FFFF) | (value << 32)
