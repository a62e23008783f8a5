"""The per-burst reference DMA engine, kept as a test oracle.

:class:`ReferenceDmaChannel` runs each transfer as the model was first
written: one simulation event per pacing step and the plain
``read_burst`` / ``accept`` / ``produce`` calls per burst, with no
batch window, fused ports, bulk runs or closed-form retry chains.  The
production :class:`~repro.core.dma.DmaChannel` must be observationally
identical to it; the equivalence properties swap it into a built SoC
with :func:`use_reference_dma` and compare everything either side can
observe.
"""

from __future__ import annotations

from typing import Generator

from repro.core.dma import AxiDma, DmaChannel
from repro.errors import ControllerError
from repro.sim.kernel import Delay


class ReferenceDmaChannel(DmaChannel):
    """A :class:`DmaChannel` stepping one event per burst."""

    def _transfer_mm2s(self) -> Generator[Delay, None, bool]:
        if self.sink is None:
            raise ControllerError(f"DMA {self.name}: no stream sink attached")
        addr = self.address
        remaining = self.length
        read_time = self.sim.now
        accept_done = self.sim.now
        while remaining:
            nbytes = min(self.burst_bytes, remaining)
            issue_time = read_time
            result = self.mem_port.read_burst(addr, nbytes, read_time)
            if not result.ok:
                return False
            read_time = result.complete_at
            accept_done = self.sink.accept(result.data, result.complete_at)
            addr += nbytes
            remaining -= nbytes
            self.bytes_done += nbytes
            self.bursts_completed += 1
            if self.obs is not None:
                self._h_burst.record(read_time - issue_time)
            # pace the engine: at most one burst ahead of the consumer
            # (models the IP's small store-and-forward FIFO)
            wait = max(read_time, accept_done - self.burst_bytes) - self.sim.now
            if wait > 0:
                if self.obs is not None:
                    self._c_stall.inc(wait)
                yield Delay(wait)
        final = max(read_time, accept_done)
        if final > self.sim.now:
            yield Delay(final - self.sim.now)
        return True

    def _transfer_s2mm(self) -> Generator[Delay, None, bool]:
        if self.source is None:
            raise ControllerError(f"DMA {self.name}: no stream source attached")
        addr = self.address
        remaining = self.length
        pull_time = self.sim.now
        write_time = self.sim.now
        while remaining:
            nbytes = min(self.burst_bytes, remaining)
            data, ready = self.source.produce(nbytes, max(pull_time, self.sim.now))
            if not data:
                if ready > self.sim.now:
                    # source not ready yet (e.g. the filter pipeline is
                    # still filling): retry when it says data will exist
                    yield Delay(ready - self.sim.now)
                    continue
                # TLAST before LENGTH bytes: a short packet ends the
                # transfer (the real IP latches the received length)
                break
            pull_time = ready
            issue_time = max(pull_time, write_time)
            result = self.mem_port.write_burst(addr, data, issue_time)
            if not result.ok:
                return False
            write_time = result.complete_at
            addr += len(data)
            remaining -= len(data)
            self.bytes_done += len(data)
            self.bursts_completed += 1
            if self.obs is not None:
                self._h_burst.record(write_time - issue_time)
            wait = max(pull_time, write_time - self.burst_bytes) - self.sim.now
            if wait > 0:
                if self.obs is not None:
                    self._c_stall.inc(wait)
                yield Delay(wait)
        final = max(pull_time, write_time)
        if final > self.sim.now:
            yield Delay(final - self.sim.now)
        return True


def use_reference_dma(dma: AxiDma) -> AxiDma:
    """Switch both channels of ``dma`` to the reference engine in place.

    Only the transfer methods differ, so swapping the class keeps every
    register, counter and observability binding of the built channel.
    """
    dma.mm2s.__class__ = ReferenceDmaChannel
    dma.s2mm.__class__ = ReferenceDmaChannel
    return dma
