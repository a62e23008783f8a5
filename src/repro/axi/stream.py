"""AXI-Stream channel models.

A stream *sink* accepts payload bytes with backpressure expressed in
time: :meth:`StreamSink.accept` returns the absolute cycle at which the
last byte was consumed.  A stream *source* produces bytes on demand.
The DMA moves data between memory-mapped space and these interfaces at
burst granularity, so a full 650 KB bitstream transfer costs thousands
— not hundreds of thousands — of simulation events.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.errors import BusError

#: accept-run plan, handed out by ``resolve_accept_run()``:
#: ``plan(count, burst) -> (limit, pace, take)`` or ``None``.  ``limit``
#: is how many of ``count`` offered ``burst``-byte bursts the sink can
#: absorb with no effect beyond timing and counters; ``pace(arrivals)``
#: returns the accept-done cycle of each burst offered at those cycles
#: (back-to-back, nothing else in between); ``take(data)`` consumes the
#: longest such prefix of whole bursts of ``data``, applies exactly what
#: per-burst :meth:`StreamSink.accept` calls would have, and returns the
#: number of bursts taken (possibly fewer than offered: a sink may only
#: know from the bytes where the invisible part ends).
AcceptRunOffer = Tuple[int, Callable[[List[int]], List[int]],
                       Callable[[bytes], int]]
AcceptRunPlan = Callable[[int, int], Optional[AcceptRunOffer]]


def counted_run(inner: AcceptRunPlan,
                tally: Callable[[int], None]) -> AcceptRunPlan:
    """``inner`` with ``tally(nbytes)`` told the bytes each take consumes.

    How a pass-through stage (switch port, width converter) keeps its
    byte counters on the run path.
    """
    def plan(count: int, burst: int) -> Optional[AcceptRunOffer]:
        offer = inner(count, burst)
        if offer is None:
            return None
        limit, pace, take = offer

        def counted(data: bytes) -> int:
            k = take(data)
            tally(k * burst)
            return k

        return limit, pace, counted

    return plan


class StreamSink(abc.ABC):
    """Consumer side of an AXI-Stream link."""

    @abc.abstractmethod
    def accept(self, data: bytes, now: int) -> int:
        """Consume ``data`` starting at cycle ``now``.

        Returns the absolute cycle at which the final byte has been
        accepted (i.e. when TREADY would have been seen for the last
        beat).  Implementations keep their own ``busy_until`` so that
        back-to-back calls pipeline correctly.
        """


class StreamSource(abc.ABC):
    """Producer side of an AXI-Stream link."""

    @abc.abstractmethod
    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        """Produce up to ``nbytes`` starting at cycle ``now``.

        Returns ``(data, complete_at)``.  ``data`` may be shorter than
        requested when the source ends its packet (TLAST).

        A source whose not-ready answers follow a fixed cadence may also
        define ``retry_spacing() -> int``: the cycle distance between
        consecutive empty answers to back-to-back pulls while nothing
        else runs, or 0 when the next answer may differ.  The DMA uses
        it to skip a stationary retry chain in closed form.
        """


class NullSink(StreamSink):
    """Accepts and discards everything at full rate (open switch port)."""

    def __init__(self, bytes_per_cycle: int = 8) -> None:
        self.bytes_per_cycle = bytes_per_cycle
        self.consumed = 0

    def accept(self, data: bytes, now: int) -> int:
        self.consumed += len(data)
        cycles = -(-len(data) // self.bytes_per_cycle)
        return now + cycles


class StreamFifo(StreamSink, StreamSource):
    """A bounded FIFO usable as both sink and source.

    ``depth`` is in bytes; overruns raise :class:`BusError` because a
    hardware FIFO would drop data — models are expected to respect the
    returned completion times instead of overfilling.
    """

    def __init__(self, name: str, depth: int, bytes_per_cycle: int = 8) -> None:
        if depth <= 0:
            raise ValueError("FIFO depth must be positive")
        self.name = name
        self.depth = depth
        self.bytes_per_cycle = bytes_per_cycle
        self._buffer: deque[int] = deque()
        self._busy_until = 0

    @property
    def level(self) -> int:
        """Bytes currently stored."""
        return len(self._buffer)

    @property
    def space(self) -> int:
        """Bytes of free space."""
        return self.depth - len(self._buffer)

    def accept(self, data: bytes, now: int) -> int:
        if len(data) > self.space:
            raise BusError(
                f"FIFO {self.name!r} overrun: {len(data)} B offered, "
                f"{self.space} B free"
            )
        self._buffer.extend(data)
        cycles = -(-len(data) // self.bytes_per_cycle)
        self._busy_until = max(self._busy_until, now) + cycles
        return self._busy_until

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        take = min(nbytes, len(self._buffer))
        data = bytes(self._buffer.popleft() for _ in range(take))
        cycles = -(-take // self.bytes_per_cycle) if take else 0
        self._busy_until = max(self._busy_until, now) + cycles
        return data, self._busy_until

    def clear(self) -> None:
        self._buffer.clear()


class BufferSource(StreamSource):
    """A source that streams out a fixed byte buffer (test/model helper)."""

    def __init__(self, data: bytes, bytes_per_cycle: int = 8) -> None:
        self._data = memoryview(bytes(data))
        self._pos = 0
        self.bytes_per_cycle = bytes_per_cycle
        self._busy_until = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        take = min(nbytes, self.remaining)
        data = bytes(self._data[self._pos : self._pos + take])
        self._pos += take
        cycles = -(-take // self.bytes_per_cycle) if take else 0
        self._busy_until = max(self._busy_until, now) + cycles
        return data, self._busy_until


class CaptureSink(StreamSink):
    """A sink that records everything it consumes (test/model helper)."""

    def __init__(self, bytes_per_cycle: int = 8) -> None:
        self.bytes_per_cycle = bytes_per_cycle
        self.data = bytearray()
        self._busy_until = 0

    def accept(self, data: bytes, now: int) -> int:
        self.data.extend(data)
        cycles = -(-len(data) // self.bytes_per_cycle)
        self._busy_until = max(self._busy_until, now) + cycles
        return self._busy_until
