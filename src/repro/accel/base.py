"""Streaming accelerator base: an RM with AXI-Stream in/out.

Dataflow model (matches the HLS cores of Sec. IV-D): the filter
consumes the input image as a 64-bit AXI-Stream (8 pixels/beat),
buffers rows in line buffers, and emits each output row a fixed
pipeline delay after the corresponding input row was consumed.  The
initiation interval (II, in cycles per input beat) and pipeline startup
latency are per-filter parameters calibrated to the paper's measured
compute times (Table IV); the *functional* output is computed row-wise
with the golden numpy filters and is bit-exact against them.

Timing bookkeeping uses a fixed-point II (``ii_num / ii_den``) so the
cycle accounting stays integral and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.axi.stream import StreamSink, StreamSource
from repro.errors import ControllerError

BYTES_PER_BEAT = 8

#: frames at or below this size memoize golden-filter slabs (bytes)
_GOLDEN_MEMO_MAX_IMAGE = 64 * 1024
#: memo entries kept before the table is recycled
_GOLDEN_MEMO_MAX_ENTRIES = 256
#: process-wide memo — accelerator instances are rebuilt on every
#: reconfiguration (the SoC re-derives the RM from configuration
#: memory), so the cache must outlive any single instance.  Keyed by
#: the golden callable itself plus the exact input slab, hence safe
#: for any pure filter.
_GOLDEN_MEMO: dict = {}


@dataclass(frozen=True)
class AcceleratorTiming:
    """Calibrated timing of one HLS filter core."""

    ii_num: int      # cycles per input beat, numerator
    ii_den: int      # ... denominator
    startup_cycles: int  # line-buffer fill + pipeline depth

    def cycles_for_beats(self, beats: int) -> int:
        return (beats * self.ii_num + self.ii_den - 1) // self.ii_den


class StreamAccelerator(StreamSink, StreamSource):
    """A 3x3-window streaming image filter RM."""

    def __init__(
        self,
        name: str,
        golden: Callable[[np.ndarray], np.ndarray],
        timing: AcceleratorTiming,
        *,
        width: int = 512,
        height: int = 512,
    ) -> None:
        if width % BYTES_PER_BEAT:
            raise ControllerError("image width must be a multiple of 8 pixels")
        self.name = name
        self.golden = golden
        self.timing = timing
        self.width = width
        self.height = height
        self._in_bytes = bytearray()
        self._beats_consumed = 0
        self._in_busy = 0
        self._started_at: int | None = None
        #: (available_cycle, row_bytes) queue of computed output rows
        self._out_rows: List[Tuple[int, bytes]] = []
        self._rows_computed = 0
        self._out_cursor = 0
        self.images_processed = 0
        # golden filters are pure functions of the pixel data, so for
        # small frames (the serving workload replays identical frames)
        # the per-slab filter results are memoized on the exact input
        # slab; content-keyed, hence observably identical to
        # recomputing.  Large frames skip the memo (keying cost and
        # retained output would not pay for themselves).
        self._memo_enabled = self.image_bytes <= _GOLDEN_MEMO_MAX_IMAGE

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    @property
    def image_bytes(self) -> int:
        return self.width * self.height

    @property
    def busy(self) -> bool:
        return bool(self._in_bytes) and self._rows_computed < self.height

    @property
    def busy_cycles(self) -> int:
        """Pipeline-busy cycles of the in-flight/last image.

        Derived on demand from the II-paced beat count plus the
        pipeline fill, so the streaming path pays nothing; the power
        model charges this window at ``accel_active_mw``.
        """
        if self._beats_consumed == 0:
            return 0
        return (self.timing.startup_cycles
                + self.timing.cycles_for_beats(self._beats_consumed))

    def reset(self) -> None:
        """Prepare for a new image (RM control start pulse)."""
        self._in_bytes.clear()
        self._beats_consumed = 0
        self._in_busy = 0
        self._started_at = None
        self._out_rows.clear()
        self._rows_computed = 0
        self._out_cursor = 0

    # ------------------------------------------------------------------
    # input stream (from DMA MM2S through the switch)
    # ------------------------------------------------------------------
    def accept(self, data: bytes, now: int) -> int:
        if self._started_at is None:
            self._started_at = now
        if len(self._in_bytes) + len(data) > self.image_bytes:
            raise ControllerError(
                f"RM {self.name!r}: input overruns the {self.width}x"
                f"{self.height} frame"
            )
        self._in_bytes.extend(data)
        self._beats_consumed += -(-len(data) // BYTES_PER_BEAT)
        consumed_cycles = self.timing.cycles_for_beats(self._beats_consumed)
        paced = self._started_at + consumed_cycles
        self._in_busy = paced if paced > now else now
        self._compute_ready_rows()
        return self._in_busy

    def _rows_received(self) -> int:
        return len(self._in_bytes) // self.width

    def _computable_rows(self) -> int:
        """Output rows computable from the input received so far.

        A 3x3 window needs one row of lookahead; the final row becomes
        computable only when the full frame has arrived.
        """
        received = self._rows_received()
        if received >= self.height:
            return self.height
        return max(0, received - 1)

    def _compute_ready_rows(self) -> None:
        target = self._computable_rows()
        if target <= self._rows_computed:
            return
        rows = self._rows_received()
        # compute on a replicated-edge slab so rows match the full-frame
        # golden output exactly
        r0 = self._rows_computed
        r1 = target
        lo = max(0, r0 - 1)
        hi = min(rows, r1 + 1)
        slab = bytes(self._in_bytes[lo * self.width : hi * self.width])
        row_payloads: List[bytes] | None = None
        if self._memo_enabled:
            memo_key = (self.golden, self.width, r0 - lo, r1 - lo, slab)
            row_payloads = _GOLDEN_MEMO.get(memo_key)
        if row_payloads is None:
            image_slab = np.frombuffer(slab, dtype=np.uint8).reshape(
                hi - lo, self.width)
            # The golden filter edge-replicates the slab borders;
            # extracted rows always have their true context rows inside
            # the slab, so the synthetic replication never leaks into
            # the output.
            filtered = self.golden(image_slab)
            out_rows = filtered[r0 - lo : r1 - lo]
            assert out_rows.shape[0] == r1 - r0
            row_payloads = [row.tobytes() for row in out_rows]
            if self._memo_enabled:
                if len(_GOLDEN_MEMO) >= _GOLDEN_MEMO_MAX_ENTRIES:
                    _GOLDEN_MEMO.clear()
                _GOLDEN_MEMO[memo_key] = row_payloads
        out_beats_per_row = self.width // BYTES_PER_BEAT
        for k, row in enumerate(row_payloads):
            row_index = r0 + k
            # the row leaves the pipeline startup_cycles after the
            # II-paced consumption of its last needed input beat
            needed_beats = min((row_index + 2), self.height) * out_beats_per_row
            base = self._started_at if self._started_at is not None else 0
            avail = (base + self.timing.startup_cycles
                     + self.timing.cycles_for_beats(needed_beats))
            self._out_rows.append((avail, row))
        self._rows_computed = r1
        if self._rows_computed == self.height:
            self.images_processed += 1

    # ------------------------------------------------------------------
    # output stream (to DMA S2MM through the switch)
    # ------------------------------------------------------------------
    def retry_spacing(self) -> int:
        """Cycles between consecutive not-ready pulls (see StreamSource).

        A not-ready pull at ``t`` answers ``max(t + 1, in_busy)`` and
        only new input changes that, so back-to-back retries land one
        cycle apart once past ``in_busy``; 0 while data or the end of
        frame is pending.
        """
        if (self._out_cursor >= len(self._out_rows)
                and self._rows_computed < self.height):
            return 1
        return 0

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        if self._out_cursor >= len(self._out_rows):
            if self._rows_computed >= self.height:
                return b"", now  # end of frame
            # not ready: ask the DMA to retry once more input landed
            retry = now + 1
            if self._in_busy > retry:
                retry = self._in_busy
            return b"", retry
        chunks: list[bytes] = []
        t = now
        taken = 0
        while taken < nbytes and self._out_cursor < len(self._out_rows):
            avail, row = self._out_rows[self._out_cursor]
            take = min(nbytes - taken, len(row))
            if take < len(row):
                # split the row; keep the remainder at the cursor
                self._out_rows[self._out_cursor] = (avail, row[take:])
            else:
                self._out_cursor += 1
            chunks.append(row[:take])
            taken += take
            if avail > t:
                t = avail
        return b"".join(chunks), t
