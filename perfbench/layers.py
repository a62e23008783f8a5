"""Layer tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro.*`` layer from
outside the program: it replaces a class attribute or module function
with a wrapper that records one span per call (layer, entry point,
start, end, parent span, op id) and accumulates the layer's self time,
the span's duration minus the part its child spans cover.

Several layers hand out fused closures instead of being called through
their methods (``resolve_accept``, ``resolve_burst_read``, the crossbar
``resolve_*_port`` family).  For those the tracer wraps the resolver,
so every closure it returns is itself a traced entry point.

Patches must be installed before the platform is built, because the
simulator binds methods and fused closures at construction time, and
removed afterwards with :meth:`LayerTracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path, kind, amount extractor)
#: kind "call" wraps the callable; kind "resolver" wraps what it returns.
#: The amount extractor maps (args, result) to a work size summed per entry.
ENTRY_POINTS: List[Tuple[str, str, str, str, Optional[Callable[..., int]]]] = [
    ("sched", "repro.sched.replay", "replay", "call", None),
    ("sched", "repro.sched.scheduler", "DprScheduler.submit", "call", None),
    ("cache", "repro.sched.cache", "BitstreamCache.get", "call", None),
    ("cache", "repro.sched.workload", "make_cache", "call", None),
    ("fat32", "repro.fat32.filesystem", "Fat32FileSystem.read_file", "call",
     lambda args, result: len(result)),
    ("verify", "repro.verify", "verify_bitstream", "call", None),
    ("power", "repro.power.governor", "PowerGovernor.admission_delay", "call",
     None),
    ("power", "repro.power.governor", "PowerGovernor.commit", "call", None),
    ("power", "repro.power.profile", "PowerProfile.reconfig_energy_nj", "call",
     None),
    ("power", "repro.power.profile", "PowerProfile.payload_energy_nj", "call",
     None),
    ("drivers", "repro.drivers.manager",
     "ReconfigurationManager.load_module", "call", None),
    ("drivers", "repro.drivers.manager",
     "ReconfigurationManager.process_image", "call", None),
    ("drivers", "repro.drivers.rvcap_driver",
     "RvCapDriver.init_reconfig_process", "call", None),
    ("sim", "repro.sim.kernel", "Simulator.advance_to", "call", None),
    ("icap", "repro.fpga.icap", "Icap.accept", "call",
     lambda args, result: len(args[1]) // 4),
    ("axi", "repro.axi.stream_switch", "AxiStreamSwitch.accept", "call", None),
    ("axi", "repro.axi.stream_switch", "AxiStreamSwitch.produce", "call",
     None),
    ("axi", "repro.axi.stream_switch", "AxiStreamSwitch.resolve_accept",
     "resolver", None),
    ("axi", "repro.axi.stream_switch", "AxiStreamSwitch.resolve_produce",
     "resolver", None),
    ("axi", "repro.core.axis2icap", "Axis2Icap.accept", "call", None),
    ("axi", "repro.core.axis2icap", "Axis2Icap.resolve_accept", "resolver",
     None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.read", "call", None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.write", "call", None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.read_burst", "call", None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.write_burst", "call", None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.resolve_read_port", "resolver",
     None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.resolve_write_port",
     "resolver", None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.resolve_burst_read",
     "resolver", None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.resolve_burst_write",
     "resolver", None),
    ("axi", "repro.axi.crossbar", "AxiCrossbar.resolve_fill_port", "resolver",
     None),
    ("ddr", "repro.mem.ddr", "DdrPort.read", "call", None),
    ("ddr", "repro.mem.ddr", "DdrPort.write", "call", None),
    ("ddr", "repro.mem.ddr", "DdrPort.read_burst", "call", None),
    ("ddr", "repro.mem.ddr", "DdrPort.write_burst", "call", None),
    ("ddr", "repro.mem.ddr", "DdrPort.resolve_burst_read", "resolver", None),
    ("ddr", "repro.mem.ddr", "DdrPort.resolve_burst_write", "resolver", None),
    ("accel", "repro.accel.base", "StreamAccelerator.accept", "call",
     lambda args, result: len(args[1])),
    ("accel", "repro.accel.base", "StreamAccelerator.produce", "call", None),
    ("riscv", "repro.firmware.runner", "run_firmware", "call", None),
    ("riscv", "repro.riscv.hart", "Hart.run", "call", None),
    ("soc", "repro.soc.builder", "build_soc", "call", None),
    ("bitgen", "repro.fpga.bitgen", "Bitgen.generate", "call", None),
    ("sdcard", "repro.drivers.manager",
     "ReconfigurationManager.provision_sdcard", "call", None),
]

#: per-burst / per-step layers whose spans are stored as rollups
ROLLED_UP = frozenset({"sim", "icap", "axi", "ddr", "accel"})

#: layers in report order (the ``repro.*`` package each one names)
LAYERS = ("sched", "cache", "fat32", "verify", "power", "drivers", "sim",
          "icap", "axi", "ddr", "accel", "riscv", "soc", "bitgen", "sdcard")


class LayerTracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        #: (span id, entry point, start ns, end ns, parent id, op id)
        self.spans: List[Tuple[int, str, int, int, int, Any]] = []
        #: (parent span id, entry point) -> [calls, total ns]
        self.rollups: Dict[Tuple[int, str], List[int]] = {}
        #: phase ("setup", "run" or "check") -> layer -> self ns
        self.self_ns: Dict[str, Dict[str, int]] = {
            phase: {} for phase in ("setup", "run", "check")}
        #: phase -> entry point -> [calls, inclusive ns, amount]
        self.entries: Dict[str, Dict[str, List[int]]] = {
            phase: {} for phase in ("setup", "run", "check")}
        self.phase = "setup"
        #: id of the operation the running code serves (request/iteration)
        self.op: Any = None
        self._stack: List[List[int]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def traced(self, fn: Callable[..., Any], layer: str, entry: str,
               amount: Optional[Callable[..., int]] = None
               ) -> Callable[..., Any]:
        """``fn`` wrapped so that every call is timed as one span.

        Calls of :data:`ROLLED_UP` layers happen per burst or per
        simulator step; they are timed exactly like the others but
        stored as one rollup record (calls, total ns) per entry point
        under their nearest stored ancestor, which keeps the span dump
        at request granularity.
        """
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        keep = layer not in ROLLED_UP

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # frame: [ns covered by children, id of nearest stored span]
            anchor = stack[-1][1] if stack else -1
            span_id = -1
            if keep:
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
            frame = [0, span_id if keep else anchor]
            stack.append(frame)
            op = tracer.op
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                phase = tracer.phase
                per_layer = tracer.self_ns[phase]
                per_layer[layer] = (per_layer.get(layer, 0)
                                    + duration - frame[0])
                stats = tracer.entries[phase].get(entry)
                if stats is None:
                    stats = tracer.entries[phase][entry] = [0, 0, 0]
                stats[0] += 1
                stats[1] += duration
                if amount is not None and result is not None:
                    stats[2] += amount(args, result)
                if keep:
                    tracer.spans.append((span_id, entry, start, end, anchor,
                                         op))
                else:
                    rollup = tracer.rollups.get((anchor, entry))
                    if rollup is None:
                        rollup = tracer.rollups[(anchor, entry)] = [0, 0]
                    rollup[0] += 1
                    rollup[1] += duration

        return functools.wraps(fn)(wrapper)

    def resolver(self, resolve: Callable[..., Any], layer: str,
                 entry: str) -> Callable[..., Any]:
        """``resolve`` wrapped so the closures it returns are traced."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            closure = resolve(*args, **kwargs)
            if closure is None:
                return None
            return tracer.traced(closure, layer, entry)

        return functools.wraps(resolve)(wrapper)

    def stamp_ops(self, owner: Any, attr: str,
                  op_of: Callable[..., Any]) -> None:
        """While ``owner.attr`` runs, spans carry the op id ``op_of``
        derives from its arguments."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            previous = tracer.op
            tracer.op = op_of(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.op = previous

        self._patch(owner, attr, functools.wraps(original)(wrapper))

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`."""
        for layer, module_name, path, kind, amount in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name \
                else getattr(module, attr)
            entry = f"{layer}.{path}"
            if kind == "resolver":
                replacement = self.resolver(original, layer, entry)
            else:
                replacement = self.traced(original, layer, entry, amount)
            if owner_name:
                self._patch(owner, attr, replacement)
            else:
                # module functions are also bound by name in the modules
                # that imported them; rebind every alias in the package
                for loaded in list(sys.modules.values()):
                    if (getattr(loaded, "__name__", "").startswith("repro")
                            and getattr(loaded, attr, None) is original):
                        self._patch(loaded, attr, replacement)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def self_s(self, layer: str, phase: str = "run") -> float:
        return self.self_ns[phase].get(layer, 0) / 1e9

    def entry(self, entry: str, phase: str = "run") -> Tuple[int, float, int]:
        """(calls, inclusive seconds, amount) of one entry point."""
        calls, ns, amount = self.entries[phase].get(entry, (0, 0, 0))
        return calls, ns / 1e9, amount

    def attribution(self, run_s: float) -> Dict[str, Dict[str, float]]:
        """Each layer's share of the traced timed phase.

        Time inside the timed phase that no span covers (the
        benchmark's own loop, builtins between entry points) is the
        ``unattributed`` remainder, so the shares sum to one.
        """
        table: Dict[str, Dict[str, float]] = {}
        attributed = 0.0
        for layer in LAYERS:
            seconds = self.self_s(layer)
            attributed += seconds
            table[layer] = {"self_s": seconds,
                            "share": seconds / run_s if run_s else 0.0}
        rest = run_s - attributed
        table["unattributed"] = {"self_s": rest,
                                 "share": rest / run_s if run_s else 0.0}
        return table

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write spans, rollups and ``extra`` (report data) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({"span_fields": ["id", "entry", "start_ns", "end_ns",
                                       "parent", "op"],
                       "spans": self.spans,
                       "rollup_fields": ["parent", "entry", "calls",
                                         "total_ns"],
                       "rollups": [[parent, entry, calls, ns] for
                                   (parent, entry), (calls, ns)
                                   in self.rollups.items()],
                       **extra}, handle, separators=(",", ":"), default=str)
