"""Exporters: Chrome-trace/Perfetto JSON, Prometheus text, JSON metrics,
and the console timeline/stats views ``repro reconfig`` prints.

Every exporter is a pure function of recorded state — no wall-clock, no
environment — so identical simulation runs export byte-identical
artifacts (asserted by the determinism tests and the CI schema check).

Chrome-trace timestamps are microseconds (the format's unit); cycles
convert at the SoC clock, so a 100 MHz run shows 0.01 us per cycle and
the Perfetto UI displays real simulated time.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import SpanTracer


# ---------------------------------------------------------------------------
# Chrome trace / Perfetto
# ---------------------------------------------------------------------------

def _cycles_to_us(cycle: int, freq_hz: float) -> float:
    return round(cycle * 1e6 / freq_hz, 4)


def chrome_trace_json(tracer: SpanTracer, freq_hz: float = 100e6) -> str:
    """Serialize the trace in Chrome trace-event JSON (Perfetto loads it).

    Tracks map to threads of one process; spans become complete ("X")
    events, instants become "i" events and counter samples become "C"
    events.  Output is deterministic: events sort by (timestamp,
    creation order) and keys are sorted.
    """
    tracks = tracer.tracks
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    events: List[dict] = []
    for track, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
            "ts": 0, "args": {"name": track},
        })
    timed: List[tuple] = []
    for order, span in enumerate(tracer.spans):
        if span.end_cycle is None:
            continue  # still open: not exportable as a complete event
        timed.append((span.start_cycle, 0, order, {
            "ph": "X",
            "name": span.name,
            "cat": span.track,
            "pid": 1,
            "tid": tids[span.track],
            "ts": _cycles_to_us(span.start_cycle, freq_hz),
            "dur": _cycles_to_us(span.duration, freq_hz),
            "args": dict(span.args, start_cycle=span.start_cycle,
                         dur_cycles=span.duration),
        }))
    for order, instant in enumerate(tracer.instants):
        timed.append((instant.cycle, 1, order, {
            "ph": "i",
            "s": "t",
            "name": instant.name,
            "cat": instant.track,
            "pid": 1,
            "tid": tids[instant.track],
            "ts": _cycles_to_us(instant.cycle, freq_hz),
            "args": dict(instant.args, cycle=instant.cycle),
        }))
    counter_tracks: List[str] = []
    for order, (cycle, name, value) in enumerate(tracer.counter_samples):
        if name not in counter_tracks:
            counter_tracks.append(name)
        timed.append((cycle, 2, order, {
            "ph": "C",
            "name": name,
            "pid": 1,
            "tid": 0,
            "ts": _cycles_to_us(cycle, freq_hz),
            "args": {"value": value},
        }))
    events.extend(event for _c, _k, _o, event in sorted(
        timed, key=lambda item: item[:3]))
    document = {
        "displayTimeUnit": "ms",
        "otherData": {
            "clock_freq_hz": freq_hz,
            "counter_tracks": sorted(counter_tracks),
            "source": "repro.obs",
        },
        "traceEvents": events,
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def validate_chrome_trace(text: str) -> List[str]:
    """Minimal schema check for an exported trace; returns problems.

    Used by the CI artifact job and the exporter tests: verifies the
    document parses, has the top-level shape, and that every event
    carries the required keys with sane types.  An empty list means the
    trace is structurally valid.
    """
    problems: List[str] = []
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    if not isinstance(document, dict):
        return ["top level must be an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "C", "M", "B", "E"):
            problems.append(f"event {index}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {index}: missing name")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {index}: missing ts")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"event {index}: bad dur {duration!r}")
        if phase == "C":
            args = event.get("args")
            value = args.get("value") if isinstance(args, dict) else None
            if not isinstance(value, (int, float)):
                problems.append(
                    f"event {index}: counter sample without numeric "
                    f"args.value")
        if phase in ("X", "i", "C") and not isinstance(
                event.get("tid"), int):
            problems.append(f"event {index}: missing tid")
    return problems


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _merge_labels(suffix_labels: Dict[str, str], base: str) -> str:
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(suffix_labels.items()))
    return "{" + inner + "}" if inner else base


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    seen_headers: set[str] = set()

    def header(name: str, kind: str, help_text: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for instrument in registry.instruments():
        suffix = instrument.label_suffix
        if isinstance(instrument, Counter):
            header(instrument.name, "counter", instrument.help)
            lines.append(f"{instrument.name}{suffix} {instrument.value}")
        elif isinstance(instrument, Gauge):
            header(instrument.name, "gauge", instrument.help)
            lines.append(f"{instrument.name}{suffix} {instrument.value}")
        else:
            assert isinstance(instrument, Histogram)
            header(instrument.name, "histogram", instrument.help)
            base_labels = dict(instrument.labels)
            for bound, cumulative in instrument.cumulative_buckets():
                labels = _merge_labels(
                    dict(base_labels, le=str(bound)), "")
                lines.append(
                    f"{instrument.name}_bucket{labels} {cumulative}")
            labels = _merge_labels(dict(base_labels, le="+Inf"), "")
            lines.append(f"{instrument.name}_bucket{labels} "
                         f"{instrument.count}")
            lines.append(f"{instrument.name}_sum{suffix} {instrument.total}")
            lines.append(f"{instrument.name}_count{suffix} "
                         f"{instrument.count}")
    return "\n".join(lines) + "\n"


def metrics_json(registry: MetricsRegistry) -> str:
    """JSON dump of the registry snapshot (stable key order)."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# console views
# ---------------------------------------------------------------------------

def _format_args(args: Dict[str, object]) -> str:
    return " ".join(f"{key}={value}" for key, value in args.items())


def render_timeline(tracer: SpanTracer, freq_hz: float = 100e6) -> str:
    """Human-readable timeline: every span and instant in cycle order.

    One line per record: start time, track, name (indented under its
    parent span), duration and attributes.  A span that never closed
    shows as ``open``.
    """
    depth: Dict[int, int] = {}
    rows: List[tuple] = []
    for order, span in enumerate(tracer.spans):
        level = 0 if span.parent_id is None else depth[span.parent_id] + 1
        depth[span.span_id] = level
        if span.end_cycle is None:
            extent = "open"
        else:
            extent = f"{span.duration * 1e6 / freq_hz:.2f} us"
        text = f"{'  ' * level}{span.name} ({extent})"
        rows.append((span.start_cycle, 0, order, span.track, text, span.args))
    for order, instant in enumerate(tracer.instants):
        rows.append((instant.cycle, 1, order, instant.track,
                     f"{instant.name} (instant)", instant.args))
    rows.sort(key=lambda row: row[:3])
    lines = []
    for cycle, _kind, _order, track, text, args in rows:
        line = f"[{cycle * 1e6 / freq_hz:12.2f} us] {track:<12} {text}"
        lines.append(f"{line}  {_format_args(args)}" if args else line)
    return "\n".join(lines)


def render_stats(registry: MetricsRegistry) -> str:
    """Aligned table of every instrument, valued as the exports are.

    Counters and gauges print the value :func:`prometheus_text` writes;
    histograms summarize to count / p50 / p99 / max.  An empty registry
    renders as the empty string.
    """
    rows = []
    for instrument in registry.instruments():
        if isinstance(instrument, Histogram):
            value = f"count={instrument.count}"
            if instrument.count:
                value += (f" p50={instrument.percentile(0.50)}"
                          f" p99={instrument.percentile(0.99)}"
                          f" max={instrument.max}")
        else:
            assert isinstance(instrument, (Counter, Gauge))
            value = str(instrument.value)
        rows.append((instrument.name + instrument.label_suffix, value))
    if not rows:
        return ""
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
