"""Fleet runner: shard independent simulation units across processes.

The SoC simulator is single-threaded Python, so evaluation campaigns
(fault sweeps, unroll studies, scheduler rate sweeps) are wall-clock
bound by one core.  Their points are mutually independent — each builds
its own SoC — which makes them embarrassingly parallel at the process
level.  ``run_fleet`` runs a task's units in the calling process plus
``workers - 1`` ``fork``-context children, each claiming the next
unclaimed unit from a shared counter, and merges the results back into
unit order.  The caller working through units, rather than idling
behind a pool, saves one fork and the pool's start-up and teardown,
which matter once a unit takes only ~0.1 s.

Determinism contract: the *unit decomposition* is the source of truth.
Serial mode (``workers=1``) executes the exact same unit list in the
exact same order in-process, so ``FleetReport.stable_json()`` is
byte-identical between a serial run and any worker count.  Host-time
fields (wall seconds, worker count) are excluded from the stable view.

Each unit runs under its own :class:`~repro.obs.Observability`; the
per-shard metric registries are merged in unit order via
:meth:`~repro.obs.MetricsRegistry.merge` into one fleet-wide snapshot.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ControllerError
from repro.fleet.tasks import FLEET_TASKS, Unit
from repro.obs import Observability, set_default_observability
from repro.obs.metrics import MetricsRegistry


def _execute_unit(payload: Tuple[str, Unit]) -> Dict[str, Any]:
    """Run one unit under a fresh default observability (worker entry).

    Dispatch goes through the task registry by name, so a worker
    needs only plain unit descriptors.
    """
    name, unit = payload
    task = FLEET_TASKS[name]
    obs = Observability()
    set_default_observability(obs)
    try:
        result = task.run_unit(unit)
    finally:
        set_default_observability(None)
    return {"unit": unit, "result": result, "metrics": obs.metrics}


def _drain(payload: List[Tuple[str, Unit]],
           next_index: Any) -> List[Tuple[int, Dict[str, Any]]]:
    """Claim and run units until none are left; ``(index, entry)`` pairs.

    ``next_index`` is a shared counter, so a process that finishes its
    unit early claims the next one (dynamic load balancing).
    """
    done = []
    while True:
        with next_index.get_lock():
            index = next_index.value
            next_index.value = index + 1
        if index >= len(payload):
            return done
        done.append((index, _execute_unit(payload[index])))


def _run_child(conn: Connection, payload: List[Tuple[str, Unit]],
               next_index: Any) -> None:
    """Child entry: drain units and send the results (or error) home."""
    try:
        conn.send((True, _drain(payload, next_index)))
    except BaseException as exc:  # re-raised in the parent
        with next_index.get_lock():  # no process claims another unit
            next_index.value = len(payload)
        conn.send((False, exc))
    finally:
        conn.close()


def _run_sharded(ctx: Any, payload: List[Tuple[str, Unit]],
                 workers: int) -> List[Dict[str, Any]]:
    """Run ``payload`` in this process plus ``workers - 1`` forked children.

    Every process claims units from one shared counter; the results are
    put back in unit order.
    """
    next_index = ctx.Value("i", 0)
    children = []
    try:
        for _ in range(workers - 1):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_child,
                                args=(sender, payload, next_index))
            child.start()
            sender.close()
            children.append((child, receiver))
        done = _drain(payload, next_index)
        for child, receiver in children:
            ok, value = receiver.recv()
            if not ok:
                raise value
            done.extend(value)
            child.join()
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
                child.join()
    return [entry for _, entry in sorted(done, key=lambda pair: pair[0])]


@dataclass
class FleetReport:
    """Merged view of one fleet run, JSON-exportable."""

    task: str
    seed: int
    workers: int
    units: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def stable_dict(self) -> Dict[str, Any]:
        """Deterministic content only — identical for any worker count."""
        return {
            "schema": "repro-fleet-v1",
            "task": self.task,
            "seed": self.seed,
            "units": self.units,
            "summary": self.summary,
            "metrics": self.metrics,
        }

    def stable_json(self) -> str:
        return json.dumps(self.stable_dict(), indent=2, sort_keys=True)

    def to_dict(self) -> Dict[str, Any]:
        out = self.stable_dict()
        out["workers"] = self.workers
        out["wall_seconds"] = round(self.wall_seconds, 3)
        return out

    def render(self) -> str:
        lines = [
            f"fleet {self.task}: {len(self.units)} units, "
            f"{self.workers} worker(s), seed {self.seed}, "
            f"{self.wall_seconds:.2f} s wall",
        ]
        for key in sorted(self.summary):
            lines.append(f"  {key}: {self.summary[key]}")
        return "\n".join(lines)


def run_fleet(task: str, *, workers: int = 1, seed: int = 2026,
              params: Optional[Mapping[str, Any]] = None) -> FleetReport:
    """Run every unit of ``task``, sharded over ``workers`` processes.

    ``params`` is forwarded to the task's unit decomposition (e.g.
    ``points``/``kinds`` for faults, ``factors`` for unroll).  Results
    always come back in unit order regardless of completion order.
    """
    spec = FLEET_TASKS.get(task)
    if spec is None:
        raise ControllerError(
            f"unknown fleet task {task!r}; "
            f"available: {', '.join(sorted(FLEET_TASKS))}")
    if workers < 1:
        raise ControllerError("workers must be >= 1")
    units = spec.units(seed=seed, **dict(params or {}))
    payload = [(task, unit) for unit in units]

    started = time.perf_counter()
    if workers == 1 or len(payload) <= 1:
        raw = [_execute_unit(item) for item in payload]
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            # no fork on this platform: degrade to the serial path,
            # which produces the identical stable report
            raw = [_execute_unit(item) for item in payload]
        else:
            raw = _run_sharded(ctx, payload, min(workers, len(payload)))
    wall = time.perf_counter() - started

    merged = MetricsRegistry()
    for entry in raw:
        merged.merge(entry["metrics"])
    results = [entry["result"] for entry in raw]
    return FleetReport(
        task=task, seed=seed, workers=workers,
        units=[{"unit": entry["unit"], "result": entry["result"]}
               for entry in raw],
        summary=spec.summarize(results),
        metrics=merged.snapshot(),
        wall_seconds=wall,
    )
