"""Chrome-trace export of CEDR execution logs.

The real CEDR serializes task logs at shutdown "for later offline analysis
by the user".  This module turns a :class:`~repro.runtime.logbook.Logbook`
into the Chrome Trace Event Format (the JSON consumed by ``chrome://tracing``
and Perfetto), which is the most practical way to *see* a schedule:

* one trace "process" per PE, with each executed task as a complete event
  (queue wait rendered as a preceding half-opacity span);
* one process for applications, with an arrival-to-completion span per app;
* a counter track of the ready-queue depth per scheduling round, and one of
  the scheduler's cumulative decisions and per-round decision cost;
* instant events mark every injected fault on its PE's row and every retry
  re-dispatch on the target PE's row, so Perfetto shows recovery visually.

Everything comes from the run's logbook: its rows, and its header for the
PE list and the platform / scheduler names - so a saved dump exports the
same trace as the live run.

All emitted numbers are sanitized: non-finite floats (NaN/inf) become
``null`` so the JSON stays loadable by strict parsers (``json.dump`` runs
with ``allow_nan=False``).

Usage::

    runtime.run()
    write_chrome_trace("run.trace.json", runtime.logbook)
    # open chrome://tracing or https://ui.perfetto.dev and load the file
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

from repro.atomic import atomic_write

from .logbook import Logbook

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: trace pid reserved for application lifetime spans
APP_PID = 1_000_000
#: trace pid reserved for runtime-level counter tracks (ready-queue depth)
RUNTIME_PID = 2_000_000


def _us(seconds: float) -> float:
    return seconds * 1e6


def _sanitize(obj: Any) -> Any:
    """Replace non-finite floats with None, recursively (JSON-safe)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def to_chrome_trace(book: Logbook) -> dict[str, Any]:
    """Build the Chrome Trace Event JSON structure for one completed run."""
    events: list[dict[str, Any]] = []

    # -- metadata: name the PE rows ------------------------------------ #
    pe_pids: dict[str, int] = {}
    for index, (name, kind) in enumerate(book.header.pes):
        pid = pe_pids[name] = 1000 + index
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"PE {name} ({kind})"},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": index},
        })
    events.append({
        "ph": "M", "name": "process_name", "pid": APP_PID, "tid": 0,
        "args": {"name": "applications"},
    })
    events.append({
        "ph": "M", "name": "process_name", "pid": RUNTIME_PID, "tid": 0,
        "args": {"name": "cedr-daemon"},
    })

    # -- per-task execution + queue-wait spans -------------------------- #
    for rec in book.tasks:
        pid = pe_pids[rec.pe]
        if rec.queue_wait > 0:
            events.append({
                "ph": "X", "name": f"wait {rec.api}", "cat": "queue",
                "pid": pid, "tid": 0,
                "ts": _us(rec.t_release), "dur": _us(rec.t_start - rec.t_release),
                "args": {"task": rec.tid, "app": rec.app_id},
            })
        events.append({
            "ph": "X", "name": f"{rec.api}:{rec.name}", "cat": "task",
            "pid": pid, "tid": 0,
            "ts": _us(rec.t_start), "dur": _us(rec.service_time),
            "args": {"task": rec.tid, "app": rec.app_id, "api": rec.api},
        })

    # -- application lifetimes ------------------------------------------ #
    for app in book.apps.values():
        if app.t_finish is None:
            continue
        events.append({
            "ph": "X", "name": f"{app.name}#{app.app_id} ({app.mode})",
            "cat": "app", "pid": APP_PID, "tid": app.app_id,
            "ts": _us(app.t_arrival), "dur": _us(app.execution_time),
            "args": {"mode": app.mode, "exec_ms": app.execution_time * 1e3},
        })

    # -- ready-queue depth counter track -------------------------------- #
    rounds = book.rounds
    for t, depth, _, _ in rounds:
        events.append({
            "ph": "C", "name": "ready queue", "pid": RUNTIME_PID, "tid": 0,
            "ts": _us(t), "args": {"depth": depth},
        })

    # -- scheduler-decision counter track ------------------------------- #
    # Each round's batch size and heuristic decision cost, stamped where
    # the decision began; rendered next to the ready-queue depth so
    # Perfetto shows decision cost growing with queue pressure (the
    # paper's Fig. 7 mechanism, visually).
    decisions = 0
    for _, batch, cost, t_begin in rounds:
        decisions += batch
        events.append({
            "ph": "C", "name": "sched decisions", "pid": RUNTIME_PID, "tid": 0,
            "ts": _us(t_begin),
            "args": {"decided": decisions, "decision_cost_us": _us(cost)},
        })

    # -- fault injections + retry re-dispatches (instant events) -------- #
    incidents = list(book.incidents)
    for fault in incidents:
        pid = pe_pids.get(fault.pe)
        if fault.kind != "fault" or pid is None:
            continue
        events.append({
            "ph": "i", "name": f"fault:{fault.detail}", "cat": "fault",
            "pid": pid, "tid": 0, "ts": _us(fault.t), "s": "p",
            "args": {"kind": fault.detail},
        })
    for retry in incidents:
        pid = pe_pids.get(retry.pe)
        if retry.kind != "redispatch" or pid is None:
            continue
        events.append({
            "ph": "i", "name": "retry", "cat": "fault",
            "pid": pid, "tid": 0, "ts": _us(retry.t), "s": "p",
            "args": {"task": retry.tid, "attempt": retry.attempt},
        })

    counts = book.incident_counts()
    return _sanitize({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "platform": book.header.platform,
            "scheduler": book.header.scheduler,
            "makespan_ms": (book.makespan or 0.0) * 1e3,
            "apps": len(book.closed),
            "tasks": len(book.tasks),
            "faults": counts["fault"],
            "retries": counts["retry"],
        },
    })


def write_chrome_trace(path: str, book: Logbook, indent: Optional[int] = None) -> str:
    """Serialize :func:`to_chrome_trace` to *path*; returns the path."""
    trace = to_chrome_trace(book)
    with atomic_write(path) as fh:
        json.dump(trace, fh, indent=indent, allow_nan=False)
    return path
