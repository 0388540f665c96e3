"""The CEDR metric catalog: every series the runtime exports, in one place.

:class:`CedrTelemetry` owns the :class:`~repro.telemetry.registry.
MetricRegistry` for one :class:`~repro.runtime.daemon.CedrRuntime` and
pre-registers the full metric set at construction, so the catalog (names,
types, bucket ladders) is identical for every run - a zero-task run and a
saturated sweep export the same families, just with different values.

The registry is a read of the run record, like every other number a run
reports: :meth:`CedrTelemetry.fold` replays the
:class:`~repro.runtime.Logbook` rows in time order through the
``record_*`` steps below, taking the periodic samples on the way, and the
daemon runs it once, at shutdown.  Nothing in the runtime calls into a
registry while the run is live, so telemetry cannot perturb the run it
measures.

Which row each series folds, and the instant it counts at:

=========================  ===============================================
``rounds``                 at ``t_begin``: ``cedr_ready_queue_depth``
                           (depth of the last round begun), ``cedr_sched_
                           rounds``, ``cedr_sched_decision_seconds``,
                           ``cedr_sched_batch_tasks``; at ``t``, once per
                           task the round assigned, with its entry of
                           ``releases``: ``cedr_sched_latency_seconds``
                           (``t - release``, doorbell to dispatch)
``tasks``                  at ``t_finish``: ``cedr_pe_dispatch_total``,
                           ``cedr_pe_busy_seconds_total``, ``cedr_tasks_
                           completed``
``apps``                   at ``t_finish`` (the close): ``cedr_apps_
                           completed``
``incidents``              at ``t``: ``cedr_faults_injected_total``,
                           ``cedr_task_failures_total``, ``cedr_task_
                           retries_total``, ``cedr_tasks_lost_total``,
                           ``cedr_stale_dispatches_total``, ``cedr_pe_
                           quarantines_total``, ``cedr_pe_revivals_total``,
                           ``cedr_task_recovery_seconds``
``calls``                  at ``t_done``: ``cedr_api_calls_total``,
                           ``cedr_api_call_latency_seconds`` (``t_done -
                           t_call``); ``cedr_api_inflight_requests`` up at
                           ``t_enter``, down at ``t_done``
``late_timers``            at the instant: ``simcore_late_timers_total``
each sample                ``cedr_pe_utilization`` (busy seconds / ``t``)
=========================  ===============================================

A row stamped exactly at a sample instant counts in that sample.  This is
the order the retired live sampler produced for every tie that happens in
practice: its tick was a timer armed one interval ahead, so a timer due at
the same instant and armed earlier - a scripted fault, a pre-scheduled
submission - fired first, and a thread's row can only land on the grid by
float coincidence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import le, sub
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from .config import MAX_SAMPLES, SampleCapError, TelemetryConfig
from .registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime import Logbook

__all__ = ["CedrTelemetry", "LATENCY_BUCKETS", "DEPTH_BUCKETS", "RECOVERY_BUCKETS"]

#: latency ladder (seconds): 1-2.5-5 steps per decade, 1 us .. 1 s.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0,
)

#: ready-batch / queue-depth ladder (tasks per scheduling round).
DEPTH_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: first-failure -> successful-completion ladder (seconds).
RECOVERY_BUCKETS: tuple[float, ...] = (1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0)

def _stream(step: Callable, instants: Iterable[float], rows: Iterable) -> list:
    """``[instants, rows, step, cursor]``, *rows* stably sorted by *instants*."""
    instants, rows = list(instants), list(rows)
    if not all(map(le, instants, instants[1:])):  # most tables come in order
        order = sorted(range(len(instants)), key=instants.__getitem__)
        instants, rows = [instants[k] for k in order], [rows[k] for k in order]
    return [instants, rows, step, 0]


class CedrTelemetry:
    """Registry plus pre-bound metric handles for one runtime instance."""

    def __init__(
        self, config: TelemetryConfig = TelemetryConfig(), pe_names: Sequence[str] = ()
    ) -> None:
        self.config = config
        self.registry = r = MetricRegistry()
        #: flattened periodic snapshots, ``{"t": sim_seconds, "values": {...}}``.
        self.samples: list[dict[str, Any]] = []

        # -- daemon --------------------------------------------------------- #
        self.queue_depth = r.gauge(
            "cedr_ready_queue_depth",
            "Ready-queue depth observed at the last scheduling round",
        )
        self.sched_rounds = r.counter(
            "cedr_sched_rounds", "Scheduling rounds executed"
        )
        self.sched_decision_seconds = r.counter(
            "cedr_sched_decision_seconds",
            "Cumulative runtime-core seconds spent inside scheduling heuristics",
        )
        self.sched_batch = r.histogram(
            "cedr_sched_batch_tasks", DEPTH_BUCKETS,
            "Tasks handed to the heuristic per scheduling round",
        )
        self.sched_latency = r.histogram(
            "cedr_sched_latency_seconds", LATENCY_BUCKETS,
            "Doorbell-to-dispatch latency: task release to PE assignment",
        )
        self.apps_completed = r.counter(
            "cedr_apps_completed", "Applications terminated (any outcome)"
        )

        # -- workers -------------------------------------------------------- #
        self.pe_dispatch = r.counter(
            "cedr_pe_dispatch_total", "Tasks completed per processing element",
            labels=("pe",),
        )
        self.pe_busy = r.counter(
            "cedr_pe_busy_seconds_total", "Service seconds accumulated per PE",
            labels=("pe",),
        )
        self.pe_util = r.gauge(
            "cedr_pe_utilization",
            "Busy fraction of the run so far (derived at snapshot time)",
            labels=("pe",),
        )
        self.tasks_completed = r.counter(
            "cedr_tasks_completed", "Tasks completed across all PEs"
        )

        # -- libCEDR client -------------------------------------------------- #
        self.api_calls = r.counter(
            "cedr_api_calls_total", "libCEDR calls issued",
            labels=("api", "mode"),
        )
        self.api_latency = r.histogram(
            "cedr_api_call_latency_seconds", LATENCY_BUCKETS,
            "libCEDR call latency, submission to completion",
            labels=("api", "mode"),
        )
        self.api_inflight = r.gauge(
            "cedr_api_inflight_requests",
            "libCEDR calls submitted but not yet completed",
        )

        # -- fault layer (fed by Logbook.record_incident) -------------------- #
        self.faults_injected = r.counter(
            "cedr_faults_injected_total", "Faults applied by the injector",
            labels=("kind",),
        )
        self.task_failures = r.counter(
            "cedr_task_failures_total", "Failed task attempts detected",
            labels=("kind",),
        )
        self.task_retries = r.counter(
            "cedr_task_retries_total", "Retry re-enqueues issued by recovery"
        )
        self.tasks_lost = r.counter(
            "cedr_tasks_lost_total", "Tasks abandoned after the retry budget"
        )
        self.stale_dispatches = r.counter(
            "cedr_stale_dispatches_total", "Invalidated dispatches discarded"
        )
        self.pe_quarantines = r.counter(
            "cedr_pe_quarantines_total", "PE quarantine events"
        )
        self.pe_revivals = r.counter(
            "cedr_pe_revivals_total", "PE revival events"
        )
        self.task_recovery = r.histogram(
            "cedr_task_recovery_seconds", RECOVERY_BUCKETS,
            "First failure to successful completion, per recovered task",
        )
        #: incident kind -> the plain counter it bumps; "fault" / "failure"
        #: carry a label and "recovery" a value, "redispatch" feeds nothing
        self._incident_counters = {
            "retry": self.task_retries,
            "lost": self.tasks_lost,
            "stale": self.stale_dispatches,
            "quarantine": self.pe_quarantines,
            "revival": self.pe_revivals,
        }

        # -- simulator event core (the engine's clamped timers) -------------- #
        self.late_timers = r.counter(
            "simcore_late_timers_total",
            "call_at timestamps in the past, clamped to the current instant",
        )

        # Pre-touch per-PE children so every PE appears (with zeros) even if
        # it never executes a task - keeps the export shape run-invariant.
        for family in (self.pe_dispatch, self.pe_busy, self.pe_util):
            for name in pe_names:
                family.labels(name)

    @classmethod
    def fold(cls, book: "Logbook", config: TelemetryConfig) -> "CedrTelemetry":
        """The registry of the run *book* records, one series per header PE,
        sampled every ``config.sample_interval_s`` from 0 and once more at
        the book's makespan.

        Each table becomes one stream of rows, stably sorted by the instant
        its series count at (the module table; ties keep row order), and
        each window between samples hands every stream's slice to its
        ``record_*`` step.  No series is fed by two streams, so every float
        sum accumulates in the order the run produced its rows.  Sample
        instants repeat the float additions a timer chain would make
        (``t = interval``, then ``t += interval``), and a row at exactly a
        sample instant counts in that sample.
        """
        interval, end = config.sample_interval_s, book.makespan
        bounds: list[float] = []
        if interval > 0.0:
            if end / interval > MAX_SAMPLES:
                raise SampleCapError(
                    f"[telemetry] interval_s / --metrics-interval {interval!r} would take "
                    f"{end / interval:.3g} samples over a {end:.6g} s run; the cap is "
                    f"{MAX_SAMPLES}"
                )
            t = interval
            while t <= end:
                bounds.append(t)
                t += interval
        bounds.append(math.inf)  # the last window: every row left, sampled at end
        tel = cls(config, [name for name, _ in book.header.pes])
        rounds, tasks, incidents = book.rounds, book.tasks, book.incidents
        depths, finishes = rounds.column("depth"), tasks.column("t_finish")
        # each round's ``t`` once per task it assigned
        assigned = [t for t, n in zip(rounds.column("t"), depths) for _ in range(n)]
        closes = [app.t_finish for app in book.apps.values() if app.t_finish is not None]
        streams = [
            _stream(tel.record_rounds, rounds.column("t_begin"), zip(depths, rounds.column("cost"))),
            _stream(tel.record_sched_latencies, assigned, map(sub, assigned, book.releases)),
            _stream(tel.record_tasks, finishes,
                    zip(tasks.column("pe"), map(sub, finishes, tasks.column("t_start")))),
            _stream(tel.record_apps_completed, closes, closes),
            _stream(tel.record_incidents, incidents.column("t"),
                    zip(*map(incidents.column, ("kind", "detail", "seconds")))),
            # entering (``None``) and settling, call by call
            _stream(tel.record_api_calls, [t for c in book.calls.values() for t in c[3:]],
                    [r for api, mode, t_call, _, t_done in book.calls.values()
                     for r in (None, (api, mode, t_done - t_call))]),
            _stream(tel.record_late_timers, book.late_timers, book.late_timers),
        ]
        streams = [stream for stream in streams if stream[0]]
        for bound in bounds:
            for stream in streams:
                times, rows, step, i = stream
                j = bisect_right(times, bound, i)
                if j > i:
                    step(rows[i:j])
                    stream[3] = j
            tel.sample(bound if bound < math.inf else end)
        return tel

    # ------------------------------------------------------------------ #
    # the fold's steps: one call per stream per window, rows in order
    # ------------------------------------------------------------------ #

    def record_rounds(self, rows: Sequence[tuple[int, float]]) -> None:
        """Scheduling decisions beginning, ``(depth, decision seconds)``
        each: depth gauge (the last round's), counters, batch histogram."""
        inc = self.sched_decision_seconds.inc  # refuses a negative cost
        for _, seconds in rows:
            inc(seconds)
        self.sched_batch.observe_all([depth for depth, _ in rows])
        self.queue_depth.value = rows[-1][0]
        self.sched_rounds.value += len(rows)

    def record_sched_latencies(self, seconds: Sequence[float]) -> None:
        """Doorbell-to-dispatch intervals, one per task assignment."""
        self.sched_latency.observe_all(seconds)

    def record_tasks(self, rows: Sequence[tuple[str, float]]) -> None:
        """Worker-side completions, ``(pe, service seconds)`` each: per-PE
        dispatch count and busy seconds."""
        dispatch, busy = self.pe_dispatch.labels, self.pe_busy.labels
        for name, service_seconds in rows:
            dispatch(name).value += 1.0
            busy(name).inc(service_seconds)  # refuses a negative service time
        self.tasks_completed.value += len(rows)

    def record_apps_completed(self, closes: Sequence[float]) -> None:
        self.apps_completed.value += len(closes)

    def record_incidents(self, rows: Sequence[tuple[str, str, float]]) -> None:
        """Fault-layer events, ``(kind, detail, seconds)`` each
        (``repro.runtime.logbook.INCIDENT_KINDS``)."""
        plain = self._incident_counters
        for kind, detail, seconds in rows:
            counter = plain.get(kind)
            if counter is not None:
                counter.value += 1.0
            elif kind == "fault":
                self.faults_injected.labels(detail).value += 1.0
            elif kind == "failure":
                self.task_failures.labels(detail).value += 1.0
            elif kind == "recovery":
                self.task_recovery.observe(seconds)

    def record_api_calls(self, rows: Sequence[Optional[tuple[str, str, float]]]) -> None:
        """libCEDR calls entering (``None``: the in-flight gauge rises) and
        settling (``(api, mode, latency)``, mode ``blocking`` /
        ``nonblocking``: counted, timed, and out of the gauge)."""
        inflight = self.api_inflight
        calls, latencies = self.api_calls.labels, self.api_latency.labels
        for row in rows:
            if row is None:
                inflight.value += 1.0
                continue
            api, mode, latency = row
            calls(api, mode).value += 1.0
            latencies(api, mode).observe(latency)
            inflight.value -= 1.0

    def record_late_timers(self, instants: Sequence[float]) -> None:
        self.late_timers.value += len(instants)

    # ------------------------------------------------------------------ #
    # snapshot sampling
    # ------------------------------------------------------------------ #

    def sample(self, now: float) -> dict[str, Any]:
        """Append (and return) one flattened snapshot stamped with sim time,
        each PE's utilization derived for it (busy seconds / *now*)."""
        util = self.pe_util.labels
        for (name,), busy in self.pe_busy.series():
            gauge = util(name)  # a PE first seen in a row gets its series here
            if now > 0.0:
                gauge.value = busy.value / now
        snap = {"t": now, "values": self.registry.flat()}
        self.samples.append(snap)
        return snap

    def export_state(self) -> dict[str, Any]:
        """Picklable summary carried by :class:`~repro.metrics.RunResult`."""
        return {
            "metrics": self.registry.snapshot(),
            "samples": list(self.samples),
        }
