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
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Sequence

from .registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime import Logbook

__all__ = [
    "TelemetryConfig", "CedrTelemetry", "SampleCapError", "MAX_SAMPLES",
    "LATENCY_BUCKETS", "DEPTH_BUCKETS", "RECOVERY_BUCKETS",
]

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

#: the most periodic samples one fold takes: an interval that would take
#: more is refused before the first sample (see :class:`SampleCapError`)
MAX_SAMPLES = 100_000


class SampleCapError(ValueError):
    """A sampling interval too fine for the run: more than :data:`MAX_SAMPLES`
    samples between start and makespan."""


@dataclass(frozen=True)
class TelemetryConfig:
    """Per-run telemetry knobs (attach to ``RuntimeConfig.telemetry``;
    ``None`` there means no registry).

    ``sample_interval_s > 0`` asks the fold for a flattened snapshot of the
    registry every interval of simulated time, appended to
    :attr:`CedrTelemetry.samples`.  Snapshots are a function of the run
    record alone, so they are bit-identical between serial and process-
    pool (``--jobs``) sweeps.  ``0`` takes no periodic samples; the final
    sample at the makespan is always taken.
    """

    sample_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.sample_interval_s < math.inf:  # NaN fails both
            raise ValueError(
                f"sample_interval_s must be finite and >= 0, "
                f"got {self.sample_interval_s}"
            )


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
        # it never executes a task - keeps the export shape run-invariant -
        # and pre-BIND them: ``record_task`` runs once per completed task,
        # so the per-event ``labels()`` probe (tuple build + arity check +
        # family dict lookup) collapses to one plain dict hit here.
        self._pe_names = tuple(pe_names)
        self._pe_dispatch_by_name: dict[str, Any] = {}
        self._pe_busy_by_name: dict[str, Any] = {}
        self._pe_util_by_name: dict[str, Any] = {}
        for name in self._pe_names:
            self._pe_dispatch_by_name[name] = self.pe_dispatch.labels(name)
            self._pe_busy_by_name[name] = self.pe_busy.labels(name)
            self._pe_util_by_name[name] = self.pe_util.labels(name)
        #: (api, mode) -> (calls counter, latency histogram), bound on first
        #: sight: the API name set is workload-defined, so these bind lazily
        #: but still pay ``labels()`` once per distinct pair, not per call.
        self._api_children: dict[tuple[str, str], tuple[Any, Any]] = {}

    @classmethod
    def fold(
        cls, book: "Logbook", config: TelemetryConfig, pe_names: Sequence[str],
        end: float,
    ) -> "CedrTelemetry":
        """The registry of the run *book* records, sampled every
        ``config.sample_interval_s`` from 0 and once more at *end* (the
        makespan).

        Each row becomes one ``record_*`` step at the instant its series
        counts (the module table); the steps run in time order, ties in row
        order, so every float sum accumulates in the order the run produced
        its rows.  Sample instants repeat the float additions a timer chain
        would make (``t = interval``, then ``t += interval``), and a step
        at exactly a sample instant runs before that sample.
        """
        interval = config.sample_interval_s
        instants: list[float] = []
        if interval > 0.0:
            if end / interval > MAX_SAMPLES:
                raise SampleCapError(
                    f"[telemetry] interval_s / --metrics-interval {interval!r} would take "
                    f"{end / interval:.3g} samples over a {end:.6g} s run; the cap is "
                    f"{MAX_SAMPLES}"
                )
            t = interval
            while t <= end:
                instants.append(t)
                t += interval
        tel = cls(config, pe_names)
        steps: list[tuple[float, Any, tuple]] = []
        add = steps.append
        releases = iter(book.releases)  # empty below schema 4: no latencies
        for t, depth, cost, t_begin in book.rounds:
            add((t_begin, tel.record_round, (depth, cost)))
            for release in islice(releases, depth):
                add((t, tel.record_sched_latency, (t - release,)))
        for rec in book.tasks:
            add((rec.t_finish, tel.record_task, (rec.pe, rec.service_time)))
        for app in book.apps.values():
            if app.t_finish is not None:
                add((app.t_finish, tel.record_app_completed, ()))
        for incident in book.incidents:
            add((incident.t, tel.record_incident,
                 (incident.kind, incident.detail, incident.seconds)))
        for call in book.calls:
            add((call.t_enter, tel.api_inflight.inc, ()))
            add((call.t_done, tel.record_api_call,
                 (call.api, call.mode, call.t_done - call.t_call)))
        for t in book.late_timers:
            add((t, tel.late_timers.inc, ()))
        steps.sort(key=itemgetter(0))  # stable: ties keep row order
        i, n = 0, len(steps)
        for instant in instants:
            while i < n and steps[i][0] <= instant:
                steps[i][1](*steps[i][2])
                i += 1
            tel.sample(instant)
        for _, step, args in steps[i:]:
            step(*args)
        tel.sample(end)
        return tel

    # ------------------------------------------------------------------ #
    # the fold's steps: one call per row (see :meth:`fold`)
    # ------------------------------------------------------------------ #

    def record_round(self, batch: int, decision_seconds: float) -> None:
        """One scheduling decision beginning: depth gauge and counters."""
        self.queue_depth.set(batch)
        self.sched_rounds.inc()
        self.sched_decision_seconds.inc(decision_seconds)
        self.sched_batch.observe(batch)

    def record_sched_latency(self, seconds: float) -> None:
        """Doorbell-to-dispatch interval for one task assignment."""
        self.sched_latency.observe(seconds)

    def record_task(self, pe_name: str, service_seconds: float) -> None:
        """Worker-side completion: per-PE dispatch count and busy seconds."""
        dispatch = self._pe_dispatch_by_name.get(pe_name)
        if dispatch is None:
            # a PE unknown at construction (defensive; normal runs pre-bind
            # every PE): bind its children once and proceed
            dispatch = self._pe_dispatch_by_name[pe_name] = self.pe_dispatch.labels(pe_name)
            self._pe_busy_by_name[pe_name] = self.pe_busy.labels(pe_name)
            self._pe_util_by_name[pe_name] = self.pe_util.labels(pe_name)
        dispatch.inc()
        self._pe_busy_by_name[pe_name].inc(service_seconds)
        self.tasks_completed.inc()

    def record_app_completed(self) -> None:
        self.apps_completed.inc()

    def record_incident(self, kind: str, detail: str, seconds: float) -> None:
        """One fault-layer event (``repro.runtime.logbook.INCIDENT_KINDS``)."""
        counter = self._incident_counters.get(kind)
        if counter is not None:
            counter.inc()
        elif kind == "fault":
            self.faults_injected.labels(detail).inc()
        elif kind == "failure":
            self.task_failures.labels(detail).inc()
        elif kind == "recovery":
            self.task_recovery.observe(seconds)

    def record_api_call(self, api: str, mode: str, latency_seconds: float) -> None:
        """One libCEDR call settled (mode: ``blocking``/``nonblocking``);
        it leaves the in-flight gauge."""
        pair = self._api_children.get((api, mode))
        if pair is None:
            pair = (
                self.api_calls.labels(api, mode),
                self.api_latency.labels(api, mode),
            )
            self._api_children[(api, mode)] = pair
        pair[0].inc()
        pair[1].observe(latency_seconds)
        self.api_inflight.dec()

    # ------------------------------------------------------------------ #
    # snapshot sampling
    # ------------------------------------------------------------------ #

    def _refresh_derived(self, now: float) -> None:
        if now <= 0.0:
            return
        for name in self._pe_names:
            busy = self._pe_busy_by_name[name].value
            self._pe_util_by_name[name].set(busy / now)

    def flat_values(self) -> dict[str, float]:
        """Scalar view of every series, for compact time-series samples.

        Counters/gauges map to their value; histograms contribute
        ``<name>_count`` and ``<name>_sum``.  Labelled series append a
        ``{k=v,...}`` suffix in sorted label order.
        """
        out: dict[str, float] = {}
        for family in self.registry.families():
            for values, metric in family.series():
                suffix = (
                    "{" + ",".join(
                        f"{k}={v}" for k, v in zip(family.label_names, values)
                    ) + "}"
                    if values else ""
                )
                if family.kind == "histogram":
                    out[f"{family.name}_count{suffix}"] = metric.count
                    out[f"{family.name}_sum{suffix}"] = metric.sum
                else:
                    out[f"{family.name}{suffix}"] = metric.value
        return out

    def sample(self, now: float) -> dict[str, Any]:
        """Append (and return) one flattened snapshot stamped with sim time."""
        self._refresh_derived(now)
        snap = {"t": now, "values": self.flat_values()}
        self.samples.append(snap)
        return snap

    def export_state(self) -> dict[str, Any]:
        """Picklable summary carried by :class:`~repro.metrics.RunResult`."""
        return {
            "metrics": self.registry.snapshot(),
            "samples": list(self.samples),
        }
