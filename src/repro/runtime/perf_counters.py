"""Software performance counters (the PAPI stand-in).

CEDR's Runtime Configuration lets users enable PAPI hardware counters per
worker.  Real hardware counters have no meaning inside a behavioural
simulator, so :meth:`PerfCounters.snapshot` writes the software-visible
equivalents the evaluation consumes (the ``--perf-json`` document): per-PE
task/busy tallies and per-API histograms, ready-queue depths, scheduling
rounds and fault-layer tallies.

Only *host-side* measurements are stored here - wall seconds, engine
events, the per-role host-time split, the event core's timer statistics.
Every simulated number is a read of the run's
:class:`~repro.runtime.logbook.Logbook`, the one record daemon, workers and
the fault layer write: ``snapshot()`` reads the book directly, and the
only simulated properties are the seven the benchmark tracer takes.  Any
other tally is a ``Logbook`` read (``incident_counts()``,
``ready_depths()``, ``mean_time_to_recovery()``, ``closed``); the class is
slotted, so assigning one raises.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter_ns
from typing import TYPE_CHECKING, Optional

from .logbook import Logbook

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import Engine, SimThread

__all__ = ["PerfCounters"]

#: the ``event_core`` snapshot section before any run
_EVENT_CORE_ZERO = {
    "late_timers": 0, "timers_fired": 0, "drain_batches": 0,
    "mean_batch": 0.0, "occupancy_hwm": 0, "instants": 0,
}


def _owner(callback) -> str:
    """Qualified name a timer callback is charged to: the wrapped function
    of a ``partial`` (``Engine.wake``), else the callable's own."""
    target = callback.func if isinstance(callback, partial) else callback
    return getattr(target, "__qualname__", type(target).__qualname__)


def _incident_count(kind: str, doc: str) -> property:
    """A read-only tally: the logbook's incident rows of one *kind*."""
    return property(lambda self: self.logbook.incident_counts()[kind], doc=doc)


@dataclass(slots=True)
class PerfCounters:
    """Run-wide counter set: host-side measurements plus a view of *logbook*."""

    logbook: Logbook = field(default_factory=Logbook)
    #: host-side simulator throughput: dispatch events handled by the engine
    #: and the wall-clock seconds spent inside :meth:`CedrRuntime.run`.
    #: ``events_per_wall_sec`` is the perf-regression metric the CLI's
    #: ``--verbose`` path prints, so throughput drops are visible outside
    #: pytest-benchmark (see benchmarks/baseline.json).
    engine_events: int = 0
    wall_seconds: float = 0.0
    #: where ``wall_seconds`` went: host nanoseconds inside ``daemon`` /
    #: ``worker`` / ``app`` generator bodies and inside ``timers``
    #: callbacks (everything they call included), and how many resumptions
    #: / callbacks each role took; :meth:`snapshot` adds the rest of the
    #: run - the engine loop itself - as ``loop``.  ``None`` unless
    #: :meth:`attribute_host_time` armed it (``repro run --perf-json``).
    host_ns_by_role: Optional[dict[str, int]] = None
    resumes_by_role: Optional[dict[str, int]] = None
    #: the ``timers`` role split by the callback's qualified name
    #: (``Engine.wake`` for signal-latency wakes, the daemon's watchdog and
    #: arrival closures, the fault streams, ...); ``None`` unless armed.
    timer_ns_by_owner: Optional[dict[str, int]] = None

    #: the simulator event core's timer statistics, as
    #: :meth:`repro.simcore.Engine.event_core_stats` reported them after the
    #: last run: ``late_timers`` clamped to now, ``timers_fired``,
    #: same-instant ``drain_batches`` and their ``mean_batch``, the
    #: pending-timer ``occupancy_hwm``, and the distinct ``instants`` the
    #: clock advanced to (``engine_events / instants`` is events per instant).
    event_core: dict = field(default_factory=lambda: dict(_EVENT_CORE_ZERO))

    # ------------------------------------------------------------------ #
    # host-side measurements (the only writes)
    # ------------------------------------------------------------------ #

    def record_run(self, wall_seconds: float, engine_events: int) -> None:
        """Account one ``CedrRuntime.run`` call's host wall time + events."""
        self.wall_seconds += wall_seconds
        self.engine_events = engine_events

    def attribute_host_time(self) -> None:
        """Arm the per-role host-time split; threads handed to
        :meth:`watch_thread` and engines handed to :meth:`watch_timers`
        from here on are timed."""
        self.host_ns_by_role = {"daemon": 0, "worker": 0, "app": 0, "timers": 0}
        self.resumes_by_role = {"daemon": 0, "worker": 0, "app": 0, "timers": 0}
        self.timer_ns_by_owner = {}

    def watch_thread(self, thread: "SimThread", role: str) -> None:
        """Charge every resumption of *thread* to *role* (no-op unless armed).

        The engine resumes a thread through its pre-bound ``_send``; timing
        that one callable attributes the run without a branch in the engine
        loop, so unarmed runs - and the bare-engine soak - pay nothing.
        """
        host_ns, resumes = self.host_ns_by_role, self.resumes_by_role
        if host_ns is None:
            return
        send = thread._send

        def timed_send(value):
            t0 = perf_counter_ns()
            try:
                return send(value)
            finally:
                host_ns[role] += perf_counter_ns() - t0
                resumes[role] += 1

        thread._send = timed_send

    def watch_timers(self, engine: "Engine") -> None:
        """Charge every timer callback scheduled on *engine* from here on to
        the ``timers`` role and to its owner (no-op unless armed).

        Shadows ``call_at`` / ``_schedule_timer`` on the engine instance so
        each callback is pushed already wrapped; like :meth:`watch_thread`,
        the engine loop has no branch for it and unarmed runs pay nothing.
        """
        host_ns, calls, by_owner = (
            self.host_ns_by_role, self.resumes_by_role, self.timer_ns_by_owner
        )
        if host_ns is None:
            return
        call_at, schedule = engine.call_at, engine._schedule_timer

        def timed(callback):
            owner = _owner(callback)

            def timed_callback():
                t0 = perf_counter_ns()
                try:
                    callback()
                finally:
                    ns = perf_counter_ns() - t0
                    host_ns["timers"] += ns
                    calls["timers"] += 1
                    by_owner[owner] = by_owner.get(owner, 0) + ns

            return timed_callback

        engine.call_at = lambda when, callback: call_at(when, timed(callback))
        engine._schedule_timer = lambda delay, callback: schedule(delay, timed(callback))

    @staticmethod
    def unwatch_timers(engine: "Engine") -> None:
        """Drop :meth:`watch_timers`' shadows, which hold *engine* in a cycle."""
        for name in ("call_at", "_schedule_timer"):
            vars(engine).pop(name, None)

    def record_event_core(self, stats: dict) -> None:
        """Absorb :meth:`repro.simcore.Engine.event_core_stats` output."""
        self.event_core = {key: stats.get(key, zero) for key, zero in _EVENT_CORE_ZERO.items()}

    @property
    def events_per_wall_sec(self) -> float:
        """Engine dispatch events per host wall-clock second (throughput)."""
        return self.engine_events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    # ------------------------------------------------------------------ #
    # simulated numbers: the reads the benchmark tracer takes of the record
    # ------------------------------------------------------------------ #

    @property
    def tasks_completed(self) -> int:
        return len(self.logbook.tasks)

    @property
    def sched_rounds(self) -> int:
        return len(self.logbook.rounds)

    @property
    def ready_depth_sum(self) -> int:
        return sum(self.logbook.rounds.column("depth"))

    @property
    def ready_depth_max(self) -> int:
        return self.logbook.ready_depths()[0]

    faults_injected = _incident_count("fault", "Faults applied by the injector.")
    task_failures = _incident_count(
        "failure",
        'Failed task attempts detected ("transient", "hang", "failstop", plus '
        '"watchdog" for missed-deadline recoveries).',
    )
    retries = _incident_count("retry", "Retry re-enqueues issued by the recovery policy.")

    def snapshot(self) -> dict:
        """JSON-compatible dump for the shutdown log: the host fields plus
        the simulated tallies, each read from the book here."""
        book = self.logbook
        per_pe: dict[str, dict] = {}  # first-completion order
        rows = zip(*map(book.tasks.column, ("pe", "api", "t_start", "t_finish")))
        for name, api, t_start, t_finish in rows:
            pe = per_pe.get(name)
            if pe is None:
                pe = per_pe[name] = {"tasks": 0, "busy_seconds": 0.0, "by_api": {}}
            pe["tasks"] += 1
            pe["busy_seconds"] += t_finish - t_start  # service_time
            pe["by_api"][api] = pe["by_api"].get(api, 0) + 1
        counts = book.incident_counts()
        details = {"fault": Counter(), "failure": Counter()}  # first-seen order
        for kind, detail in zip(book.incidents.column("kind"), book.incidents.column("detail")):
            if kind in details:
                details[kind][detail] += 1
        depth_max, depth_mean = book.ready_depths()
        host_ns = self.host_ns_by_role
        if host_ns is not None:
            loop = round(self.wall_seconds * 1e9) - sum(host_ns.values())
            host_ns = {**host_ns, "loop": loop}
        return {
            "per_pe": per_pe,
            "ready_depth_max": depth_max,
            "ready_depth_mean": depth_mean,
            "sched_rounds": len(book.rounds),
            "tasks_completed": len(book.tasks),
            "apps_completed": len(book.closed),
            "engine_events": self.engine_events,
            "wall_seconds": self.wall_seconds,
            "events_per_wall_sec": self.events_per_wall_sec,
            "host_ns_by_role": host_ns,
            "resumes_by_role": self.resumes_by_role,
            "timer_ns_by_owner": self.timer_ns_by_owner,
            "event_core": dict(self.event_core),
            "faults": {
                "injected": counts["fault"],
                "by_kind": dict(details["fault"]),
                "task_failures": counts["failure"],
                "failures_by_kind": dict(details["failure"]),
                "retries": counts["retry"],
                "tasks_lost": counts["lost"],
                "stale_dispatches": counts["stale"],
                "pe_quarantines": counts["quarantine"],
                "pe_revivals": counts["revival"],
                "recoveries": counts["recovery"],
                "mean_time_to_recovery": book.mean_time_to_recovery(),
            },
        }
