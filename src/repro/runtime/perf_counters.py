"""Software performance counters (the PAPI stand-in).

CEDR's Runtime Configuration lets users enable PAPI hardware counters per
worker.  Real hardware counters have no meaning inside a behavioural
simulator, so this module provides the software-visible equivalents the
evaluation actually consumes: per-PE task/busy tallies, per-API histograms,
ready-queue depth high-water marks, and scheduling-round statistics.

When the runtime carries a :class:`~repro.telemetry.CedrTelemetry` instance
it is attached here as ``telemetry``, and every fault/retry/recovery
``record_*`` call is *bridged* into the metric registry alongside the plain
tallies - the fault layer needs no knowledge of the registry, and the
bridge fires even when the legacy counters themselves are disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import SimThread
    from repro.telemetry import CedrTelemetry

__all__ = ["PECounters", "PerfCounters"]


@dataclass
class PECounters:
    """Counters for one processing element."""

    tasks: int = 0
    busy_seconds: float = 0.0
    by_api: dict[str, int] = field(default_factory=dict)

    def record(self, api: str, service_time: float) -> None:
        self.tasks += 1
        self.busy_seconds += service_time
        self.by_api[api] = self.by_api.get(api, 0) + 1


@dataclass
class PerfCounters:
    """Run-wide counter set, updated by daemon and workers."""

    enabled: bool = True
    per_pe: dict[str, PECounters] = field(default_factory=dict)
    ready_depth_max: int = 0
    ready_depth_sum: int = 0
    sched_rounds: int = 0
    tasks_completed: int = 0
    apps_completed: int = 0
    #: host-side simulator throughput: dispatch events handled by the engine
    #: and the wall-clock seconds spent inside :meth:`CedrRuntime.run`.
    #: ``events_per_wall_sec`` is the perf-regression metric the CLI's
    #: ``--verbose`` path prints, so throughput drops are visible outside
    #: pytest-benchmark (see benchmarks/baseline.json).
    engine_events: int = 0
    wall_seconds: float = 0.0
    #: where ``wall_seconds`` went, by the role of the thread the engine was
    #: resuming: host nanoseconds inside ``daemon`` / ``worker`` / ``app``
    #: generator bodies (everything they call included) and how many
    #: resumptions each role took; :meth:`snapshot` adds the rest of the run
    #: - the engine loop itself and its timer callbacks - as ``loop``.
    #: ``None`` unless :meth:`attribute_host_time` armed it (``repro run
    #: --perf-json``).
    host_ns_by_role: Optional[dict[str, int]] = None
    resumes_by_role: Optional[dict[str, int]] = None

    # -- simulator event core (repro.simcore timer queue) ----------------- #
    #: the engine's timer-queue kind (always "wheel"; kept in the schema).
    event_core: str = ""
    #: ``call_at`` timestamps in the past, clamped to now (late timers).
    late_timers: int = 0
    #: timers fired across the run (separate from dispatch events).
    timers_fired: int = 0
    #: same-instant timer drains executed by the engine main loop.
    timer_drain_batches: int = 0
    #: mean timers fired per same-instant drain.
    timer_mean_batch: float = 0.0
    #: high-water mark of timers pending in the queue at once.
    timer_occupancy_hwm: int = 0
    #: pushes that landed beyond the wheel horizon, into the overflow heap.
    overflow_spills: int = 0

    # -- fault injection + recovery (repro.faults) ------------------------ #
    #: faults applied by the injector, total and per fault kind.
    faults_injected: int = 0
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    #: failed task attempts detected, per detection kind ("transient",
    #: "hang", "failstop", plus "watchdog" for missed-deadline recoveries).
    task_failures: int = 0
    failures_by_kind: dict[str, int] = field(default_factory=dict)
    #: retry re-enqueues issued by the recovery policy.
    retries: int = 0
    #: tasks abandoned after exhausting their retry budget (their
    #: applications are declared failed).
    tasks_lost: int = 0
    #: invalidated dispatches discarded by workers (the watchdog already
    #: re-dispatched the task elsewhere).
    stale_dispatches: int = 0
    pe_quarantines: int = 0
    pe_revivals: int = 0
    #: first-failure -> successful-completion intervals (time-to-recovery).
    recoveries: int = 0
    recovery_time_sum: float = 0.0

    #: optional metric-registry bridge (repro.telemetry); fault/recovery
    #: records are mirrored into it regardless of ``enabled``.
    telemetry: Optional["CedrTelemetry"] = None

    def record_task(self, pe_name: str, api: str, service_time: float) -> None:
        if not self.enabled:
            return
        self.per_pe.setdefault(pe_name, PECounters()).record(api, service_time)
        self.tasks_completed += 1

    def record_round(self, ready_depth: int) -> None:
        if not self.enabled:
            return
        self.sched_rounds += 1
        self.ready_depth_max = max(self.ready_depth_max, ready_depth)
        self.ready_depth_sum += ready_depth

    def record_run(self, wall_seconds: float, engine_events: int) -> None:
        """Account one ``CedrRuntime.run`` call's host wall time + events."""
        if not self.enabled:
            return
        self.wall_seconds += wall_seconds
        self.engine_events = engine_events

    def attribute_host_time(self) -> None:
        """Arm the per-role host-time split; threads handed to
        :meth:`watch_thread` from here on are timed."""
        self.host_ns_by_role = {"daemon": 0, "worker": 0, "app": 0}
        self.resumes_by_role = {"daemon": 0, "worker": 0, "app": 0}

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

    def record_event_core(self, stats: dict) -> None:
        """Absorb :meth:`repro.simcore.Engine.event_core_stats` output."""
        if not self.enabled:
            return
        self.event_core = stats.get("kind", "")
        self.late_timers = stats.get("late_timers", 0)
        self.timers_fired = stats.get("timers_fired", 0)
        self.timer_drain_batches = stats.get("drain_batches", 0)
        self.timer_mean_batch = stats.get("mean_batch", 0.0)
        self.timer_occupancy_hwm = stats.get("occupancy_hwm", 0)
        self.overflow_spills = stats.get("overflow_spills", 0)

    def record_fault(self, kind: str) -> None:
        if self.telemetry is not None:
            self.telemetry.faults_injected.labels(kind).inc()
        if not self.enabled:
            return
        self.faults_injected += 1
        self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1

    def record_task_failure(self, kind: str) -> None:
        if self.telemetry is not None:
            self.telemetry.task_failures.labels(kind).inc()
        if not self.enabled:
            return
        self.task_failures += 1
        self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1

    def record_retry(self) -> None:
        if self.telemetry is not None:
            self.telemetry.task_retries.inc()
        if self.enabled:
            self.retries += 1

    def record_task_lost(self) -> None:
        if self.telemetry is not None:
            self.telemetry.tasks_lost.inc()
        if self.enabled:
            self.tasks_lost += 1

    def record_stale_dispatch(self) -> None:
        if self.telemetry is not None:
            self.telemetry.stale_dispatches.inc()
        if self.enabled:
            self.stale_dispatches += 1

    def record_quarantine(self) -> None:
        if self.telemetry is not None:
            self.telemetry.pe_quarantines.inc()
        if self.enabled:
            self.pe_quarantines += 1

    def record_revival(self) -> None:
        if self.telemetry is not None:
            self.telemetry.pe_revivals.inc()
        if self.enabled:
            self.pe_revivals += 1

    def record_recovery(self, seconds: float) -> None:
        """One task recovered: first failure to successful completion."""
        if self.telemetry is not None:
            self.telemetry.task_recovery.observe(seconds)
        if not self.enabled:
            return
        self.recoveries += 1
        self.recovery_time_sum += seconds

    @property
    def mean_time_to_recovery(self) -> float:
        """Average first-failure -> completion interval of recovered tasks."""
        return self.recovery_time_sum / self.recoveries if self.recoveries else 0.0

    @property
    def ready_depth_mean(self) -> float:
        """Average ready-queue depth seen at scheduling rounds."""
        return self.ready_depth_sum / self.sched_rounds if self.sched_rounds else 0.0

    @property
    def events_per_wall_sec(self) -> float:
        """Engine dispatch events per host wall-clock second (throughput)."""
        return self.engine_events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def snapshot(self) -> dict:
        """JSON-compatible dump for the shutdown log."""
        host_ns = self.host_ns_by_role
        if host_ns is not None:
            loop = round(self.wall_seconds * 1e9) - sum(host_ns.values())
            host_ns = {**host_ns, "loop": loop}
        return {
            "per_pe": {
                name: {"tasks": c.tasks, "busy_seconds": c.busy_seconds, "by_api": dict(c.by_api)}
                for name, c in self.per_pe.items()
            },
            "ready_depth_max": self.ready_depth_max,
            "ready_depth_mean": self.ready_depth_mean,
            "sched_rounds": self.sched_rounds,
            "tasks_completed": self.tasks_completed,
            "apps_completed": self.apps_completed,
            "engine_events": self.engine_events,
            "wall_seconds": self.wall_seconds,
            "events_per_wall_sec": self.events_per_wall_sec,
            "host_ns_by_role": host_ns,
            "resumes_by_role": self.resumes_by_role,
            "event_core": {
                "kind": self.event_core,
                "late_timers": self.late_timers,
                "timers_fired": self.timers_fired,
                "drain_batches": self.timer_drain_batches,
                "mean_batch": self.timer_mean_batch,
                "occupancy_hwm": self.timer_occupancy_hwm,
                "overflow_spills": self.overflow_spills,
            },
            "faults": {
                "injected": self.faults_injected,
                "by_kind": dict(self.faults_by_kind),
                "task_failures": self.task_failures,
                "failures_by_kind": dict(self.failures_by_kind),
                "retries": self.retries,
                "tasks_lost": self.tasks_lost,
                "stale_dispatches": self.stale_dispatches,
                "pe_quarantines": self.pe_quarantines,
                "pe_revivals": self.pe_revivals,
                "recoveries": self.recoveries,
                "mean_time_to_recovery": self.mean_time_to_recovery,
            },
        }
