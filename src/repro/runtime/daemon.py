"""The CEDR Daemon Process: main event loop, ready queue, scheduling rounds.

This is the heart of the runtime (paper Fig. 1).  One daemon thread runs on
the platform's reserved runtime core and:

* receives application submissions over the IPC channel;
* DAG mode - parses the JSON DAG (paying per-node parse cost), instantiates
  tasks, and pushes head nodes into the ready queue;
* API mode - parses the shared object and spawns the floating application
  thread, whose libCEDR calls later push tasks into the ready queue
  themselves (the overhead transfer behind the paper's Fig. 5);
* runs scheduling rounds: charges the heuristic's decision cost to the
  runtime core, then distributes the assignments to per-worker mailboxes,
  holding the scheduler to its contract on every run - a round assigns
  exactly its ready batch, each task to a PE that can run it (and, under
  faults, is live) - or raising the audit catalog's ``AuditViolation``
  at the offending round;
* on task completion performs DAG dependency updates and application
  termination, accumulating the *runtime overhead* and *scheduling
  overhead* metrics with exactly the paper's definitions.

The daemon exits once the runtime is sealed (no more submissions) and every
submitted application has completed, then wakes all workers with a shutdown
sentinel and stamps the logbook - the analogue of the shutdown IPC command
followed by log serialization.  With fault injection active the drain
condition additionally waits out retry backoff timers and parked tasks, so
a fault on the final task of an application is recovered rather than
abandoned at shutdown.

Fault detection + recovery (repro.faults)
-----------------------------------------

When the runtime config carries an active :class:`~repro.faults.FaultConfig`
the daemon grows four responsibilities, all gated so fault-free runs stay
bit-identical to the pre-fault runtime:

* every dispatch arms a *watchdog* timer (expected completion + grace +
  ``watchdog_factor x estimate``); if it fires first, the dispatch is
  invalidated via the task's ``dispatch_epoch`` and recovery begins;
* ``task_failed`` events from workers (transient faults, hangs, fail-stop
  bounces) and watchdog expiries feed one *retry policy*: capped
  exponential backoff, optionally excluding the PEs the task failed on,
  until ``max_retries`` is exhausted and the task - and its application -
  is declared lost;
* failed PEs are *quarantined* (``pe.available = False``, revived by
  timer) so schedulers see a live PE mask through
  ``repro.sched.base.live_columns``; fail-stop PEs never revive;
* before each round the ready batch is partitioned: tasks with no live
  candidate PE are *parked* until a revival, tasks whose every supporting
  PE is dead are lost immediately.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from repro.faults import FaultInjector, TaskLostError
from repro.platforms import PE, PEKind, PlatformInstance
from repro.platforms.timing import CostTable
from repro.sched import SCHEDULERS, Scheduler
from repro.sched.heft_rt import upward_ranks
from repro.simcore import Block, Compute, Request, SimThread, child_rng
from repro.simcore.errors import SimStateError
from repro.telemetry import CedrTelemetry

from .app import DAG_MODE, AppInstance, TimingOnlyAppError
from .config import RuntimeConfig
from .logbook import Logbook
from .perf_counters import PerfCounters
from .task import Task, TaskState
from .worker import SHUTDOWN, worker_body

if TYPE_CHECKING:  # pragma: no cover
    from repro.dag.app import DagProgram
    from repro.simcore import Engine

__all__ = ["CedrRuntime", "RunMetrics", "EventQueue"]

#: what a consumer parked on an empty :class:`EventQueue` yields; a
#: ``Block`` carries no state, so every park shares this one
_PARK = Block()

# task states, bound once: on CPython 3.11 a member read through its enum
# class is a metaclass lookup, tens of times dearer than a module global,
# and the daemon writes one per task hop
_CREATED, _READY, _SCHEDULED, _RUNNING, _DONE = (
    TaskState.CREATED, TaskState.READY, TaskState.SCHEDULED, TaskState.RUNNING,
    TaskState.DONE,
)

#: a cost-table estimate outside the row's ``cols``: the PE cannot run it
_INF = math.inf


def _breach(code: str, message: str, **where: Any) -> Exception:
    """The audit catalog's exception for a scheduler that broke *code*."""
    # Imported here: repro.audit consumes runtime records, so a
    # module-level import would be circular.
    from repro.audit import AuditViolation

    return AuditViolation(code, message, **where)


@dataclass
class RunMetrics:
    """Run-level aggregates with the paper's metric definitions.

    ``runtime_overhead_s`` is main-thread time spent receiving, managing,
    and terminating applications (excludes scheduling);
    ``sched_overhead_s`` is time spent inside scheduling rounds, summed
    over the logbook's round rows at shutdown, where ``makespan`` is
    stamped too.
    """

    runtime_overhead_s: float = 0.0
    sched_overhead_s: float = 0.0
    makespan: float = 0.0


class EventQueue:
    """Single-consumer mailbox: the daemon's event queue and each worker's
    task queue.

    Producers (workers, application threads, IPC timers, the daemon's
    dispatch loop) call :meth:`post` as a plain method - the cooperative
    simulator guarantees atomicity within a dispatch - which appends and
    wakes the parked consumer directly.  The daemon drains everything
    available in one :meth:`get_batch`, mirroring how the real main loop
    services multiple pending events per wakeup; a worker takes one item at
    a time with :meth:`get`, and ``len()`` is what is still queued.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._items: list[Any] = []
        self._waiter: Optional[SimThread] = None

    def __len__(self) -> int:
        return len(self._items)

    def post(self, event: Any) -> None:
        self._items.append(event)
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            self.engine.wake(waiter)

    def _park(self) -> Block:
        if self._waiter is not None:
            raise SimStateError("EventQueue supports a single consumer")
        self._waiter = self.engine.current
        return _PARK

    def get_batch(self) -> Generator[Request, Any, list[Any]]:
        if not self._items:
            yield self._park()
        batch = self._items
        self._items = []
        return batch

    def get(self) -> Generator[Request, Any, Any]:
        """Oldest queued item, parking until one is posted."""
        if not self._items:
            yield self._park()
        # a mailbox holds at most one round's share of tasks, so the
        # front-pop's shift is a few hundred pointers at the very most
        return self._items.pop(0)


class CedrRuntime:
    """The CEDR daemon plus its worker threads over one platform instance."""

    def __init__(self, platform: PlatformInstance, config: RuntimeConfig) -> None:
        self.platform = platform
        self.config = config
        self.engine = platform.engine
        self.scheduler: Scheduler = SCHEDULERS.create(config.scheduler)
        #: bookkeeping costs are referenced to the ZCU102's 1.2 GHz cores
        self.cost_scale = 1.2 / platform.timing.cpu_clock_ghz
        self.events = EventQueue(self.engine)
        self.ready: list[Task] = []
        self.apps: dict[int, AppInstance] = {}
        self.mailboxes: dict[int, EventQueue] = {}
        self.inflight: dict[int, int] = {}
        #: the metric registry, folded from the logbook at shutdown when the
        #: config carries telemetry (``None`` until then, and without it)
        self.telemetry: Optional[CedrTelemetry] = None
        #: the run record: every completion, round, app open / close,
        #: libCEDR call and fault-layer event is written here once;
        #: ``counters`` keeps the host-side measurements and reads its
        #: simulated numbers back from it, and the registry is a fold of it.
        self.logbook = Logbook()
        self.counters = PerfCounters(self.logbook)
        self.metrics = RunMetrics()
        self.noise_rng = (
            child_rng(self.engine.seed, "cost-noise") if config.cost_noise_sigma > 0 else None
        )
        self._noise_sigma = config.cost_noise_sigma
        self._submitted = 0
        self._completed = 0
        self._sealed = False
        self._started = False
        self._last_round_at = -float("inf")
        self._round_timer_pending = False
        self._round_due = False
        #: profile table: every task shape is interned to a row of per-PE
        #: estimates when the task is created, and scheduling rounds read
        #: those rows.  The table is also the estimate(task, pe) callable
        #: the schedulers receive.
        self.cost_table = CostTable(platform.timing, platform.pes)
        #: the daemon's bookkeeping charges, one shared request per distinct
        #: ``us`` (see :meth:`_charge`)
        self._charges: dict[float, Compute] = {}
        #: the scheduling rounds' decision costs, one shared request per
        #: distinct cost (see :meth:`_schedule_round`)
        self._round_charges: dict[float, Compute] = {}
        costs, scale = config.costs, self.cost_scale
        #: the ``(api_call, api_push, api_kick)`` requests every libCEDR
        #: call yields on its application thread - shared values, like every
        #: request: never mutate one
        self.api_charges = (
            Compute(costs.api_call_us * 1e-6 * scale),
            Compute(costs.api_push_us * 1e-6 * scale),
            Compute(costs.api_kick_us * 1e-6 * scale),
        )
        #: ``id(program)`` -> ``(program, table token, [(cost_row, rank)
        #: per node])``: what :meth:`_assign_dag_ranks` derived on the
        #: program's first arrival.  The entry keeps the program alive, so
        #: its id cannot be reused; the token drops plans of a replaced table.
        self._dag_plans: dict[int, tuple] = {}
        self.daemon_thread: Optional[SimThread] = None
        #: True once the daemon drained cleanly (shutdown bookkeeping ran);
        #: gates the end-of-run audit fold in :meth:`run`.
        self._drained = False
        #: fault injection + recovery state; ``None`` whenever the config
        #: carries no active fault model (the bit-identical fast path).
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self, config.faults)
            if config.faults is not None and config.faults.active
            else None
        )
        #: ready tasks with no *live* candidate PE, waiting for a revival.
        self._parked: list[Task] = []
        #: tasks sitting in a retry-backoff timer (failure seen, not yet
        #: re-enqueued); part of the shutdown drain condition.
        self._retry_limbo = 0
        #: service-tier hook: called as ``on_app_finished(app)`` after an
        #: application's completion bookkeeping (normal finish, cancel, or
        #: failure).  The serve driver uses it for response-time accounting
        #: and to release admission hold queues; plain state mutation plus
        #: (pre-seal) re-submission only, so the hook composes with the
        #: drain condition instead of racing it.  ``None`` costs one test.
        self.on_app_finished: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Spawn the daemon and one worker thread per PE."""
        if self._started:
            raise RuntimeError("runtime already started")
        self._started = True
        self.counters.watch_timers(self.engine)
        for pe in self.platform.pes:
            self.mailboxes[pe.index] = EventQueue(self.engine)
            self.inflight[pe.index] = 0
        self.daemon_thread = self.engine.spawn(
            self._daemon_body(), name="cedr-daemon", affinity=self.platform.runtime_core
        )
        self.counters.watch_thread(self.daemon_thread, "daemon")
        for pe in self.platform.pes:
            affinity = pe.core if pe.kind is PEKind.CPU else pe.host_core
            worker = self.engine.spawn(
                worker_body(self, pe), name=f"worker-{pe.name}", affinity=affinity
            )
            self.counters.watch_thread(worker, "worker")
        if self.faults is not None:
            self.faults.arm()

    def submit(self, app: AppInstance, at: float) -> None:
        """Schedule *app* to arrive over IPC at simulated time ``at``.

        Open-stream submissions (the service tier, trace replays, releases
        from an admission hold queue) may pass an ``at`` that is already in
        the past.  Those are admitted *now* through the engine's
        clamp-to-now timer path: the arrival fires at the current instant,
        strictly **after** any arrival already scheduled at that instant
        (timers pop in ``(when, seq)`` order, and a clamped timer gets a
        fresh seq) - so late submissions never jump ahead of same-instant
        work, and submission order is preserved among them.  Every clamp is
        counted in ``engine.late_timers`` and, with telemetry on, the
        ``simcore_late_timers_total`` metric (pinned by the late-submit
        regression tests).
        """
        if self._sealed:
            raise RuntimeError("runtime already sealed; no further submissions")
        if app.timing_only and self.config.execute_kernels:
            raise TimingOnlyAppError(app.name)
        self._submitted += 1
        self.apps[app.app_id] = app

        def _arrive(app=app) -> None:
            app.t_arrival = self.engine.now
            self.events.post(("arrival", app))

        self.engine.call_at(at, _arrive)

    def seal(self) -> None:
        """Declare the workload complete: the daemon shuts down once every
        submitted application has finished (the shutdown IPC command)."""
        self._sealed = True
        # Wake the daemon in case everything already completed.
        self.events.post(("kick", None))

    def cancel(self, app: AppInstance, at: float) -> None:
        """Schedule the kill IPC command for *app* at simulated time ``at``.

        Supported for DAG-mode applications (CEDR's kill drops a submitted
        DAG): the app's queued-but-unscheduled tasks are discarded, no
        further successors are released, and the application terminates
        immediately; tasks already handed to workers run to completion
        harmlessly.  API-mode applications run on their own thread and
        cannot be killed mid-call in this reproduction.
        """
        if app.mode != DAG_MODE:
            raise ValueError(
                f"cancel() supports DAG-mode applications only; "
                f"{app.name}#{app.app_id} is {app.mode}-mode"
            )
        if app.app_id not in self.apps:
            raise KeyError(f"app {app.app_id} was never submitted to this runtime")
        self.engine.call_at(at, lambda: self.events.post(("cancel", app)))

    def run(self, until: Optional[float] = None) -> float:
        """Convenience: run the engine to completion; returns final time.

        Also accounts host wall-clock time against the perf counters so
        ``counters.events_per_wall_sec`` reports simulator throughput.
        """
        t0 = time.perf_counter()
        try:
            final_time = self.engine.run(until=until)
        finally:
            self.counters.record_run(
                time.perf_counter() - t0, self.engine.events_processed
            )
            self.counters.record_event_core(self.engine.event_core_stats())
        if self.config.audit and self._drained:
            # the daemon drained cleanly: fold the invariant catalog over
            # the book (raises AuditError on damage)
            from repro.audit import OnlineAuditor

            OnlineAuditor.final_check(self)
        return final_time

    # ------------------------------------------------------------------ #
    # surfaces used by workers / application threads
    # ------------------------------------------------------------------ #

    def post(self, event: tuple[str, Any]) -> None:
        """Producer-side event submission (plain call, no sim cost)."""
        self.events.post(event)

    def push_ready_from_app(self, task: Task) -> None:
        """API mode: the application thread pushes its task directly into
        the ready queue (paper: 'pushing tasks to the ready queue ... is
        handled by the application thread').  The libCEDR submit path has
        stamped the task's cost row; one that arrives unstamped is interned
        by the round that schedules it."""
        task.state = _READY
        task.t_release = self.engine.now
        self.ready.append(task)

    def sample_noise(self) -> float:
        """Multiplicative execution-time jitter for one task part."""
        if self.noise_rng is None or self._noise_sigma <= 0.0:
            return 1.0
        return float(np.exp(self.noise_rng.normal(0.0, self._noise_sigma)))

    def intern_shape(self, api: str, params) -> tuple[int, float]:
        """Intern one ``(api, params)`` shape: ``(cost-table row id, mean
        execution estimate over supporting PEs)``.

        The profiling-table lookup a task pays once, at creation: the row id
        is stamped on the task (``cost_row``/``cost_token``) and the mean -
        computed with the row - seeds its HEFT_RT rank.
        """
        row = self.cost_table.row(api, params)
        mean = self.cost_table.row_mean(row)
        if mean is None:
            raise ValueError(
                f"no PE supports API {api!r} on {self.platform.config.name}"
            )
        return row, mean

    # ------------------------------------------------------------------ #
    # daemon internals
    # ------------------------------------------------------------------ #

    def _charge(self, us: float) -> Compute:
        """One runtime-overhead bookkeeping step on the runtime core.

        The costs are a handful of constants, so the request for each
        distinct ``us`` is built (and validated) once and shared.
        """
        request = self._charges.get(us)
        if request is None:
            request = self._charges[us] = Compute(us * self.cost_scale * 1e-6)
        self.metrics.runtime_overhead_s += request.work
        return request

    def _daemon_body(self) -> Generator[Request, Any, None]:
        while True:
            batch = yield from self.events.get_batch()
            for kind, payload in batch:
                # the two per-task kinds first: a completion, and the
                # doorbell every libCEDR call rings
                if kind == "task_done":
                    yield from self._handle_task_done(payload)
                elif kind == "kick":
                    pass  # doorbell: fall through to the scheduling round
                elif kind == "arrival":
                    yield from self._handle_arrival(payload)
                elif kind == "app_done":
                    yield from self._handle_app_done(payload)
                elif kind == "cancel":
                    yield from self._handle_cancel(payload)
                elif kind == "task_failed":
                    yield from self._handle_task_failed(payload)
                elif kind == "watchdog":
                    yield from self._handle_watchdog(payload)
                elif kind == "retry":
                    yield from self._handle_retry(payload)
                elif kind == "pe_dead":
                    yield from self._handle_pe_dead(payload)
                elif kind == "pe_revive":
                    self._handle_pe_revive(payload)
                else:
                    raise SimStateError(f"unknown daemon event {kind!r}")
            # Scheduling rounds are periodic (sched_period_s): tasks batch up
            # between rounds, so the heuristic sees realistic queue depths.
            # When the period has not elapsed yet, a timer forces the next
            # round via the _round_due flag (a flag, not a float comparison:
            # (last + period) - last rounds below period in binary floating
            # point, which would re-arm the timer at the same instant
            # forever).
            period = self.config.sched_period_s
            while self.ready and (
                self._round_due or self.engine.now - self._last_round_at >= period
            ):
                self._round_due = False
                self._last_round_at = self.engine.now
                yield from self._schedule_round()
            if self.ready and not self._round_timer_pending:
                self._round_timer_pending = True

                def _on_round_timer() -> None:
                    self._round_timer_pending = False
                    self._round_due = True
                    self.events.post(("kick", None))

                self.engine.call_at(
                    max(self.engine.now, self._last_round_at + period), _on_round_timer
                )
            if (
                self._sealed
                and self._completed == self._submitted
                and not self._work_in_flight()
                and self._retry_limbo == 0
                and not self._parked
            ):
                # all apps accounted for AND the workers are drained (a
                # killed app's in-flight tasks still produce task_done
                # events the logs must absorb before shutdown) AND no task
                # is sitting in a retry-backoff timer or parked awaiting a
                # PE revival - a fault on the final task of an app must be
                # retried to completion, not abandoned at shutdown
                break
        if self.faults is not None:
            # Stop the infinite per-PE fault streams: without this the
            # one-timer-ahead chain keeps the engine's timer heap populated
            # forever and the simulation never terminates.
            self.faults.disarm()
        self._shutdown_workers()
        now = self.metrics.makespan = self.engine.now
        book = self.logbook
        book.late_timers = list(self.engine.late_at)
        sched = 0.0
        for row in book.rounds:
            sched += row[2]  # a plain loop: sum() is compensated from 3.12
        self.metrics.sched_overhead_s = sched
        if self.config.telemetry:
            self.telemetry = CedrTelemetry.fold(
                book, self.config.telemetry, [pe.name for pe in self.platform.pes], now
            )
        # Idle-poll accounting: the main loop spins whenever it is not doing
        # bookkeeping or scheduling.  The runtime core is reserved, so this
        # changes no thread's timing - only the overhead measurement - and
        # can be charged analytically instead of as simulated events.
        idle = max(0.0, self.metrics.makespan - self.platform.runtime_core.delivered)
        self.metrics.runtime_overhead_s += self.config.costs.idle_poll_duty * idle
        self._drained = True

    def _handle_arrival(self, app: AppInstance) -> Generator[Request, Any, None]:
        costs = self.config.costs
        yield self._charge(costs.ipc_receive_us)
        yield self._charge(costs.so_parse_us)
        self.logbook.open_app(app)
        if app.mode == DAG_MODE:
            yield self._charge(
                costs.dag_parse_base_us + costs.dag_parse_per_node_us * app.dag.n_nodes
            )
            tasks, heads, state = app.dag.instantiate(app.app_id, app.initial_state)
            app.state = state
            app.tasks_total = len(tasks)
            self._assign_dag_ranks(app.dag, tasks)
            app.t_launch = self.engine.now
            for task in heads:
                task.state = _READY
                task.t_release = self.engine.now
                self.ready.append(task)
                yield self._charge(costs.queue_push_us)
        else:
            yield self._charge(costs.app_launch_us)
            app.t_launch = self.engine.now
            thread = self.engine.spawn(self._app_thread(app), name=f"app-{app.app_id}-{app.name}")
            self.counters.watch_thread(thread, "app")

    def _assign_dag_ranks(self, program: "DagProgram", tasks: list[Task]) -> None:
        """Stamp ``cost_row`` / ``cost_token`` / ``rank`` on one instance.

        Rows and upward ranks depend on the program and the cost table
        only, so the program's first arrival interns its shapes (in
        topological order, which fixes the row ids) and ranks the graph;
        later instances are stamped from that plan.
        """
        token = self.cost_table.token
        plan = self._dag_plans.get(id(program))
        if plan is None or plan[1] != token:
            means: dict[Task, float] = {}
            rows = []
            for task in tasks:
                row, means[task] = self.intern_shape(task.api, task.params)
                rows.append(row)
            ranks = upward_ranks(tasks, means.__getitem__)
            plan = (program, token, [(row, ranks[task]) for row, task in zip(rows, tasks)])
            self._dag_plans[id(program)] = plan
        for task, (row, rank) in zip(tasks, plan[2]):
            task.cost_row = row
            task.cost_token = token
            task.rank = rank

    def _app_thread(self, app: AppInstance) -> Generator[Request, Any, None]:
        # Imported here: repro.core builds on the runtime package, so a
        # module-level import would be circular.
        from repro.core.api import CedrClient

        client = CedrClient(self, app)
        try:
            app.result = yield from app.main_factory(client)
        except TaskLostError:
            # one of this app's tasks exhausted its retry budget; the
            # daemon already marked the app failed and settled the
            # outstanding handles - the thread just unwinds and terminates
            pass
        self.post(("app_done", app))

    def _handle_cancel(self, app: AppInstance) -> Generator[Request, Any, None]:
        """The kill IPC command: drop the app's queued work, terminate it."""
        costs = self.config.costs
        if app.finished:
            return  # lost the race with normal completion: no-op
        survivors = []
        for task in self.ready:
            if task.app_id == app.app_id:
                yield self._charge(costs.queue_pop_us)  # unlink from queue
            else:
                survivors.append(task)
        self.ready = survivors
        if self._parked:
            self._parked = [t for t in self._parked if t.app_id != app.app_id]
        app.cancelled = True
        yield from self._finish_app(app)

    def _handle_task_done(self, task: Task) -> Generator[Request, Any, None]:
        costs = self.config.costs
        yield self._charge(costs.queue_pop_us)
        app = self.apps[task.app_id]
        app.tasks_done += 1
        if self.faults is not None and task.t_first_failure >= 0.0:
            # the task failed earlier and has now completed successfully:
            # one recovery, measured first-failure -> completion
            now = self.engine.now
            self.logbook.record_incident(
                now, "recovery", tid=task.tid, seconds=now - task.t_first_failure
            )
        if app.cancelled or app.failed:
            return  # straggler from a killed/failed app: log-only
        if app.mode == DAG_MODE:
            for succ in task.successors:
                yield self._charge(costs.dep_update_us)
                succ.n_deps -= 1
                if succ.n_deps == 0:
                    succ.state = _READY
                    succ.t_release = self.engine.now
                    self.ready.append(succ)
                    yield self._charge(costs.queue_push_us)
            if app.tasks_done == app.tasks_total:
                yield from self._finish_app(app)

    def _handle_app_done(self, app: AppInstance) -> Generator[Request, Any, None]:
        yield from self._finish_app(app)

    def _finish_app(self, app: AppInstance) -> Generator[Request, Any, None]:
        yield self._charge(self.config.costs.app_terminate_us)
        app.t_finish = self.engine.now
        self.logbook.close_app(app)
        self._completed += 1
        if self.on_app_finished is not None:
            self.on_app_finished(app)

    def _schedule_round(self) -> Generator[Request, Any, None]:
        batch, self.ready = self.ready, []
        if self.faults is not None:
            batch = yield from self._filter_schedulable(batch)
            if not batch:
                return
        pes = self.platform.pes
        cost = self.scheduler.round_cost(len(batch), len(pes))
        t_begin = self.engine.now
        if cost > 0.0:
            # a round's cost is a function of (depth, PE count), so the
            # request for each distinct cost is built once and shared
            request = self._round_charges.get(cost)
            if request is None:
                request = self._round_charges[cost] = Compute(cost)
            yield request
        # Rebuild each PE's expected-free instant from its outstanding
        # backlog, scaled by the contention slowdown observed on completed
        # tasks - the runtime analogue of CEDR consulting its execution-time
        # profiles plus the live queue state.
        now = self.engine.now
        for pe in pes:
            pe.expected_free = now + pe.outstanding_est * pe.slowdown
        assignments = self.scheduler.schedule(batch, pes, now, self.cost_table)
        if len(assignments) != len(batch):
            raise _breach(
                "queue-accounting",
                f"scheduler returned {len(assignments)} assignments for a "
                f"ready batch of {len(batch)} - tasks were dropped or invented",
                t=now,
            )
        self.logbook.record_round(
            now, len(batch), cost, t_begin, [task.t_release for task, _ in assignments]
        )
        for task, pe in assignments:
            task.state = _SCHEDULED
            task.t_scheduled = now
            task.est_used = est = self.cost_table.lookup(task, pe.index)
            if est == _INF:
                raise _breach(
                    "pe-support",
                    f"scheduler assigned {task.name} ({task.api}) to "
                    f"{pe.name} ({pe.kind.value}), which does not support it",
                    tid=task.tid, pe=pe.name, t=now,
                )
            pe.outstanding_est += est
            if self.faults is None:
                self.mailboxes[pe.index].post(task)
            else:
                if not pe.available:
                    raise _breach(
                        "pe-support",
                        f"scheduler assigned {task.name} to {pe.name} while "
                        f"it is {'dead' if pe.dead else 'quarantined'} "
                        f"(quarantine epoch {pe.quarantine_epoch})",
                        tid=task.tid, pe=pe.name, t=now,
                    )
                # epoch-stamped dispatch: the worker compares its stamp
                # against task.dispatch_epoch to detect invalidation, and
                # the watchdog deadline covers queue wait + execution
                task.pe = pe
                task.dispatch_epoch += 1
                self.mailboxes[pe.index].post((task, task.dispatch_epoch))
                if task.attempts > 0:
                    self.logbook.record_incident(
                        now, "redispatch", pe=pe.name, tid=task.tid, attempt=task.attempts
                    )
                self._arm_watchdog(task, pe)

    # ------------------------------------------------------------------ #
    # fault detection + recovery (active only with a fault model armed)
    # ------------------------------------------------------------------ #

    def _filter_schedulable(self, batch: list[Task]) -> Generator[Request, Any, list[Task]]:
        """Partition a ready batch against the live PE mask.

        Tasks of cancelled/failed apps are dropped, tasks with no live
        candidate PE are parked until a revival, tasks whose every
        supporting PE is dead are lost outright.  Only tasks with at least
        one live candidate reach the scheduling heuristic - which is what
        lets the schedulers' ``live_columns`` treat an all-unavailable
        candidate set as a runtime bug.
        """
        pes = self.platform.pes
        table = self.cost_table
        runnable: list[Task] = []
        for task in batch:
            app = self.apps[task.app_id]
            if app.cancelled or app.failed:
                self._drop_task(task)
                continue
            # the PEs that can run the task are its interned row's columns
            _, cols = table.scalar_row(task)
            if any(pes[j].available for j in cols):
                runnable.append(task)
            elif any(not pes[j].dead for j in cols):
                self._parked.append(task)
            else:
                yield from self._task_lost(task)
        # a lost task fails its whole application, which may invalidate
        # batch-mates already deemed runnable above
        out: list[Task] = []
        for task in runnable:
            app = self.apps[task.app_id]
            if app.cancelled or app.failed:
                self._drop_task(task)
            else:
                out.append(task)
        return out

    def _arm_watchdog(self, task: Task, pe: PE) -> None:
        """Per-dispatch deadline: expected drain + grace + factor x estimate.

        The slack doubles with every retry the task has already consumed:
        a deadline miss is only a *suspicion* of failure, and a task that
        keeps missing escalating deadlines is far more likely queued behind
        genuinely degraded PEs than hung itself - geometric patience keeps
        false positives from exhausting the retry budget while still
        detecting real hangs quickly on the first dispatch.
        """
        cfg = self.faults.config
        slack = (
            cfg.watchdog_grace_s
            + cfg.watchdog_factor * task.est_used * max(1.0, pe.slowdown)
        )
        deadline = (
            max(pe.expected_free, self.engine.now)
            + slack * (1 << min(task.attempts, 8))
        )
        epoch = task.dispatch_epoch
        self.engine.call_at(
            deadline, lambda: self.events.post(("watchdog", (task, epoch)))
        )

    def _handle_task_failed(self, payload: tuple) -> Generator[Request, Any, None]:
        """A worker detected a failed attempt (transient/hang/fail-stop)."""
        task, pe, epoch, kind = payload
        yield self._charge(self.config.costs.queue_pop_us)
        if task.dispatch_epoch != epoch or task.state is _DONE:
            # the watchdog got here first and already re-dispatched
            self.logbook.record_incident(
                self.engine.now, "stale", pe=pe.name, tid=task.tid
            )
            return
        yield from self._recover(task, pe, kind)

    def _handle_watchdog(self, payload: tuple) -> Generator[Request, Any, None]:
        """A per-dispatch deadline expired; recover unless already settled."""
        task, epoch = payload
        if task.dispatch_epoch != epoch or task.state not in (_SCHEDULED, _RUNNING):
            return  # completed, failed, or re-dispatched in time: benign
        yield self._charge(self.config.costs.queue_pop_us)
        if task.dispatch_epoch != epoch or task.state not in (_SCHEDULED, _RUNNING):
            # The charge above is simulated time: the worker can complete
            # (or fail) the very dispatch this deadline suspects while the
            # daemon pays the queue-pop cost.  Recovering anyway would arm
            # a retry for a settled task and complete it twice once the
            # dispatch loop re-stamps its state.  Found by corpus spec
            # c0266248427d (rr + transient faults); _handle_task_failed is
            # immune because it charges before its guard.
            return
        pe = task.pe
        # invalidate the in-flight/queued dispatch: the worker holding the
        # stale epoch discards silently, and this side reclaims the backlog
        task.dispatch_epoch += 1
        if pe is not None:
            pe.outstanding_est = max(0.0, pe.outstanding_est - task.est_used)
        yield from self._recover(task, pe, "watchdog")

    def _recover(self, task: Task, pe: Optional[PE], kind: str) -> Generator[Request, Any, None]:
        """Shared failure tail: quarantine the PE, then retry or give up."""
        cfg = self.faults.config
        now = self.engine.now
        self.logbook.record_incident(
            now, "failure", kind, pe=pe.name if pe is not None else "", tid=task.tid
        )
        if task.t_first_failure < 0.0:
            task.t_first_failure = now
        if pe is not None and not pe.dead and kind != "watchdog":
            # Quarantine only on worker-confirmed faults.  A watchdog expiry
            # is a suspicion - most often a task queued behind a hung or
            # slowed PE - and pulling a merely-busy PE out of the live mask
            # shrinks capacity exactly when the backlog is worst, cascading
            # further deadline misses.  The re-dispatch already bans the
            # suspect PE for this task, which is enough to route around it.
            self._quarantine(pe)
        app = self.apps[task.app_id]
        if app.cancelled or app.failed:
            self._drop_task(task)
            return
        if task.attempts >= cfg.max_retries:
            yield from self._task_lost(task)
            return
        task.attempts += 1
        self.logbook.record_incident(now, "retry", tid=task.tid, attempt=task.attempts)
        if cfg.exclude_failed_pe and pe is not None:
            task.banned_pes = task.banned_pes | frozenset((pe.index,))
        task.state = _CREATED  # retry limbo until the backoff fires
        self._retry_limbo += 1
        self.engine.call_at(
            now + cfg.backoff(task.attempts),
            lambda: self.events.post(("retry", task)),
        )

    def _handle_retry(self, task: Task) -> Generator[Request, Any, None]:
        """Backoff elapsed: re-enqueue the task for the next round."""
        self._retry_limbo -= 1
        app = self.apps[task.app_id]
        if app.cancelled or app.failed:
            self._drop_task(task)
            return
        yield self._charge(self.config.costs.queue_push_us)
        task.state = _READY
        task.t_release = self.engine.now
        self.ready.append(task)
        self._round_due = True

    def _quarantine(self, pe: PE) -> None:
        """Pull *pe* out of the live mask; revive after ``quarantine_s``."""
        cfg = self.faults.config
        pe.quarantine_epoch += 1
        epoch = pe.quarantine_epoch
        if pe.available:
            pe.available = False
            self.logbook.record_incident(self.engine.now, "quarantine", pe=pe.name)
        self.engine.call_at(
            self.engine.now + cfg.quarantine_s,
            lambda: self.events.post(("pe_revive", (pe, epoch))),
        )

    def _handle_pe_revive(self, payload: tuple) -> None:
        pe, epoch = payload
        if pe.dead or pe.quarantine_epoch != epoch:
            return  # died meanwhile, or re-quarantined (newer timer owns it)
        if not pe.available:
            pe.available = True
            self.logbook.record_incident(self.engine.now, "revival", pe=pe.name)
        if self._parked:
            # parked tasks get another shot now that the mask grew back
            self.ready.extend(self._parked)
            self._parked = []
            self._round_due = True

    def _handle_pe_dead(self, pe: PE) -> Generator[Request, Any, None]:
        """A fail-stop fault landed; re-triage every parked task."""
        parked, self._parked = self._parked, []
        pes = self.platform.pes
        for task in parked:
            app = self.apps[task.app_id]
            if app.cancelled or app.failed:
                self._drop_task(task)
                continue
            _, cols = self.cost_table.scalar_row(task)
            if any(not pes[j].dead for j in cols):
                self._parked.append(task)
            else:
                yield from self._task_lost(task)

    def _task_lost(self, task: Task) -> Generator[Request, Any, None]:
        """Retry budget exhausted (or no PE left): fail the application.

        The app's still-queued sibling tasks are dropped with their handles
        settled, so an API-mode application thread blocked anywhere in its
        call sequence wakes up, observes :class:`TaskLostError`, and
        unwinds; DAG-mode applications terminate immediately.
        """
        app = self.apps[task.app_id]
        if app.cancelled or app.failed or app.finished:
            self._drop_task(task)
            return
        self.logbook.record_incident(self.engine.now, "lost", tid=task.tid)
        app.failed = True
        costs = self.config.costs
        error = TaskLostError(
            f"task {task.tid} ({task.api}:{task.name}) of app "
            f"{app.name}#{app.app_id} lost after {task.attempts} retries"
        )
        dropped = [t for t in self.ready if t.app_id == app.app_id]
        self.ready = [t for t in self.ready if t.app_id != app.app_id]
        dropped.extend(t for t in self._parked if t.app_id == app.app_id)
        self._parked = [t for t in self._parked if t.app_id != app.app_id]
        for t in dropped:
            yield self._charge(costs.queue_pop_us)
            if t.completion is not None and not t.completion.done:
                t.completion.fail(error)
        if app.mode == DAG_MODE:
            yield from self._finish_app(app)
        elif task.completion is not None and not task.completion.done:
            # wake the application thread wherever it blocks; _app_thread
            # catches the raise and posts app_done
            task.completion.fail(error)

    def _drop_task(self, task: Task) -> None:
        """Drop a task of a cancelled/failed app, settling any open handle."""
        if task.completion is not None and not task.completion.done:
            task.completion.fail(
                TaskLostError(
                    f"task {task.tid} ({task.api}:{task.name}) dropped: "
                    f"application {task.app_id} was cancelled or failed"
                )
            )

    def _work_in_flight(self) -> bool:
        """Tasks still queued at or executing on any worker."""
        return any(
            self.inflight[pe.index] > 0 or len(self.mailboxes[pe.index]) > 0
            for pe in self.platform.pes
        )

    def _shutdown_workers(self) -> None:
        for pe in self.platform.pes:
            self.mailboxes[pe.index].post(SHUTDOWN)
