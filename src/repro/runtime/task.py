"""Task descriptor: CEDR's schedulable unit of computation.

A task is one invocation of a libCEDR API (``fft``, ``zip``, ``gemm``, ...)
or, in DAG mode only, a ``cpu_op`` region of non-accelerable application
code.  The runtime's heterogeneous dispatch works exactly as the paper
describes: the task itself is implementation-agnostic, and when the
scheduler maps it to a PE the worker resolves the concrete function through
the (API, PE kind) registry - the "dynamically updates that task's function
pointer" step of Section II-A.

Tasks double as the synchronization anchor for API mode: a
:class:`CompletionHandle` is the Fig.-4 condition the application thread
sleeps on and the worker signals.
"""

from __future__ import annotations

import enum
from copy import copy
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Optional

from repro.simcore import Block, Request, SimStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms import PE
    from repro.simcore import Engine, SimThread

__all__ = ["TaskState", "Task", "CompletionHandle"]

#: what a waiter yields in :meth:`CompletionHandle.wait`; a ``Block``
#: carries no state, so every wait shares this one
_WAIT = Block()


class TaskState(enum.Enum):
    CREATED = "created"      # built but dependencies outstanding (DAG mode)
    READY = "ready"          # in the ready queue awaiting a scheduling round
    SCHEDULED = "scheduled"  # assigned to a PE's worker mailbox
    RUNNING = "running"      # executing on its PE
    DONE = "done"


class CompletionHandle:
    """The Fig.-4 synchronization point of one blocking/non-blocking call.

    The application thread creates the handle before dispatch and sleeps in
    :meth:`wait`; the executing worker thread fires :meth:`complete`, which
    stores the result and wakes every waiter after ``signal_latency``
    simulated seconds (the futex-wake cost of ``pthread_cond_signal``).

    This *is* the mutex/condvar pair of the paper, with the parts that can
    never act removed.  The pair's mutex was only ever held between two
    points of one dispatch - ``wait`` released it before parking, and
    ``complete`` took, signalled and released it without yielding - and the
    simulator runs one dispatch at a time, so no ``acquire`` could ever find
    it held: it ordered nothing and cost no simulated event.  What remains
    is the condvar's observable behaviour: a FIFO waiter list, one ``Block``
    per sleeping waiter, and one latency timer per waiter scheduled in FIFO
    order when the handle settles.  ``tests/runtime/reference_handle.py``
    keeps the literal ``Mutex`` + ``Condition`` form and the suite requires
    both to produce identical runs, event for event.
    """

    __slots__ = (
        "engine", "signal_latency", "done", "result", "error", "_waiters", "_watchers",
        "call",
    )

    def __init__(self, engine: "Engine", signal_latency: float = 0.0) -> None:
        self.engine = engine
        #: simulated seconds between settling and a waiter becoming runnable
        self.signal_latency = signal_latency
        self.done = False
        self.result: Any = None
        #: set instead of ``result`` when the runtime declares the task
        #: lost (retry budget exhausted); :meth:`wait` raises a copy of it on
        #: the application thread, so this one never holds the thread's frames.
        self.error: Optional[BaseException] = None
        self._waiters: list["SimThread"] = []
        #: settle callbacks (plain callables, no simulated cost) fired once
        #: when the handle completes or fails - the hook behind
        #: :func:`repro.core.handles.wait_any`.
        self._watchers: list[Callable[[], None]] = []
        #: a non-blocking libCEDR call's ``(record_call, columns)``: settling
        #: records the call's row with ``t_done`` = now.
        self.call: Optional[tuple[Callable, tuple]] = None

    def add_watcher(self, callback: Callable[[], None]) -> None:
        """Invoke *callback* once when the handle settles (now if it has).

        Watchers run synchronously inside :meth:`complete`/:meth:`fail` on
        the settling thread; they must be plain state mutation (wake a
        blocked thread, bump a counter) and never block.
        """
        if self.done:
            callback()
        else:
            self._watchers.append(callback)

    def wait(self) -> Generator[Request, Any, Any]:
        """Block until :meth:`complete` or :meth:`fail` fires.

        Returns the task result, or raises the failure exception on the
        *waiting* thread - CEDR's error path surfaces where the
        application blocks, not inside the daemon.  Idempotent: waiting on
        an already-settled handle returns (or re-raises) at once.
        """
        while not self.done:
            me = self.engine.current
            if me is None:
                raise SimStateError(
                    "CompletionHandle.wait may only be used from inside a simulated thread"
                )
            self._waiters.append(me)
            yield _WAIT
        if self.error is not None:
            raise copy(self.error)
        return self.result

    def complete(self, result: Any) -> None:
        """Worker-side: publish *result* and wake the waiting app thread."""
        self.result = result
        self._settle()

    def fail(self, error: BaseException) -> None:
        """Daemon-side: settle the handle with *error* and wake the waiter."""
        self.error = error
        self._settle()

    def _settle(self) -> None:
        """Wake the waiters (FIFO, each after the signal latency), then fire
        the watchers - the order ``notify_all`` then ``_fire_watchers`` had,
        so the timer sequence numbers are the condvar's."""
        self.done = True
        waiters = self._waiters
        if waiters:
            self._waiters = []
            engine = self.engine
            latency = self.signal_latency
            for waiter in waiters:
                if latency > 0.0:
                    # the instant call_at(now + latency) would push, without
                    # its late-instant check: this one is never in the past
                    engine._schedule_timer(latency, partial(engine.wake, waiter))
                else:
                    engine.wake(waiter)
        call = self.call
        if call is not None:
            record_call, columns = call
            record_call(*columns, self.engine.now)
        watchers = self._watchers
        if watchers:
            self._watchers = []
            for callback in watchers:
                callback()


@dataclass(slots=True, eq=False)
class Task:
    """One schedulable unit plus its lifecycle bookkeeping.

    ``params`` feeds the timing model (e.g. ``{"n": 1024, "batch": 32}``);
    ``payload`` is the functional input (ndarray or tuple of ndarrays) when
    kernels actually execute, or ``None`` in timing-only runs.  DAG-mode
    tasks carry dataflow through the per-app ``state`` dict via
    ``input_keys``/``output_key`` or an arbitrary ``cpu_fn``.

    Slotted: one is built per kernel call and read on every hop of its
    lifecycle, so it takes no attribute beyond the fields below.  A task
    is its own identity (``eq=False``): it hashes and compares by object.
    """

    api: str
    params: Mapping[str, float]
    app_id: int
    name: str = ""
    payload: Any = None
    #: DAG mode: keys of the app state dict this node reads / writes.
    input_keys: tuple[str, ...] = ()
    output_key: Optional[str] = None
    #: DAG mode cpu_op nodes: arbitrary state -> None callable.
    cpu_fn: Optional[Callable[[dict], Any]] = None
    #: DAG wiring (successor tasks and unmet-dependency count).
    successors: list["Task"] = field(default_factory=list)
    n_deps: int = 0
    #: API mode completion signalling.
    completion: Optional[CompletionHandle] = None

    #: HEFT_RT priority: upward rank in DAG mode, mean execution estimate
    #: for API-mode calls (set at parse/enqueue time).
    rank: float = 0.0
    #: interned row id in the runtime's columnar
    #: :class:`~repro.platforms.timing.CostTable`; ``-1`` until interned.
    cost_row: int = -1
    #: the task id its runtime issued, dense from 0 in creation order;
    #: ``-1`` for a task no runtime built.
    tid: int = -1
    #: execution estimate used when this task was assigned to its PE
    #: (drives the PE's outstanding-backlog accounting).
    est_used: float = 0.0

    state: TaskState = TaskState.CREATED
    pe: Optional["PE"] = None
    result: Any = None

    # -- fault-recovery bookkeeping (repro.faults); inert without faults -- #
    #: completed retry attempts so far (0 = first dispatch).
    attempts: int = 0
    #: PE indices this task already failed on; the schedulers' shared
    #: filter (``repro.sched.base.live_columns``) avoids them unless that
    #: would leave no candidate at all.
    banned_pes: frozenset[int] = frozenset()
    #: bumped by the daemon at every dispatch; a worker holding a copy with
    #: an older epoch knows its dispatch was invalidated (watchdog fired or
    #: the task was re-dispatched) and must discard silently.
    dispatch_epoch: int = 0
    #: simulated instant of the first failure, for the mean-time-to-recovery
    #: metric; negative until the task first fails.
    t_first_failure: float = -1.0

    # lifecycle timestamps (simulated seconds)
    t_release: float = 0.0
    t_scheduled: float = 0.0
    t_start: float = 0.0
    t_finish: float = 0.0

    @property
    def queue_wait(self) -> float:
        """Seconds spent in the ready queue before being scheduled."""
        return self.t_scheduled - self.t_release

    @property
    def service_time(self) -> float:
        """Seconds from worker pickup to completion."""
        return self.t_finish - self.t_start

    def add_successor(self, succ: "Task") -> None:
        """Record a DAG edge self -> succ (bumps succ's dependency count)."""
        self.successors.append(succ)
        succ.n_deps += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.tid} {self.api}:{self.name} app={self.app_id} {self.state.value}>"
