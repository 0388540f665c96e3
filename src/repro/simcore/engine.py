"""Event-driven simulation engine with processor-sharing cores.

The engine owns the virtual clock, the pending-timer heap, the set of CPU
cores, and a dispatch queue of threads runnable *right now*.  Its one main
loop (:meth:`Engine.run`) alternates:

1. **Dispatch** - resume every ready thread at the current instant, handling
   the request each one yields (compute, sleep, block, device acquire;
   ``Compute`` and ``Block`` inline, the other two in :meth:`_dispatch_slow`).
   Dispatching may make further threads ready at the same instant (condition
   signals, device grants), so this phase drains to a fixed point.
2. **Advance** - jump the clock to the next event: either a timer or the
   earliest compute-segment completion given current processor sharing, then
   credit the elapsed interval to every active core.  Every timer due at the
   reached instant fires in one batched drain (timers chained at the same
   instant from inside a callback join the same drain) before any woken
   thread dispatches.
3. **Resume** - threads whose compute segment completed in the advance are
   re-dispatched inline, in ``(finish, seq)`` order per core with cores in
   index order, skipping the ready-deque round trip.

What keeps all three amortized O(1) per event at million-task scale
(docs/INTERNALS.md, "The engine loop"):

* timers live in one :mod:`heapq` list of ``(when, seq, callback)``
  tuples; the loop reads the head ``when`` directly.  The workloads hold a
  handful of pending timers (4 on ``serve_knee``, 82 on ``faulty_jetson``
  at most), where a bare heap push + pop is cheaper than a bucketed wheel;
* the engine caches each core's absolute earliest-completion instant in
  one list, and a core pushes its position onto the engine's dirty list
  when its composition or rate changes, so only those cores are re-read,
  with the per-thread rate memoized per occupancy ``k`` in the core's
  ``_memo`` (it caches *results* of :meth:`Core.share_rate`, never a
  second formula) and kept in ``Core._rate`` for the advance, which then
  costs one multiply per occupied core;
* each core's pending list is *unordered* with mutable-list entries:
  admissions are plain appends, the head lives in ``Core._head``, a drain
  sorts once before consuming due entries (sorted order IS heap-pop order
  because ``(finish, seq)`` keys are unique), and a popped entry is reused
  in place for the thread's next segment.  One engine-wide sequence
  counter preserves the FIFO tie-break.  This is the cores' only form, in
  and out of ``run()``: ``run(until=t)`` stops by clamping the next
  instant to ``t`` and taking the same advance.

Observability contract: *mid-batch*, a thread between completion and
re-dispatch keeps ``state == RUNNING`` and its ``_on_core`` pointer instead
of bouncing through ``READY``/``None``; sibling threads resumed in the same
batch therefore see each other pre-, not post-, pop.  Every completion's
``cpu_time`` credit still lands before any timer fires or thread resumes,
and state at every exit is exact.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from math import inf, isnan
from typing import Any, Callable, Generator, Optional, Sequence

from .cores import WORK_EPSILON, Core, Device
from .errors import SimDeadlock, SimStateError, SimTimeError
from .process import (
    AcquireDevice,
    Block,
    Compute,
    Request,
    Sleep,
    SimThread,
    ThreadState,
)

__all__ = ["Engine"]

#: same-instant tolerance: timers within this window of the reached instant
#: fire in the current drain (absorbs float round-off between a completion
#: instant and a timer deadline computed from the same arithmetic).
_INSTANT_EPSILON = 1e-15

# thread states, bound once: on CPython 3.11 a member read through its enum
# class is a metaclass lookup, tens of times dearer than a module global,
# and wake() runs once per park
_READY, _RUNNING, _SLEEPING, _BLOCKED, _FINISHED = (
    ThreadState.READY, ThreadState.RUNNING, ThreadState.SLEEPING, ThreadState.BLOCKED,
    ThreadState.FINISHED,
)


def _core_index(core: Core) -> int:
    return core.index


class Engine:
    """Discrete-event simulator for threads over processor-sharing cores.

    Parameters
    ----------
    cores:
        Either an integer (that many unit-speed cores are created) or a
        sequence of pre-built :class:`Core` objects.
    seed:
        The run's seed (>= 0).  The engine draws nothing from it; the
        subsystems that randomise (cost noise, unpinned faults) key their
        ``child_rng`` streams on it, so a run reproduces bit-for-bit.
    """

    def __init__(self, cores: int | Sequence[Core] = 1, seed: int = 0) -> None:
        if isinstance(cores, int):
            if cores < 1:
                raise SimStateError("engine needs at least one core")
            self.cores: list[Core] = [Core(name=f"cpu{i}", index=i) for i in range(cores)]
        else:
            self.cores = list(cores)
            if not self.cores:
                raise SimStateError("engine needs at least one core")
        #: cores eligible to host floating (affinity-less) threads; platforms
        #: shrink this to the worker pool so floating application threads
        #: never land on the reserved runtime core.
        self.floating_pool: list[Core] = list(self.cores)
        if seed < 0:
            raise SimStateError(f"engine seed must be >= 0, got {seed}")
        self.seed = seed
        self.now: float = 0.0
        self.current: Optional[SimThread] = None
        self.threads: dict[SimThread, None] = {}  # live only, in spawn order
        self._ready: deque[tuple[SimThread, Any]] = deque()
        #: pending timers, a heapq of ``(when, seq, callback)``: ``(when,
        #: seq)`` is unique, so comparisons never reach the callback
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()
        #: pending-timer high-water mark, sampled before each drain batch
        #: pops (the heap only shrinks there, so that is where it peaks)
        self._timer_hwm = 0
        #: per-core cached absolute instant of the earliest completion (inf
        #: = idle), indexed by ``Core._cpos``.  It persists between runs, so
        #: a clean core's instant survives re-entry bit for bit (recomputing
        #: it from the advanced ``now`` / ``_virtual`` lands an ulp away).
        self._completion_at: list[float] = [inf] * len(self.cores)
        #: positions whose instant is stale, each pushed once per clean ->
        #: dirty transition: a segment added or finished, ``Core.spin``, or a
        #: ``speed`` / ``cs_alpha`` assignment
        self._dirty: list[int] = list(range(len(self.cores)))
        for pos, core in enumerate(self.cores):
            core._dirty = self._dirty
            core._cpos = pos
            core._completion_dirty = True
        #: segment sequence counter: the FIFO tie-break among equal finishes
        self._seq = 0
        self._events_processed = 0
        #: the instant of each ``call_at`` whose timestamp was already in
        #: the past and was clamped to now (the runtime's logbook copies it
        #: at shutdown; telemetry folds it into ``simcore_late_timers_total``).
        self.late_at: list[float] = []
        #: timers fired so far (separate from dispatch-event accounting).
        self.timers_fired = 0
        self._drain_batches = 0
        #: distinct instants the loop advanced the clock to (``until``
        #: stops excepted); events per instant is how many resumptions one
        #: pass of the loop's fixed cost is spread over
        self._instants = 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def add_device(self, name: str) -> Device:
        """A new exclusive accelerator device on this engine."""
        return Device(name=name, engine=self)

    def spawn(
        self,
        gen: Generator[Request, Any, Any],
        name: str = "thread",
        affinity: Optional[Core] = None,
    ) -> SimThread:
        """Create a simulated thread from generator *gen* and make it ready.

        ``affinity`` pins the thread to one core; ``None`` lets each compute
        segment land on the currently least-loaded core.
        """
        if affinity is not None and affinity not in self.cores:
            raise SimStateError(f"affinity core {affinity.name!r} is not part of this engine")
        thread = SimThread(name=name, gen=gen, engine=self, affinity=affinity)
        thread.started_at = self.now
        self.threads[thread] = None
        self._ready.append((thread, None))
        return thread

    def event_core_stats(self) -> dict:
        """Event-core observability snapshot (``run --perf-json``)."""
        pending = len(self._timers)
        return {
            "pending": pending,
            "occupancy_hwm": max(self._timer_hwm, pending),
            "late_timers": len(self.late_at),
            "timers_fired": self.timers_fired,
            "drain_batches": self._drain_batches,
            "mean_batch": (
                self.timers_fired / self._drain_batches if self._drain_batches else 0.0
            ),
            "instants": self._instants,
        }

    # ------------------------------------------------------------------ #
    # scheduling primitives (used by sync/device layers)
    # ------------------------------------------------------------------ #

    def wake(self, thread: SimThread, value: Any = None) -> None:
        """Move a blocked/sleeping thread back to the dispatch queue."""
        state = thread.state
        if state is not _BLOCKED and state is not _SLEEPING:
            if state is _FINISHED:
                raise SimStateError(f"cannot wake finished thread {thread.name!r}")
            raise SimStateError(f"thread {thread.name!r} is not blocked (state={state})")
        thread.state = _READY
        self._ready.append((thread, value))

    def _schedule_timer(self, delay: float, callback: Callable[[], None]) -> None:
        if not 0.0 <= delay < inf:
            raise SimTimeError(f"timer delay must be finite and non-negative, got {delay}")
        heappush(self._timers, (self.now + delay, next(self._timer_seq), callback))

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated time ``when``.

        A ``when`` already in the past is clamped to now - it fires in the
        very next timer drain rather than at some arbitrary later one - and
        is kept in :attr:`late_at` (exported as ``simcore_late_timers_total``)
        so schedule bugs that produce stale timestamps stay visible instead
        of silently reordering.
        """
        if not -inf < when < inf:
            raise SimTimeError(f"timer instant must be finite, got {when}")
        now = self.now
        if when < now:
            self.late_at.append(now)
            when = now
        heappush(self._timers, (when, next(self._timer_seq), callback))

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _dispatch_slow(self, thread: SimThread, request: Any) -> None:
        """Act on a ``Sleep`` or ``AcquireDevice``; ``Compute`` and ``Block``
        are handled inline by :meth:`run`.  The vocabulary is closed and
        matched by exact class: anything else - a subclass of one of the
        four, a bare ``Request``, a non-request object - is an error naming
        the thread."""
        cls = request.__class__
        if cls is Sleep:
            thread.state = _SLEEPING
            self._schedule_timer(request.duration, lambda t=thread: self.wake(t))
        elif cls is AcquireDevice:
            thread.state = _BLOCKED
            request.device.request(thread)
        else:
            raise SimStateError(
                f"thread {thread.name!r} yielded unsupported request {request!r}"
            )

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.state = _FINISHED
        thread.result = result
        thread.finished_at = self.now
        del self.threads[thread]
        for joiner in thread._joiners:
            self.wake(joiner)
        thread._joiners.clear()

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None, strict: bool = True) -> float:
        """Run the simulation; return the final simulated time.

        Stops when no further events exist, or at time ``until`` if given
        (``until`` before ``now`` is refused before anything dispatches).
        With ``strict=True`` (default), running out of events while threads
        are still blocked raises :class:`SimDeadlock` - a clean experiment
        must shut its runtime down so every thread finishes.
        """
        if until is None:
            until = inf
        elif isnan(until):
            raise SimTimeError("run(until=nan): the stop instant must be a number")
        elif until < self.now:
            raise SimTimeError(
                f"run(until={until}): the stop instant is before now ({self.now})"
            )
        ready = self._ready
        timers = self._timers
        comp = self._completion_at
        dirty = self._dirty
        cores = self.cores
        work_epsilon = WORK_EPSILON
        instant_epsilon = _INSTANT_EPSILON
        ready_state = ThreadState.READY
        running_state = ThreadState.RUNNING
        blocked_state = ThreadState.BLOCKED
        # Least-loaded placement scans a copy of the floating pool sorted by
        # core index: iteration order then IS the tie-break order, so the
        # scan needs one strict compare per core.  The cache refreshes
        # whenever ``floating_pool`` is rebound (platforms and tests assign
        # a new list; in-place mutation mid-run is not supported).
        pool_cache: Optional[list[Core]] = None
        pool_sorted: list[Core] = []
        resumes: list = []
        done_i = -1
        # tallies folded in at every exit; ``popped[called]`` is the timer
        # of a same-instant batch being called
        events = fired = batches = called = 0
        popped: list = []
        instants = 0
        seq = self._seq
        until_stop = False
        # ``current`` is cleared here once (an escaped exception leaves it
        # on the culprit); the drains clear it only after dispatching.
        self.current = None
        try:
            while True:
                # ---- dispatch drain: threads arriving through the ready
                # deque (spawns, wakes, zero-work re-queues, timer wakes);
                # dispatch may append more same-instant work, so the deque
                # drains to a fixed point before time moves.
                while ready:
                    thread, value = ready.popleft()
                    events += 1
                    # ``current`` is read only from inside the generator
                    # (sync primitives asking "who is running?"), so it is
                    # cleared once after the drain; on an exception it is
                    # left pointing at the culprit thread.
                    self.current = thread
                    try:
                        request = thread._send(value)
                    except StopIteration as stop:
                        self._finish(thread, stop.value)
                        continue
                    cls = request.__class__
                    if cls is Compute:
                        work = request.work
                        if work <= 0.0:
                            # zero-cost segment: never touches a core
                            thread.state = ready_state
                            ready.append((thread, None))
                            continue
                        core = thread.affinity
                        if core is None:
                            pool = self.floating_pool
                            if pool is not pool_cache:
                                pool_cache = pool
                                pool_sorted = sorted(pool, key=_core_index)
                                if not pool_sorted:
                                    raise SimStateError(
                                        "engine has an empty floating pool"
                                    )
                            core = pool_sorted[0]
                            best_load = len(core._pending) + core._spinners
                            for c in pool_sorted:
                                load = len(c._pending) + c._spinners
                                if load < best_load:
                                    core = c
                                    best_load = load
                        if thread._on_core is not None:
                            raise SimStateError(
                                f"{thread.name!r} already running on core "
                                f"{thread._on_core.name!r}"
                            )
                        finish = core._virtual + work
                        thread._on_core = core
                        seq += 1
                        core._pending.append([finish, seq, thread, work])
                        if finish < core._head:
                            core._head = finish
                        if not core._completion_dirty:
                            core._completion_dirty = True
                            dirty.append(core._cpos)
                        thread.state = running_state
                    elif cls is Block:
                        # the park behind every EventQueue.get and
                        # CompletionHandle.wait: a wake() re-readies it
                        thread.state = blocked_state
                    else:
                        self._dispatch_slow(thread, request)
                self.current = None

                # ---- refresh dirty completion instants: one subtraction,
                # one division by the rate, one addition, with the rate
                # looked up per occupancy k in the core's memo.
                if dirty:
                    now = self.now
                    for pos in dirty:
                        core = cores[pos]
                        core._completion_dirty = False
                        n = len(core._pending)
                        if n:
                            k = n + core._spinners
                            rate = core._memo.get(k)
                            if rate is None:
                                rate = core._memo[k] = core.share_rate(k)
                            core._rate = rate
                            comp[pos] = now + (core._head - core._virtual) / rate
                        else:
                            comp[pos] = inf
                    dirty.clear()

                # ---- pick the next event instant
                compute_at = inf
                for at in comp:
                    if at < compute_at:
                        compute_at = at
                if timers:
                    timer_at = timers[0][0]
                    next_at = timer_at if timer_at <= compute_at else compute_at
                else:
                    timer_at = inf
                    if compute_at == inf:
                        # Only materialize the blocked-thread list when
                        # actually raising: this idle check runs on every
                        # engine return.
                        if strict and any(
                            t.state is blocked_state for t in self.threads
                        ):
                            blocked = self.blocked_threads()
                            names = ", ".join(t.name for t in blocked[:12])
                            raise SimDeadlock(
                                f"no events remain but {len(blocked)} thread(s) "
                                f"are blocked: {names}"
                            )
                        return self.now
                    next_at = compute_at
                if next_at > until:
                    # until stop: advance to ``until`` like any instant, then
                    # return before either drain; the ``finally`` re-queues
                    # what completed, in collection order.  Not an instant.
                    if until == self.now:
                        return self.now
                    next_at = until
                    until_stop = True

                # ---- advance: credit the interval to every occupied core
                # and collect due completions into the resume batch, in
                # core order.
                dt = next_at - self.now
                if dt != 0.0:
                    if dt < 0:
                        raise SimTimeError(f"attempted to advance time by {dt}")
                    # += dt, NOT = next_at: ``now + (next_at - now)``
                    # differs from ``next_at`` by an ulp when the
                    # subtraction rounds, and the figures pin that bit.
                    self.now += dt
                    for core in cores:
                        pending = core._pending
                        if pending:
                            # one multiply: ``dt * rate * n`` evaluates as
                            # ``(dt * rate) * n``, so ``d * n`` is its bits
                            d = dt * core._rate
                            virtual = core._virtual + d
                            core._virtual = virtual
                            core.delivered += d * len(pending)
                            core.busy_time += dt
                            limit = virtual + work_epsilon
                            if core._head <= limit:
                                # Due completions: sort the pending list and
                                # credit each pop's exact work right here,
                                # so it lands before timers fire or any
                                # thread resumes, on exception paths too.
                                pending.sort()
                                if pending[-1][0] <= limit:
                                    # whole list due (the common case under
                                    # pinned homogeneous load): one batch move
                                    for entry in pending:
                                        entry[2].cpu_time += entry[3]
                                    resumes += pending
                                    pending.clear()
                                    core._head = inf
                                else:
                                    i = 1
                                    while pending[i][0] <= limit:
                                        i += 1
                                    due = pending[:i]
                                    for entry in due:
                                        entry[2].cpu_time += entry[3]
                                    resumes += due
                                    del pending[:i]
                                    core._head = pending[0][0]
                                if not core._completion_dirty:
                                    core._completion_dirty = True
                                    dirty.append(core._cpos)
                        elif core._spinners:
                            # a busy-polling thread keeps the core active
                            # with no work in flight
                            core.busy_time += dt
                    if until_stop:
                        return self.now
                    instants += 1
                elif compute_at <= next_at:
                    # a head above ``work_epsilon`` but within half an ulp of ``now``
                    # completes at ``now``: no advance makes it due, so collect it here
                    for core, at in zip(cores, comp):
                        if at <= next_at:
                            pending = core._pending
                            pending.sort()
                            due = [e for e in pending if e[0] <= core._head + work_epsilon]
                            for entry in due:
                                entry[2].cpu_time += entry[3]
                            resumes += due
                            del pending[: len(due)]
                            core._head = pending[0][0] if pending else inf
                            core._completion_dirty = True
                            dirty.append(core._cpos)

                # ---- batched same-instant timer drain: every timer due at
                # the reached instant fires before any completed or woken
                # thread runs.  Each pass pops everything due, then calls it
                # in (when, seq) order; timers the callbacks chain at this
                # same instant join the drain as the next pass.
                deadline = self.now + instant_epsilon
                if timer_at <= deadline:
                    batches += 1
                    while True:
                        if len(timers) > self._timer_hwm:
                            self._timer_hwm = len(timers)
                        entry = heappop(timers)
                        if timers and timers[0][0] <= deadline:
                            popped.append(entry)
                            while timers and timers[0][0] <= deadline:
                                popped.append(heappop(timers))
                            for called, entry in enumerate(popped):
                                entry[2]()
                            fired += len(popped)
                            popped.clear()
                        else:
                            fired += 1
                            entry[2]()
                        if not timers or timers[0][0] > deadline:
                            break

                # ---- resume drain: completed threads re-dispatch inline.
                if resumes:
                    for done_i, entry in enumerate(resumes):
                        thread = entry[2]
                        self.current = thread
                        try:
                            request = thread._send(None)
                        except StopIteration as stop:
                            thread._on_core = None
                            self._finish(thread, stop.value)
                            continue
                        if request.__class__ is Compute:
                            work = request.work
                            if work <= 0.0:
                                thread._on_core = None
                                thread.state = ready_state
                                ready.append((thread, None))
                                continue
                            core = thread.affinity
                            if core is None:
                                pool = self.floating_pool
                                if pool is not pool_cache:
                                    pool_cache = pool
                                    pool_sorted = sorted(pool, key=_core_index)
                                    if not pool_sorted:
                                        raise SimStateError(
                                            "engine has an empty floating pool"
                                        )
                                core = pool_sorted[0]
                                best_load = len(core._pending) + core._spinners
                                for c in pool_sorted:
                                    load = len(c._pending) + c._spinners
                                    if load < best_load:
                                        core = c
                                        best_load = load
                            finish = core._virtual + work
                            if thread._on_core is not core:
                                thread._on_core = core
                            seq += 1
                            # reuse the popped entry in place: zero
                            # allocation on the steady-state path
                            entry[0] = finish
                            entry[1] = seq
                            entry[3] = work
                            core._pending.append(entry)
                            if finish < core._head:
                                core._head = finish
                            if not core._completion_dirty:
                                core._completion_dirty = True
                                dirty.append(core._cpos)
                        else:
                            thread._on_core = None
                            if request.__class__ is Block:
                                thread.state = blocked_state
                            else:
                                self._dispatch_slow(thread, request)
                    self.current = None
                    events += len(resumes)
                    resumes.clear()
                    done_i = -1
        finally:
            # a raising resume / timer counts; the timers after it go back
            self._events_processed += events + done_i + 1
            if popped:
                fired += called + 1
                for entry in popped[called + 1:]:
                    heappush(timers, entry)
            self.timers_fired += fired
            self._drain_batches += batches
            self._instants += instants
            self._seq = seq
            # At every exit (normal return, ``until`` stop, or an exception
            # escaping user code) ``done_i`` is the entry whose resume raised
            # (-1 when no resume ran): everything after it was popped but
            # never resumed, and goes back on the ready queue exactly as if
            # it had completed and not yet dispatched.
            for entry in resumes[done_i + 1 :]:
                thread = entry[2]
                thread._on_core = None
                thread.state = ready_state
                ready.append((thread, None))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def blocked_threads(self) -> list[SimThread]:
        """Threads currently parked on a mutex/condvar/device/join."""
        return [t for t in self.threads if t.state is ThreadState.BLOCKED]

    @property
    def late_timers(self) -> int:
        """``call_at`` timestamps clamped to now so far."""
        return len(self.late_at)

    @property
    def events_processed(self) -> int:
        """Number of dispatch events handled so far (progress metric)."""
        return self._events_processed
