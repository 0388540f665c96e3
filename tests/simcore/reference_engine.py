"""Test-side reference: the per-object engine loop the production loop replaced.

``ReferenceEngine.run`` is the pre-merge ``Engine.run``/``_advance`` pair
kept verbatim (comments trimmed): ready-deque round trip for every
completion, tuple heaps, ``heappush``/``heappop`` per segment, a scan of
every core for the earliest completion instant, and its own independent
spelling of the processor-sharing rate, re-derived on every advance.  It
shares no loop code with ``Engine.run``, which is what makes the hex-float
comparisons in ``test_engine_reference.py`` a proof rather than a
tautology.  It takes the production form (unordered pending lists) in on
entry and gives it back on exit, so the two loops can drive one engine in
turns.  Imported by tests only.
"""

from heapq import heapify, heappop, heappush
from math import inf
from typing import Optional

from repro.simcore import (
    Block,
    Compute,
    Engine,
    SimDeadlock,
    SimStateError,
    SimTimeError,
    ThreadState,
)
from repro.simcore.cores import WORK_EPSILON, Core
from repro.simcore.engine import _INSTANT_EPSILON, _core_index


def _mark_dirty(engine, core) -> None:
    if not core._completion_dirty:
        core._completion_dirty = True
        engine._dirty.append(core._cpos)


def _rate(core, n: int) -> float:
    k = n + core._spinners
    return core.speed / (k * (1.0 + core.cs_alpha * (k - 1)))


class ReferenceEngine(Engine):
    def _completion_min(self) -> Optional[float]:
        """Earliest completion instant over every core, or None.

        A core's instant is constant while it stays clean, and recomputing
        it from a later ``now`` / ``_virtual`` lands an ulp away, so the
        scan recomputes (one subtraction, one division, one addition) only
        the cores flagged dirty and keeps the engine's cache and
        ``Core._rate`` as the production loop would leave them.
        """
        comp = self._completion_at
        for core in self.cores:
            if core._completion_dirty:
                core._completion_dirty = False
                heap = core._pending
                if heap:
                    core._rate = rate = _rate(core, len(heap))
                    comp[core._cpos] = self.now + (heap[0][0] - core._virtual) / rate
                else:
                    comp[core._cpos] = inf
        self._dirty.clear()
        best = min(comp)
        return None if best == inf else best

    def _advance(self, dt: float) -> None:
        if dt < 0:
            raise SimTimeError(f"attempted to advance time by {dt}")
        if dt == 0.0:
            return
        self.now += dt
        ready = self._ready
        ready_state = ThreadState.READY
        for core in self.cores:
            heap = core._pending
            n = len(heap)
            if n:
                rate = _rate(core, n)
                virtual = core._virtual + dt * rate
                core._virtual = virtual
                core.delivered += dt * rate * n
                core.busy_time += dt
                limit = virtual + WORK_EPSILON
                if heap[0][0] <= limit:
                    while heap and heap[0][0] <= limit:
                        _, _, thread, work = heappop(heap)
                        thread._on_core = None
                        thread.cpu_time += work
                        thread.state = ready_state
                        ready.append((thread, None))
                    _mark_dirty(self, core)
            elif core._spinners:
                core.busy_time += dt

    def run(self, until: Optional[float] = None, strict: bool = True) -> float:
        for core in self.cores:
            heap = core._pending
            heap[:] = [tuple(entry) for entry in heap]
            heapify(heap)
        try:
            return self._run(until, strict)
        finally:
            for core in self.cores:
                heap = core._pending
                heap[:] = [list(entry) for entry in heap]
                core._head = heap[0][0] if heap else inf

    def _run(self, until: Optional[float], strict: bool) -> float:
        ready = self._ready
        timers = self._timers
        ready_state = ThreadState.READY
        running_state = ThreadState.RUNNING
        pool_cache: Optional[list[Core]] = None
        pool_sorted: list[Core] = []
        while True:
            events = 0
            while ready:
                thread, value = ready.popleft()
                events += 1
                self.current = thread
                try:
                    request = thread.gen.send(value)
                except StopIteration as stop:
                    self._finish(thread, stop.value)
                    continue
                if request.__class__ is Compute:
                    work = request.work
                    if work <= 0.0:
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
                                raise SimStateError("engine has an empty floating pool")
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
                    self._seq += 1
                    heappush(core._pending, (finish, self._seq, thread, work))
                    _mark_dirty(self, core)
                    thread.state = running_state
                elif request.__class__ is Block:
                    thread.state = ThreadState.BLOCKED
                else:
                    self._dispatch_slow(thread, request)
            self.current = None
            self._events_processed += events

            timer_at = timers[0][0] if timers else None
            compute_at = self._completion_min()

            if timer_at is None and compute_at is None:
                if strict and any(
                    t.state is ThreadState.BLOCKED for t in self.threads
                ):
                    blocked = self.blocked_threads()
                    names = ", ".join(t.name for t in blocked[:12])
                    raise SimDeadlock(
                        f"no events remain but {len(blocked)} thread(s) are blocked: {names}"
                    )
                return self.now

            if timer_at is None:
                next_at = compute_at
            elif compute_at is None:
                next_at = timer_at
            else:
                next_at = timer_at if timer_at <= compute_at else compute_at
            if until is not None and next_at > until:
                self._advance(until - self.now)
                return self.now

            self._advance(next_at - self.now)
            deadline = self.now + _INSTANT_EPSILON
            if timer_at is not None and timer_at <= deadline:
                fired = 0
                while timers and timers[0][0] <= deadline:
                    self._timer_hwm = max(self._timer_hwm, len(timers))
                    batch = []
                    while timers and timers[0][0] <= deadline:
                        batch.append(heappop(timers)[2])
                    fired += len(batch)
                    for callback in batch:
                        callback()
                self.timers_fired += fired
                self._drain_batches += 1
