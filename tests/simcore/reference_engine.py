"""Test-side reference: the per-object engine loop the production loop replaced.

``ReferenceEngine.run`` is the pre-merge ``Engine.run``/``_advance`` pair
kept verbatim (comments trimmed): ready-deque round trip for every
completion, tuple heaps with per-core sequence counters, ``heappush``/
``heappop`` per segment, completion instants through
``CompletionIndex.min_at``, and its own independent spelling of the
processor-sharing rate.  It shares no loop code with ``Engine.run``, which
is what makes the hex-float comparisons in ``test_engine_reference.py`` a
proof rather than a tautology.  Imported by tests only.
"""

from heapq import heappop, heappush
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


class ReferenceEngine(Engine):
    def _advance(self, dt: float) -> None:
        if dt < 0:
            raise SimTimeError(f"attempted to advance time by {dt}")
        if dt == 0.0:
            return
        self.now += dt
        ready = self._ready
        ready_state = ThreadState.READY
        for core in self.cores:
            heap = core._finish_heap
            n = len(heap)
            if n:
                k = n + core._spinners
                rate = core.speed / (k * (1.0 + core.cs_alpha * (k - 1)))
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
                    if not core._completion_dirty:
                        core._completion_dirty = True
                        cidx = core._cidx
                        if cidx is not None:
                            cidx._dirty.append(core._cpos)
            elif core._spinners:
                core.busy_time += dt

    def run(self, until: Optional[float] = None, strict: bool = True) -> float:
        ready = self._ready
        timers = self._timers
        completions = self._completions
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
                        best_load = len(core._finish_heap) + core._spinners
                        for c in pool_sorted:
                            load = len(c._finish_heap) + c._spinners
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
                    seq = core._seq + 1
                    core._seq = seq
                    heappush(core._finish_heap, (finish, seq, thread, work))
                    if not core._completion_dirty:
                        core._completion_dirty = True
                        cidx = core._cidx
                        if cidx is not None:
                            cidx._dirty.append(core._cpos)
                    thread.state = running_state
                elif request.__class__ is Block:
                    thread.state = ThreadState.BLOCKED
                else:
                    self._dispatch_slow(thread, request)
            self.current = None
            self._events_processed += events

            timer_at = timers[0][0] if timers else None
            compute_at = completions.min_at(self.now)

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
                self._drain_events += fired
