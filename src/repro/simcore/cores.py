"""Processor-sharing CPU cores and exclusive accelerator devices.

The contention model is the load-bearing piece of this reproduction: every
headline result in the CEDR-API paper (Figs 5-10) is driven by worker,
application, and accelerator-management threads time-sharing a small pool of
ARM cores.  We model each core as an egalitarian processor-sharing server:
when ``k`` threads are runnable on a core of speed ``s``, each progresses at
rate ``s / k``.  This is the fluid limit of the Linux CFS round-robin that
the real CEDR threads experience, and it makes completion times exactly
computable in an event-driven loop (no quantum discretization noise).

Performance: virtual-time accounting
------------------------------------

A naive processor-sharing core decrements every runnable thread's remaining
work on every clock advance - O(runnable) per event, and the dominant cost
of the whole simulator.  Instead each core keeps a *virtual clock* ``V``:
the dedicated-work seconds delivered to each occupant since the core was
created.  A segment of ``w`` work admitted at virtual time ``V0`` finishes
when ``V`` reaches ``V0 + w``; advancing the wall clock by ``dt`` moves
``V`` by ``dt * rate`` once, regardless of how many threads share the core.
Finish instants live in a per-core min-heap, so an advance costs
O(1 + completions log n) instead of O(runnable).

Because the per-thread rate is constant while the core's composition
(runnable set + spinner count) is unchanged, the *absolute* wall-clock
instant of the earliest completion is also constant.  Each core caches it
(:meth:`Core.completion_at`) and invalidates only when a segment is added,
a segment finishes, or the spinner count changes - the invalidation
protocol the engine's advance loop relies on (see docs/INTERNALS.md,
"Performance").

Devices (FFT/MMULT accelerators, the GPU) are exclusive FIFO servers: one
occupant at a time, queued requests served in arrival order.  The CPU-side
cost of talking to a device (DMA setup, ``cudaMemcpy``) is *not* modelled
here - the runtime charges it as ordinary :class:`Compute` work on the
management thread's host core, which is precisely how the paper explains its
scalability results.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import SimStateError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine
    from .process import SimThread

__all__ = ["Core", "CompletionIndex", "Device", "completion_instant"]

#: Remaining-work threshold below which a compute segment counts as finished.
#: Guards against float round-off leaving 1e-18 core-seconds of zombie work.
WORK_EPSILON = 1e-12


def completion_instant(core: "Core", now: float) -> Optional[float]:
    """Absolute wall-clock instant of *core*'s earliest completion, or None.

    The authoritative virtual-time -> wall-time conversion: one subtraction,
    one division by :meth:`Core.share_rate`, one addition - in that order.
    The engine loop performs the same three operations with the rate looked
    up from its per-occupancy memo (a cache of ``share_rate`` results), so
    cached and recomputed instants are bit-equal.  Reads the heap head, so
    it is an *at-rest* query: while ``Engine.run`` is executing the pending
    list is unordered and the head lives in ``Core._head``.
    """
    heap = core._finish_heap
    n = len(heap)
    if not n:
        return None
    return now + (heap[0][0] - core._virtual) / core.share_rate(n + core._spinners)


class Core:
    """One processor-sharing CPU core.

    ``speed`` is a dimensionless multiplier; kernel cost tables already fold
    in absolute clock rates, so platforms normally leave it at 1.0 and encode
    cross-platform differences (1.2 GHz ARM A53 vs 2.3 GHz Carmel) in the
    cost model.

    ``cs_alpha`` is the context-switch/cache-thrash penalty: with ``k``
    sharers the core's *aggregate* delivery rate degrades by one ``cs_alpha``
    per extra sharer (:meth:`share_rate`).  Pure processor sharing is
    work-conserving, which would hide the oversubscription cost the paper's
    scalability analysis (Fig. 10) attributes to "each thread waiting for
    longer periods to get access to the CPU core"; the penalty restores it.

    ``spinners`` is the number of busy-polling threads currently parked on
    this core.  CEDR's worker and accelerator-management threads spin on
    their queues, so an *idle* worker still consumes a full processor-sharing
    slot - the mechanism behind the paper's thread-contention findings (API
    threads squeezed by spinning workers in Fig. 6/8, monotone degradation
    with FFT count in Fig. 10a, the 5-CPU minimum in Fig. 10b).  Spinners
    take a share slot but have no work to finish; they vanish from the core
    the instant their queue delivers a task.
    """

    __slots__ = (
        "name",
        "index",
        "speed",
        "cs_alpha",
        "_spinners",
        "delivered",
        "busy_time",
        "_virtual",
        "_finish_heap",
        "_seq",
        "_completion_at",
        "_completion_dirty",
        "_cidx",
        "_cpos",
        "_head",
        "_rate",
        "_memo",
    )

    def __init__(
        self,
        name: str,
        index: int,
        speed: float = 1.0,
        cs_alpha: float = 0.0,
        spinners: int = 0,
    ) -> None:
        # chained compares: NaN fails both, so a bad parameter stops here
        # instead of stalling or dividing by zero mid-run
        if not 0.0 < speed < math.inf:
            raise SimStateError(f"core {name!r}: speed must be finite and > 0, got {speed}")
        if not 0.0 <= cs_alpha < math.inf:
            raise SimStateError(
                f"core {name!r}: cs_alpha must be finite and >= 0, got {cs_alpha}"
            )
        if spinners < 0:
            raise SimStateError(f"core {name!r}: spinner count must be >= 0, got {spinners}")
        self.name = name
        self.index = index
        self.speed = speed
        self.cs_alpha = cs_alpha
        self._spinners = spinners
        #: total dedicated-core-seconds delivered (for utilization accounting)
        self.delivered: float = 0.0
        #: wall-seconds during which at least one thread was runnable here
        self.busy_time: float = 0.0
        #: dedicated-work seconds delivered per occupant since creation
        self._virtual: float = 0.0
        #: (finish_virtual, seq, thread, work) min-heap of pending segments.
        #: Doubles as the runnable count: every entry is exactly one active
        #: segment, so ``len(_finish_heap)`` *is* the occupancy - the old
        #: ``_nrun``/``_load`` twin counters were redundant mirrors of it
        #: (and two attribute writes per event on the hot path).  The thread
        #: -> core mapping lives on the threads themselves
        #: (``SimThread._on_core``) plus this heap, so the hot add/complete
        #: path never touches a dict.
        self._finish_heap: list[tuple[float, int, "SimThread", float]] = []
        self._seq = 0
        #: cached absolute wall-clock instant of the earliest completion
        #: (None = idle); valid while the runnable set and spinner count are
        #: unchanged, recomputed lazily otherwise.
        self._completion_at: Optional[float] = None
        self._completion_dirty = True
        #: back-reference into the engine's :class:`CompletionIndex` (None
        #: for standalone cores); the dirty-push half of the invalidation
        #: protocol described on :meth:`completion_at`.
        self._cidx: Optional["CompletionIndex"] = None
        self._cpos = 0
        #: engine-loop scratch: min pending finish virtual, maintained only
        #: while ``Engine.run`` is driving this core (its pending list is
        #: unordered there, so the heap head lives here); meaningless - and
        #: recomputed on entry - otherwise.
        self._head = math.inf
        #: engine-loop scratch, like ``_head``: the per-thread rate while
        #: occupied (written by the dirty refresh, read by the advance) and
        #: the occupancy ``k`` -> :meth:`share_rate` memo, emptied on every
        #: ``Engine.run`` entry.
        self._rate = 1.0
        self._memo: dict[int, float] = {}

    # identity semantics: cores are placed in dicts/sets by the engine
    # (plain object hash/eq - no overrides needed on a non-dataclass)

    @property
    def spinners(self) -> int:
        return self._spinners

    @spinners.setter
    def spinners(self, value: int) -> None:
        if value != self._spinners:
            self.spin(value - self._spinners)

    def spin(self, delta: int) -> None:
        """Add *delta* busy-polling spinners (negative: remove them).

        A spinner arriving or leaving changes the share count, hence the
        per-thread rate, hence every pending completion instant: the core
        goes dirty (pushed onto the engine's dirty list once per clean->dirty
        transition, as :meth:`_mark_completion_dirty` does).  The one
        mutation path of the count - the ``spinners`` setter routes through
        it - and one call per worker park and unpark.
        """
        spinners = self._spinners + delta
        if spinners < 0:
            raise SimStateError(
                f"core {self.name!r}: spinner count cannot go below zero "
                f"({self._spinners} {delta:+})"
            )
        self._spinners = spinners
        if not self._completion_dirty:
            self._completion_dirty = True
            idx = self._cidx
            if idx is not None:
                idx._dirty.append(self._cpos)

    def _mark_completion_dirty(self) -> None:
        """Invalidate the cached completion instant and notify the engine's
        :class:`CompletionIndex` (dirty positions are pushed exactly once
        per clean->dirty transition, so the index refresh touches only the
        cores whose composition actually changed)."""
        if not self._completion_dirty:
            self._completion_dirty = True
            idx = self._cidx
            if idx is not None:
                idx._dirty.append(self._cpos)

    @property
    def load(self) -> int:
        """Threads currently sharing this core: runnable plus busy-polling
        spinners.  Used for floating-thread placement - an application
        thread migrating onto a core occupied by a spinning CEDR worker
        really does land in a contended slot, which is why the 3-core
        ZCU102 squeezes application threads while the Jetson's spare cores
        do not (paper Figs 6 vs 8).  Derived live from the finish heap, so
        it is correct even mid-batch inside the engine loop."""
        return len(self._finish_heap) + self._spinners

    def add(self, thread: "SimThread", work: float) -> None:
        if thread._on_core is not None:
            raise SimStateError(
                f"{thread.name!r} already running on core {thread._on_core.name!r}"
            )
        finish = self._virtual + work
        thread._on_core = self
        self._seq += 1
        heapq.heappush(self._finish_heap, (finish, self._seq, thread, work))
        self._mark_completion_dirty()

    def share_rate(self, k: int) -> float:
        """Dedicated-work seconds delivered per wall second to each of ``k``
        sharers (runnable threads plus busy-polling spinners), context-switch
        penalty included.  The only spelling of the processor-sharing rate
        in the simulator: :func:`completion_instant`, :meth:`advance` and the
        engine loop's per-occupancy memo all call it."""
        return self.speed / (k * (1.0 + self.cs_alpha * (k - 1)))

    def completion_at(self, now: float) -> Optional[float]:
        """Cached absolute instant of the earliest completion (None = idle).

        While the core's composition is unchanged the per-thread rate is
        constant, so the earliest finish is a fixed wall-clock instant no
        matter when it is queried; the cache is invalidated by :meth:`add`,
        by completions inside :meth:`advance`, and by :meth:`spin` (the
        ``spinners`` setter included).
        """
        if self._completion_dirty:
            self._completion_at = completion_instant(self, now)
            self._completion_dirty = False
        return self._completion_at

    def advance(self, dt: float) -> list["SimThread"]:
        """Progress all runnable threads by ``dt`` wall-seconds.

        Returns the threads whose segments completed.  The engine guarantees
        ``dt`` never overshoots the earliest completion, so remaining work
        stays non-negative up to :data:`WORK_EPSILON`.  The engine loop
        inlines this arithmetic (same float ops, same order, rate from its
        memo) for whole-event advances and calls it for ``run(until=)``'s
        partial advance; like :meth:`add` it expects the at-rest heap order.
        """
        if dt == 0.0:
            return []
        heap = self._finish_heap
        n = len(heap)
        if not n:
            if self._spinners:
                # a busy-polling thread keeps the core active (and drawing
                # power) even with no work item in flight
                self.busy_time += dt
            return []
        rate = self.share_rate(n + self._spinners)
        virtual = self._virtual + dt * rate
        self._virtual = virtual
        self.delivered += dt * rate * n
        self.busy_time += dt
        if heap[0][0] > virtual + WORK_EPSILON:
            return []
        done: list["SimThread"] = []
        limit = virtual + WORK_EPSILON
        while heap and heap[0][0] <= limit:
            _, _, thread, work = heapq.heappop(heap)
            thread._on_core = None
            # Credit the segment's exact work on completion (rather than
            # drip-feeding partial grants every advance): cheaper and free
            # of per-advance rounding drift.
            thread.cpu_time += work
            done.append(thread)
        self._mark_completion_dirty()
        return done

    def utilization(self, elapsed: float) -> float:
        """Fraction of wall time this core had runnable work."""
        return 0.0 if elapsed <= 0 else self.busy_time / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.name} load={self.load}>"


class CompletionIndex:
    """Cached absolute completion instants for a fixed set of cores.

    The engine loop needs "when does the earliest compute segment anywhere
    finish?" on every iteration.  Each core's cached completion instant is
    mirrored into one flat list (``inf`` = idle core) and only the *dirty*
    cores - those whose runnable set or spinner count changed since the last
    look, pushed by :meth:`Core._mark_completion_dirty` or :meth:`Core.spin`
    - are re-read.  A plain Python list, not an ndarray: at the 3-9 cores of
    the modelled platforms a bound C-loop ``min`` over a list is several
    times faster than ufunc dispatch.

    ``Engine.run`` drives ``_instants_list``/``_dirty`` directly (its refresh
    reads each core's ``_memo`` of rates); :meth:`refresh`/:meth:`min_at`
    are the same protocol for callers outside a run.

    Attaching a core to a second index (e.g. sharing ``Core`` objects
    between two engines) re-points its back-reference; only the most
    recently attached index sees its invalidations.
    """

    __slots__ = ("cores", "_instants_list", "_dirty")

    def __init__(self, cores: Sequence[Core]) -> None:
        self.cores = list(cores)
        n = len(self.cores)
        self._instants_list: list[float] = [math.inf] * n
        self._dirty = list(range(n))
        for pos, core in enumerate(self.cores):
            core._cidx = self
            core._cpos = pos
            core._completion_dirty = True

    def refresh(self, now: float) -> None:
        """Re-read every dirty core's cached completion instant."""
        dirty = self._dirty
        if dirty:
            cores = self.cores
            lst = self._instants_list
            for pos in dirty:
                at = cores[pos].completion_at(now)
                lst[pos] = math.inf if at is None else at
            dirty.clear()

    def min_at(self, now: float) -> Optional[float]:
        """Earliest completion instant across all cores (None = all idle)."""
        self.refresh(now)
        best = min(self._instants_list)
        return None if best == math.inf else best


class Device:
    """An exclusive, FIFO-queued accelerator device.

    Occupancy is *held* (:class:`~repro.simcore.process.AcquireDevice` +
    :meth:`release`): the thread owns the device across its own compute
    segments and sleeps.  This is how CEDR's driverless MMIO management
    threads work: the mgmt thread *polls* the accelerator, so the device
    stays occupied for as long as the (processor-shared, possibly
    slowed-down) polling loop takes - the contention coupling the paper's
    Fig. 10 exposes.

    The wait queue is a :class:`~collections.deque`: accelerator queues grow
    deep at high injection rates (every frame of every app funnels through
    one FFT IP in the Fig. 5 configuration), and a list's ``pop(0)`` would
    make draining an n-deep queue quadratic.
    """

    __slots__ = ("name", "engine", "occupant", "queue", "busy_time", "served", "_busy_since")

    def __init__(self, name: str, engine: "Engine") -> None:
        self.name = name
        self.engine = engine
        self.occupant: Optional["SimThread"] = None
        #: threads waiting for ownership, in arrival order
        self.queue: deque["SimThread"] = deque()
        self.busy_time: float = 0.0
        self.served: int = 0
        self._busy_since: float = 0.0

    @property
    def busy(self) -> bool:
        return self.occupant is not None

    def request(self, thread: "SimThread") -> None:
        """Grant *thread* ownership now if the device is free, else queue it."""
        if self.occupant is None:
            self._grant(thread)
        else:
            self.queue.append(thread)

    def _grant(self, thread: "SimThread") -> None:
        self.occupant = thread
        self._busy_since = self.engine.now
        self.engine.wake(thread)

    def release(self, thread: "SimThread") -> None:
        """Release by the current occupant (synchronous call); ownership
        passes to the longest-waiting thread."""
        if self.occupant is not thread:
            raise SimStateError(
                f"{thread.name!r} released device {self.name!r} held by "
                f"{self.occupant.name if self.occupant else None!r}"
            )
        self.occupant = None
        self.busy_time += self.engine.now - self._busy_since
        self.served += 1
        if self.queue:
            self._grant(self.queue.popleft())

    def utilization(self, elapsed: float) -> float:
        """Fraction of wall time the device spent occupied."""
        extra = (self.engine.now - self._busy_since) if self.busy else 0.0
        return 0.0 if elapsed <= 0 else (self.busy_time + extra) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "busy" if self.busy else "idle"
        return f"<Device {self.name} {state} q={len(self.queue)}>"
