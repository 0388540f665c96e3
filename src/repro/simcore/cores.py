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

Because the per-thread rate is constant while the core's composition
(runnable set + spinner count) and its parameters are unchanged, the
*absolute* wall-clock instant of the earliest completion is also constant.
The engine caches it per core and re-reads a core only after it went dirty:
a segment added or finished, a spinner parked or left, or ``speed`` /
``cs_alpha`` assigned (see docs/INTERNALS.md, "Performance").  The pending
segments themselves are the engine loop's: an unordered list per core,
driven only by :meth:`Engine.run <repro.simcore.engine.Engine.run>`.

Devices (FFT/MMULT accelerators, the GPU) are exclusive FIFO servers: one
occupant at a time, queued requests served in arrival order.  The CPU-side
cost of talking to a device (DMA setup, ``cudaMemcpy``) is *not* modelled
here - the runtime charges it as ordinary :class:`Compute` work on the
management thread's host core, which is precisely how the paper explains its
scalability results.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional

from .errors import SimStateError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine
    from .process import SimThread

__all__ = ["Core", "Device"]

#: Remaining-work threshold below which a compute segment counts as finished.
#: Guards against float round-off leaving 1e-18 core-seconds of zombie work.
WORK_EPSILON = 1e-12


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
        "_speed",
        "_cs_alpha",
        "_spinners",
        "delivered",
        "busy_time",
        "_virtual",
        "_pending",
        "_head",
        "_rate",
        "_memo",
        "_completion_dirty",
        "_dirty",
        "_cpos",
    )

    def __init__(
        self,
        name: str,
        index: int,
        speed: float = 1.0,
        cs_alpha: float = 0.0,
        spinners: int = 0,
    ) -> None:
        if spinners < 0:
            raise SimStateError(f"core {name!r}: spinner count must be >= 0, got {spinners}")
        self.name = name
        self.index = index
        self._spinners = spinners
        #: total dedicated-core-seconds delivered (for utilization accounting)
        self.delivered: float = 0.0
        #: wall-seconds during which at least one thread was runnable here
        self.busy_time: float = 0.0
        #: dedicated-work seconds delivered per occupant since creation
        self._virtual: float = 0.0
        #: pending segments, one mutable ``[finish_virtual, seq, thread,
        #: work]`` entry each, in no particular order (``Engine.run`` appends
        #: admissions and sorts only when some are due).  Its length is the
        #: runnable count; the thread -> core mapping lives on the threads
        #: (``SimThread._on_core``) plus this list.
        self._pending: list[list] = []
        #: minimum pending finish virtual (inf when idle)
        self._head = math.inf
        #: the per-thread rate at the current occupancy (written by the
        #: engine's dirty refresh, read by its advance) and the occupancy
        #: ``k`` -> :meth:`share_rate` memo, emptied when the rate changes
        self._rate = 1.0
        self._memo: dict[int, float] = {}
        #: whether the engine's cached completion instant for this core is
        #: stale; ``_dirty`` is the engine's dirty list (None standalone),
        #: which gets ``_cpos`` once per clean -> dirty transition
        self._completion_dirty = True
        self._dirty: Optional[list[int]] = None
        self._cpos = 0
        self._set_rate(speed, cs_alpha)

    # identity semantics: cores are placed in dicts/sets by the engine
    # (plain object hash/eq - no overrides needed on a non-dataclass)

    @property
    def speed(self) -> float:
        return self._speed

    @speed.setter
    def speed(self, value: float) -> None:
        self._set_rate(value, self._cs_alpha)

    @property
    def cs_alpha(self) -> float:
        return self._cs_alpha

    @cs_alpha.setter
    def cs_alpha(self, value: float) -> None:
        self._set_rate(self._speed, value)

    def _set_rate(self, speed: float, cs_alpha: float) -> None:
        """Check and store the rate parameters, then re-rate the core: the
        memo empties and the core goes dirty, so segments already pending
        finish at the new rate from now on."""
        # chained compares: NaN fails both, so a bad parameter stops here
        # instead of stalling or dividing by zero mid-run
        if not 0.0 < speed < math.inf:
            raise SimStateError(f"core {self.name!r}: speed must be finite and > 0, got {speed}")
        if not 0.0 <= cs_alpha < math.inf:
            raise SimStateError(
                f"core {self.name!r}: cs_alpha must be finite and >= 0, got {cs_alpha}"
            )
        self._speed = speed
        self._cs_alpha = cs_alpha
        self._memo.clear()
        self.spin(0)

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
        transition).  The one mutation path of the count - the ``spinners``
        setter routes through it - and one call per worker park and unpark;
        ``spin(0)`` is the rate setters' re-rate.
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
            dirty = self._dirty
            if dirty is not None:
                dirty.append(self._cpos)

    @property
    def load(self) -> int:
        """Threads currently sharing this core: runnable plus busy-polling
        spinners.  Used for floating-thread placement - an application
        thread migrating onto a core occupied by a spinning CEDR worker
        really does land in a contended slot, which is why the 3-core
        ZCU102 squeezes application threads while the Jetson's spare cores
        do not (paper Figs 6 vs 8).  Derived live from the pending list, so
        it is correct even mid-batch inside the engine loop."""
        return len(self._pending) + self._spinners

    def share_rate(self, k: int) -> float:
        """Dedicated-work seconds delivered per wall second to each of ``k``
        sharers (runnable threads plus busy-polling spinners), context-switch
        penalty included.  The only spelling of the processor-sharing rate
        in the simulator: the engine loop's per-occupancy memo caches its
        results."""
        return self._speed / (k * (1.0 + self._cs_alpha * (k - 1)))

    def utilization(self, elapsed: float) -> float:
        """Fraction of wall time this core had runnable work."""
        return 0.0 if elapsed <= 0 else self.busy_time / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.name} load={self.load}>"


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
