"""Simulated threads and the request protocol they speak to the engine.

A simulated thread is a Python generator.  The generator *yields* request
objects (:class:`Compute`, :class:`Sleep`, :class:`Block`, ...) to the
:class:`~repro.simcore.engine.Engine`, which charges simulated time for the
request and resumes the generator when it is satisfied.  This mirrors how a
real pthread alternates between running on a core and blocking in the kernel,
and is the standard coroutine-based discrete-event style (compare SimPy),
implemented here from scratch so the core-contention model can be exact.

Thread bodies therefore look like straight-line code::

    def worker(engine, queue):
        while True:
            task = yield from queue.get()       # may block
            yield Compute(task.cost)            # processor-shared core time
            task.mark_done()

Only the engine may resume a thread; user code communicates through the
synchronization primitives in :mod:`repro.simcore.sync`.
"""

from __future__ import annotations

import enum
from math import inf
from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import SimStateError, SimTimeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .cores import Core, Device
    from .engine import Engine

__all__ = [
    "Request",
    "Compute",
    "Sleep",
    "Block",
    "AcquireDevice",
    "ThreadState",
    "SimThread",
]


class Request:
    """Base class of the four requests a simulated thread may yield:
    :class:`Compute`, :class:`Sleep`, :class:`Block`, :class:`AcquireDevice`.
    The vocabulary is closed - the engine dispatches on the exact class and
    raises :class:`SimStateError` for anything else, subclasses included."""

    __slots__ = ()


class Compute(Request):
    """Consume ``work`` seconds of *dedicated-core* time.

    On a core shared by ``k`` runnable threads the request takes
    ``work * k / core.speed`` seconds of simulated wall time (processor
    sharing).  The segment runs on the thread's affinity core, or on the
    least-loaded core of the floating pool when it has none.  Zero work
    never touches a core: the thread re-queues behind whatever is ready at
    the current instant (the ``sched_yield`` of this vocabulary).

    Requests are plain slotted classes rather than frozen dataclasses.
    They are shared values - the runtime builds one per distinct charge and
    yields it many times - so treat instances as immutable.
    """

    __slots__ = ("work",)

    def __init__(self, work: float) -> None:
        # one chained compare rejects negatives, NaN and +inf: a NaN finish
        # key would never become due and the run would end "normally" with
        # the thread still RUNNING
        if not 0.0 <= work < inf:
            raise SimTimeError(f"compute work must be finite and non-negative, got {work}")
        self.work = work

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Compute(work={self.work!r})"


class Sleep(Request):
    """Suspend for ``duration`` seconds of wall time without using any core."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if not 0.0 <= duration < inf:
            raise SimTimeError(f"sleep duration must be finite and non-negative, got {duration}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Sleep(duration={self.duration!r})"


class Block(Request):
    """Park until another thread calls :meth:`Engine.wake` on this thread.

    Used exclusively by the synchronization primitives; application-level
    code should block through a mutex/condition variable instead.
    """

    __slots__ = ()


class AcquireDevice(Request):
    """Block until exclusive ownership of *device* is granted.

    The owner then runs its own (processor-shared) compute segments while
    holding the device and must call ``device.release(thread)`` when done.
    This is the polling-dispatch model used by CEDR's driverless MMIO
    management threads (see :class:`~repro.simcore.cores.Device`).
    """

    __slots__ = ("device",)

    def __init__(self, device: "Device") -> None:
        self.device = device

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AcquireDevice(device={self.device!r})"


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    READY = "ready"        # queued for dispatch at the current instant
    RUNNING = "running"    # inside a Compute segment on some core
    SLEEPING = "sleeping"  # timer-based suspension
    BLOCKED = "blocked"    # waiting on wake() (mutex/cond/device/join)
    FINISHED = "finished"  # generator exhausted


class SimThread:
    """Bookkeeping for one simulated thread.

    ``affinity`` pins the thread to a core (CEDR worker threads); ``None``
    means floating - the engine places each compute segment on the
    least-loaded core, approximating the Linux load balancer that spreads
    CEDR-API application threads across the CPU pool.

    Slotted (not a dataclass): threads are the hottest objects in the
    simulator - they live as dict keys on every core and are touched on
    every dispatch - so attribute storage and the default identity
    ``__hash__``/``__eq__`` (C-level, unlike a dataclass's generated ones)
    measurably matter.
    """

    __slots__ = (
        "name",
        "gen",
        "engine",
        "affinity",
        "state",
        "result",
        "cpu_time",
        "started_at",
        "finished_at",
        "_joiners",
        "_send",
        "_on_core",
    )

    def __init__(
        self,
        name: str,
        gen: Generator[Request, Any, Any],
        engine: "Engine",
        affinity: "Optional[Core]" = None,
    ) -> None:
        self.name = name
        self.gen = gen
        self.engine = engine
        self.affinity = affinity
        self.state: ThreadState = ThreadState.READY
        self.result: Any = None
        self.cpu_time: float = 0.0     # dedicated-core seconds actually delivered
        self.started_at: float = 0.0
        self.finished_at: Optional[float] = None
        self._joiners: list["SimThread"] = []
        #: ``gen.send`` pre-bound at spawn: the engine resumes this thread
        #: up to a million times per run, and the two-attribute lookup per
        #: resume is measurable in the engine loop.
        self._send = gen.send
        #: placement bookkeeping (set when the engine admits a segment,
        #: cleared on its completion): which core holds this thread's active
        #: segment.  Storing it on the thread lets cores drop their
        #: per-thread dicts.
        self._on_core: "Optional[Core]" = None

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.FINISHED

    def join(self) -> Generator[Request, Any, Any]:
        """Generator: block until this thread finishes, return its result.

        Usage from another thread body: ``res = yield from t.join()``.
        """
        if self.state is ThreadState.FINISHED:
            return self.result
        caller = self.engine.current
        if caller is None:
            raise SimStateError("join() may only be awaited from inside a simulated thread")
        if caller is self:
            raise SimStateError(f"thread {self.name!r} cannot join itself")
        self._joiners.append(caller)
        yield Block()
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimThread {self.name} {self.state.value}>"
