"""Simulated pthread-style synchronization primitives.

CEDR-API's blocking call protocol (paper Fig. 4) is: the application thread
initializes a ``pthread_mutex`` + ``pthread_cond`` pair, enqueues its task,
then sleeps in ``pthread_cond_wait``; the worker thread that eventually runs
the task fires ``pthread_cond_signal`` to wake it.  These classes reproduce
that protocol inside the simulator with the same semantics: a condition wait
atomically releases its mutex, and waking re-acquires it before the waiter
resumes.

All blocking methods are generators and must be driven with ``yield from``
inside a simulated thread body::

    yield from mutex.acquire()
    while not done:
        yield from cond.wait()
    mutex.release()

A configurable ``signal_latency`` charges the real-world cost of a futex
wake (microseconds), which is part of the per-call overhead the paper's
runtime-overhead metric observes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Generator, Optional

from .errors import SimStateError
from .process import Block, Request

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine
    from .process import SimThread

__all__ = ["Mutex", "Condition"]


def _current(engine: "Engine", op: str) -> "SimThread":
    thread = engine.current
    if thread is None:
        raise SimStateError(f"{op} may only be used from inside a simulated thread")
    return thread


@dataclass
class Mutex:
    """A non-recursive mutual-exclusion lock with FIFO handoff.

    Release hands ownership directly to the longest-waiting thread, which
    avoids the barging races a naive wake-and-retry implementation would
    reintroduce into the Fig.-4 protocol.
    """

    engine: "Engine"
    name: str = "mutex"
    owner: Optional["SimThread"] = None
    _waiters: Deque["SimThread"] = field(default_factory=deque)

    def acquire(self) -> Generator[Request, Any, None]:
        me = _current(self.engine, "Mutex.acquire")
        if self.owner is me:
            raise SimStateError(f"{me.name!r} re-acquired non-recursive mutex {self.name!r}")
        if self.owner is None:
            self.owner = me
            return
        self._waiters.append(me)
        yield Block()
        if self.owner is not me:  # pragma: no cover - handoff invariant
            raise SimStateError(f"mutex {self.name!r} woke {me.name!r} without ownership")

    def release(self) -> None:
        me = _current(self.engine, "Mutex.release")
        if self.owner is not me:
            raise SimStateError(
                f"{me.name!r} released mutex {self.name!r} owned by "
                f"{self.owner.name if self.owner else None!r}"
            )
        if self._waiters:
            nxt = self._waiters.popleft()
            self.owner = nxt
            self.engine.wake(nxt)
        else:
            self.owner = None


@dataclass
class Condition:
    """A pthread-style condition variable bound to a :class:`Mutex`.

    ``signal_latency`` models the futex-wake cost: woken waiters become
    runnable only after that many simulated seconds (0 disables it).
    """

    mutex: Mutex
    name: str = "cond"
    signal_latency: float = 0.0
    _waiters: Deque["SimThread"] = field(default_factory=deque)

    @property
    def engine(self) -> "Engine":
        return self.mutex.engine

    def wait(self) -> Generator[Request, Any, None]:
        """Atomically release the mutex and sleep until notified.

        Re-acquires the mutex before returning, exactly like
        ``pthread_cond_wait``.  Spurious wakeups never happen in the
        simulator, but callers should still use the canonical
        ``while not predicate: wait()`` loop - notify order is FIFO, not
        predicate-aware.
        """
        me = _current(self.engine, "Condition.wait")
        if self.mutex.owner is not me:
            raise SimStateError(
                f"{me.name!r} waited on {self.name!r} without holding {self.mutex.name!r}"
            )
        self._waiters.append(me)
        self.mutex.release()
        yield Block()
        yield from self.mutex.acquire()

    def _wake_one(self) -> None:
        waiter = self._waiters.popleft()
        if self.signal_latency > 0.0:
            self.engine._schedule_timer(
                self.signal_latency, lambda w=waiter: self.engine.wake(w)
            )
        else:
            self.engine.wake(waiter)

    def notify(self, n: int = 1) -> int:
        """Wake up to *n* waiters (FIFO). Returns how many were woken.

        Unlike ``pthread_cond_signal``, calling without holding the mutex is
        permitted (as it is in POSIX), but all runtime code in this repo
        signals while holding the lock to keep the Fig.-4 protocol exact.
        """
        woken = 0
        while self._waiters and woken < n:
            self._wake_one()
            woken += 1
        return woken

    def notify_all(self) -> int:
        """Wake every current waiter."""
        return self.notify(len(self._waiters))

    @property
    def waiting(self) -> int:
        return len(self._waiters)
