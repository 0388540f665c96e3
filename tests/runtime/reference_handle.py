"""The ``Mutex`` + ``Condition`` completion handle, kept as the reference.

This is the handle ``repro.runtime.task.CompletionHandle`` replaced: the
literal pthread pair of the paper's Fig. 4, its three generator bodies
verbatim.  It lives test-side only, as the thing the production handle (a
waiter list + ``signal_latency``) must be indistinguishable from:
``test_handle_equivalence.py`` swaps it into the libCEDR client and requires
identical ``RunResult``s and identical engine event counts.

Two adaptations to today's call sites, neither touching the protocol:

* the constructor takes ``(engine, signal_latency)`` and exposes ``engine``
  / ``signal_latency`` as the production handle does (``wait_any`` reads
  them);
* workers and the daemon now call ``complete()`` / ``fail()`` as plain
  methods, on the argument that the old generators could never yield -
  the mutex is only ever held between two points of one dispatch.  Here
  the generators are still run, and :func:`_run_unblocked` *checks* that
  argument on every call instead of assuming it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.simcore import Condition, Engine, Mutex, Request

__all__ = ["ReferenceHandle"]


def _run_unblocked(gen: Generator[Request, Any, None]) -> None:
    """Drive *gen* to completion; it must not yield (block) on the way."""
    for request in gen:
        raise AssertionError(
            f"completion-handle mutex was contended: settle path yielded {request!r}"
        )


class ReferenceHandle:
    """The Fig.-4 synchronization pair for one blocking/non-blocking call."""

    def __init__(self, engine: Engine, signal_latency: float = 0.0) -> None:
        self.mutex = Mutex(engine, name="ref.mtx")
        self.cond = Condition(self.mutex, name="ref.cv", signal_latency=signal_latency)
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._watchers: list[Callable[[], None]] = []
        self.call = None

    @property
    def engine(self) -> Engine:
        return self.mutex.engine

    @property
    def signal_latency(self) -> float:
        return self.cond.signal_latency

    def add_watcher(self, callback: Callable[[], None]) -> None:
        if self.done:
            callback()
        else:
            self._watchers.append(callback)

    def _fire_watchers(self) -> None:
        if self.call is not None:
            record_call, columns = self.call
            record_call(*columns, self.engine.now)
        watchers, self._watchers = self._watchers, []
        for callback in watchers:
            callback()

    def wait(self) -> Generator[Request, Any, Any]:
        yield from self.mutex.acquire()
        while not self.done:
            yield from self.cond.wait()
        self.mutex.release()
        if self.error is not None:
            raise self.error
        return self.result

    def _complete(self, result: Any) -> Generator[Request, Any, None]:
        yield from self.mutex.acquire()
        self.done = True
        self.result = result
        self.cond.notify_all()
        self.mutex.release()
        self._fire_watchers()

    def _fail(self, error: BaseException) -> Generator[Request, Any, None]:
        yield from self.mutex.acquire()
        self.done = True
        self.error = error
        self.cond.notify_all()
        self.mutex.release()
        self._fire_watchers()

    def complete(self, result: Any) -> None:
        _run_unblocked(self._complete(result))

    def fail(self, error: BaseException) -> None:
        _run_unblocked(self._fail(error))
