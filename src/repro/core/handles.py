"""Request handles for the non-blocking libCEDR APIs.

The paper's non-blocking variants "allow the end user to have full control
over the task synchronization primitives such that they can manually
maximize parallelism".  A :class:`CedrRequest` is that control surface: the
application thread gets one back immediately from a ``*_nb`` call and can
``test()`` it, ``wait()`` on it, or hold a whole window of them in flight
(see :func:`wait_all` and :func:`wait_any`).  :class:`ImmediateRequest` is
the standalone-mode twin whose result already exists, so the exact same
application source compiles against both the runtime and the plain CPU
library.

Both handle types derive from one :class:`Request` protocol base (``test`` /
``wait`` / ``result`` / ``api``), so synchronization helpers and user code
are written once against the protocol and run unchanged in either mode::

    reqs = [(yield from lib.fft_nb(p)) for p in pulses]
    idx, first = yield from wait_any(reqs)   # overlap with the fastest
    rest = yield from wait_all(r for i, r in enumerate(reqs) if i != idx)

(The name intentionally mirrors MPI's request objects; it is unrelated to
:class:`repro.simcore.Request`, the simulator's thread-yield protocol.)
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Generator, Iterable

from repro.simcore import Block
from repro.simcore import Request as SimRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.task import Task

__all__ = ["Request", "CedrRequest", "ImmediateRequest", "wait_all", "wait_any"]


class Request(abc.ABC):
    """Protocol base of one in-flight (or completed) libCEDR call handle.

    The application-facing synchronization contract shared by runtime and
    standalone modes:

    * :meth:`test` - non-blocking completion peek;
    * :meth:`wait` - generator; blocks the calling (simulated) thread until
      the call settles, then returns its result (idempotent);
    * :attr:`result` - the completed result, raising if still in flight;
    * :attr:`api` - the API name the handle belongs to.
    """

    #: API name of the underlying call (``"fft"``, ``"gemm"``, ...).
    api: str

    @abc.abstractmethod
    def test(self) -> bool:
        """Non-blockingly check completion (``pthread_cond``-free peek)."""

    @abc.abstractmethod
    def wait(self) -> Generator[SimRequest, Any, Any]:
        """Block until the call completes; returns its result (idempotent)."""

    @property
    @abc.abstractmethod
    def result(self) -> Any:
        """The completed result; raises if the call is still in flight."""


class CedrRequest(Request):
    """Handle to one in-flight non-blocking libCEDR call (runtime mode)."""

    def __init__(self, task: "Task") -> None:
        self._task = task

    def test(self) -> bool:
        return self._task.completion.done

    def wait(self) -> Generator[SimRequest, Any, Any]:
        """Block until the call completes; returns its result.

        Idempotent - waiting again returns the same result immediately.
        """
        return (yield from self._task.completion.wait())

    @property
    def result(self) -> Any:
        if not self.test():
            raise RuntimeError(
                f"result of task {self._task.tid} ({self._task.api}) not ready; "
                "wait() on the request first"
            )
        return self._task.completion.result

    @property
    def api(self) -> str:
        return self._task.api


class ImmediateRequest(Request):
    """Standalone-mode handle: the call already executed synchronously."""

    def __init__(self, result: Any, api: str = "?") -> None:
        self._result = result
        self.api = api

    def test(self) -> bool:
        return True

    def wait(self) -> Generator[SimRequest, Any, Any]:
        if False:  # pragma: no cover - makes this a generator function
            yield
        return self._result

    @property
    def result(self) -> Any:
        return self._result


def wait_all(requests: Iterable[Request]) -> Generator[SimRequest, Any, list[Any]]:
    """Wait on a window of requests; returns their results in order.

    The canonical pattern for performance programmers: issue a batch of
    ``*_nb`` calls, then ``results = yield from wait_all(reqs)``.
    """
    results = []
    for req in requests:
        results.append((yield from req.wait()))
    return results


def wait_any(requests: Iterable[Request]) -> Generator[SimRequest, Any, tuple[int, Any]]:
    """Wait until *any* request completes; returns ``(index, result)``.

    The MPI-``Waitany`` counterpart of :func:`wait_all`, and the rest of
    the paper's "full control over task synchronization" surface: issue a
    window of ``*_nb`` calls, react to whichever finishes first, keep the
    rest in flight.  Ties (several already complete, or settling at the
    same instant) resolve to the lowest index, so the result is
    deterministic.  Waiting on an already-completed request returns
    immediately; standalone-mode :class:`ImmediateRequest` windows
    therefore always return ``(0, ...)``-style lowest-index results,
    keeping application control flow identical in both modes.

    Raises ``ValueError`` on an empty window (there is nothing to wait
    for - matching the explicit-error philosophy of the runtime, rather
    than blocking forever).
    """
    reqs = list(requests)
    if not reqs:
        raise ValueError("wait_any() needs at least one request")
    for i, req in enumerate(reqs):
        if req.test():
            return i, (yield from req.wait())
    # Nothing settled yet: every candidate is a CedrRequest with a live
    # completion handle.  Park this thread and let the first settling
    # handle's watcher wake it (honoring that handle's signal latency, the
    # same futex-wake cost the blocking path pays in ``wait``).
    handles = [req._task.completion for req in reqs]
    engine = handles[0].engine
    me = engine.current
    woken = [False]

    def _wake() -> None:
        if not woken[0]:
            woken[0] = True
            engine.wake(me)

    def _make_watcher(handle):
        def _settled() -> None:
            if woken[0]:
                return  # another request already won the race
            if handle.signal_latency > 0.0:
                engine.call_at(engine.now + handle.signal_latency, _wake)
            else:
                _wake()
        return _settled

    for handle in handles:
        handle.add_watcher(_make_watcher(handle))
    yield Block()
    for i, req in enumerate(reqs):
        if req.test():
            return i, (yield from req.wait())
    raise RuntimeError("wait_any woke with no completed request")  # pragma: no cover
