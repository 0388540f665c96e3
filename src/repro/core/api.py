"""The libCEDR API surface: blocking and non-blocking heterogeneous calls.

This module is the reproduction's ``cedr.h`` + runtime-linked ``libcedr-rt``
combined.  An application's ``main`` receives a :class:`CedrClient` and
invokes hardware-agnostic kernel APIs on it::

    spec = yield from lib.fft(pulse)            # blocking (Fig. 4 protocol)
    reqs = [(yield from lib.fft_nb(p)) for p in pulses]   # non-blocking
    specs = yield from wait_all(reqs)

Each call builds a :class:`~repro.runtime.task.Task`, initializes the
mutex/condvar completion pair, pushes the task into the CEDR ready queue
*from the application thread* (the overhead transfer the paper credits for
the Fig. 5 reduction), and rings the daemon's doorbell.  The blocking form
then sleeps on the condition variable until the executing worker signals
completion; the non-blocking form returns a :class:`CedrRequest`.

The per-API method pairs (``fft``/``fft_nb``, ``zip``/``zip_nb``, ...) are
**generated** from the declarative spec table in :mod:`repro.core.spec`
rather than hand-written: one :class:`~repro.core.spec.ApiSpec` row per
kernel declares the parameter builder, payload builder, and marshalled-byte
model, and :func:`~repro.core.spec.install_api_methods` stamps out both
variants with the public signatures of old.  Adding a kernel API is now one
table row - the blocking variant, the ``_nb`` variant, standalone-mode
parity, and the call's row in the run record all follow.

Every call writes one :class:`~repro.runtime.logbook.CallRecord` row when it
settles - a blocking call as its thread wakes, a non-blocking one as its
handle settles - carrying the instants the call began, counted as in
flight, and finished.  The telemetry registry's call counters, latency
histograms and in-flight gauge are a fold of those rows
(:meth:`repro.telemetry.CedrTelemetry.fold`).

The same application source also runs against
:class:`~repro.core.standalone.StandaloneCedr` ("treating libCEDR like any
other CPU-based library"), which is how users validate functional
correctness before ever involving the runtime.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Generator

from repro.platforms.timing import UNPRICED
from repro.runtime.task import CompletionHandle, Task
from repro.simcore import Compute, Request

from .handles import CedrRequest
from .spec import ApiSpec, install_api_methods, payload_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.app import AppInstance
    from repro.runtime.daemon import CedrRuntime

__all__ = ["CedrClient"]


def _make_blocking(spec: ApiSpec):
    """Factory for one generated blocking method (``(self, x)`` or
    ``(self, a, b)``, matching the hand-written signatures exactly)."""
    if spec.arity == 1:
        def method(self, x):
            params, payload = spec.build(x)
            return self._call_blocking(spec.name, params, payload)
    else:
        def method(self, a, b):
            params, payload = spec.build(a, b)
            return self._call_blocking(spec.name, params, payload)
    method.__doc__ = f"{spec.doc}; blocks until complete."
    return method


def _make_nonblocking(spec: ApiSpec):
    """Factory for one generated ``_nb`` method returning a request handle."""
    if spec.arity == 1:
        def method(self, x):
            params, payload = spec.build(x)
            return self._call_nb(spec.name, params, payload)
    else:
        def method(self, a, b):
            params, payload = spec.build(a, b)
            return self._call_nb(spec.name, params, payload)
    method.__doc__ = f"Non-blocking {spec.doc[0].lower()}{spec.doc[1:]}; returns a :class:`CedrRequest`."
    return method


class CedrClient:
    """Per-application libCEDR handle bound to a running CEDR runtime.

    One instance exists per application thread; it is not shared across
    applications (each keeps its own call counter and bookkeeping), exactly
    like the per-process linkage of the real library.

    The kernel API methods (``fft``, ``ifft``, ``zip``, ``gemm`` and their
    ``_nb`` twins) are installed by :func:`~repro.core.spec.
    install_api_methods` right after the class body - see the module
    docstring.
    """

    #: True when kernels actually execute; timing-only sweeps set the
    #: runtime's ``execute_kernels=False`` and applications may skip local
    #: numpy post-processing when this is False.
    executes: bool

    def __init__(self, runtime: "CedrRuntime", app: "AppInstance") -> None:
        self._runtime = runtime
        self._app = app
        self._calls = 0
        self.executes = runtime.config.execute_kernels
        #: the engine this client's calls run on
        self.engine = runtime.engine
        # fixed for the client's life and read on every call: bound once
        self._app_id = app.app_id
        self._signal_latency = runtime.config.signal_latency_s
        self._post = runtime.events.post
        self._record_call = runtime.logbook.record_call

    # ------------------------------------------------------------------ #
    # dispatch plumbing
    # ------------------------------------------------------------------ #

    def _submit(
        self, api: str, params: dict, payload: Any
    ) -> Generator[Request, Any, Task]:
        """enqueue_kernel: build the task and hand it to the runtime.

        All three cost constants are charged to the *application thread*
        (processor-shared on the worker-core pool), not the daemon.
        """
        runtime = self._runtime
        call, push, kick = runtime.api_charges
        self._calls += 1
        name = sys.intern(f"{api}#{self._calls}")
        yield call  # alloc + cond/mutex init
        # one key, one probe: everything the call needs of its shape - row
        # id, rank seed, the operand-copy request - sits with the interned
        # row, and the row id rides on the task, so neither the ready-queue
        # push nor the scheduling round looks the shape up again
        table = runtime.cost_table
        row = table.row_ids.get((api, tuple(sorted(params.items()))))
        copy = UNPRICED if row is None else table.copy[row]
        if copy is UNPRICED:
            # first call of the shape: price the copy, charge it, and only
            # then intern (the point at which the row id was always taken)
            costs = runtime.config.costs
            copy_cost = payload_bytes(api, params) * costs.api_copy_ns_per_byte * 1e-9
            copy = Compute(copy_cost * runtime.cost_scale) if copy_cost > 0.0 else None
            if copy is not None:
                yield copy  # stage operand buffers
            row, rank = runtime.intern_shape(api, params)
            table.copy[row] = copy
        else:
            if copy is not None:
                yield copy
            rank = table.means[row]
        task = Task(
            api=api,
            params=params,
            app_id=self._app_id,
            name=name,
            payload=payload,
            completion=CompletionHandle(self.engine, self._signal_latency),
            rank=rank,
            cost_row=row,
            tid=next(runtime.tids),
        )
        self._app.tasks_total += 1
        yield push
        runtime.push_ready_from_app(task)
        yield kick
        self._post(("kick", None))
        return task

    def _call_blocking(self, api: str, params: dict, payload: Any):
        t_call = self.engine.now
        task = yield from self._submit(api, params, payload)
        try:
            return (yield from task.completion.wait())
        finally:  # a lost task raises out of the wait: still one row
            self._record_call(api, "blocking", t_call, t_call, self.engine.now)

    def _call_nb(self, api: str, params: dict, payload: Any):
        t_call = self.engine.now
        task = yield from self._submit(api, params, payload)
        # the settling thread appends the row, waited on or not
        task.completion.call = (self._record_call, (api, "nonblocking", t_call, self.engine.now))
        return CedrRequest(task)

    # ------------------------------------------------------------------ #
    # application-local (non-kernel) work
    # ------------------------------------------------------------------ #

    def local_work(self, seconds_at_1ghz: float) -> Generator[Request, Any, None]:
        """Charge non-kernel application code to the application thread.

        This is the code CEDR-API leaves *inside* ``main`` instead of
        carving into DAG nodes; it runs processor-shared on the worker-core
        pool and is the source of the thread-contention effects in the
        paper's Figs 6, 8, and 10.
        """
        if seconds_at_1ghz < 0:
            raise ValueError(f"negative local work: {seconds_at_1ghz}")
        yield Compute(seconds_at_1ghz / self._runtime.platform.timing.cpu_clock_ghz)


# blocking + non-blocking kernel APIs, generated from the spec table
# (cedr.h declarations, Listing 1)
install_api_methods(CedrClient, _make_blocking, _make_nonblocking)
