"""The service driver: open arrival streams wired into a live CedrRuntime.

This is what promotes the closed-batch simulator into CEDR's actual shape -
a persistent daemon admitting applications as they arrive.  One
:class:`ServeDriver` owns, per tenant, an arrival stream from the registry
(:mod:`repro.serve.arrival`) and a payload RNG, and drives them through the
admission controller (:mod:`repro.serve.admission`) into
``CedrRuntime.submit`` using the same one-timer-ahead engine-timer chain as
the fault injector: exactly one pending arrival timer per tenant, re-armed
after each firing.  Chains stop by construction at the configured duration
(no arrival instant >= duration is ever scheduled), so - unlike the fault
streams - no disarm step is needed for the engine to drain.

Graceful drain protocol
-----------------------

``seal()`` forbids further submissions, so the driver may only seal once
nothing will ever need submitting again:

1. at ``duration`` an expiry timer marks the stream closed (no chain
   schedules past it anyway);
2. held arrivals (``block`` policy) release - weighted-fair - as running
   applications finish, via the daemon's ``on_app_finished`` hook;
3. when the stream is closed **and** every hold queue is empty, the driver
   seals; the daemon then drains exactly as in batch mode (every admitted
   application runs to completion before shutdown).

Hold queues can never strand the seal: after every release pass, a
nonempty hold queue implies the in-system count sits at its cap, which
implies completions are still coming, each of which triggers another
release pass.

Determinism
-----------

A serve run is a pure function of ``(platform, serve config, seed,
runtime config)``: arrival streams are pure in ``(spec, seed)``, admission
decisions read only controller state and virtual-clock signals, and the
ledger is a fold of the run's logbook (:meth:`ServeResult.from_logbook`:
one admission row per arrival, responses in termination order).
:func:`serve_trials` therefore shards serve cells across the same process
pool and content-addressed cache as the batch sweeps, bit-identically
(``tests/serve/test_driver.py::TestServeDeterminism`` pins it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle
from typing import Any, Iterator, Optional, Sequence

from repro.metrics import RunResult
from repro.runtime import CedrRuntime, Logbook, RuntimeConfig
from repro.simcore import child_rng
from repro.telemetry.registry import Histogram
from repro.telemetry.runtime_metrics import LATENCY_BUCKETS

from .admission import AdmissionConfig, AdmissionController
from .arrival import SEED_FREE_ARRIVALS, ArrivalSpec, arrival_rate, make_arrival_stream

__all__ = [
    "TenantSpec",
    "ServeConfig",
    "TenantStats",
    "ServeResult",
    "ServeDriver",
    "serve_once",
    "serve_to_completion",
    "serve_cell",
    "serve_trials",
    "serve_codec",
]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the service: its arrival process, app mix, weight, SLO.

    ``apps`` cycle round-robin across this tenant's admitted arrivals
    (arrival *k* instantiates ``apps[k % len(apps)]``).  ``weight`` drives
    the weighted-fair hold-queue release; ``slo_s`` is the response-time
    objective its goodput is measured against.
    """

    name: str
    arrival: ArrivalSpec
    apps: tuple[Any, ...]
    weight: float = 1.0
    slo_s: float = 0.05

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError(f"tenant {self.name!r} needs at least one app")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r} weight must be positive")
        if self.slo_s <= 0:
            raise ValueError(f"tenant {self.name!r} SLO must be positive")


@dataclass(frozen=True)
class ServeConfig:
    """One service run: tenants, duration, admission, submission mode.

    The scheduler, kernel execution and audit are the run's
    :class:`~repro.runtime.RuntimeConfig`, handed beside it."""

    tenants: tuple[TenantSpec, ...]
    duration: float
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    mode: str = "api"

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("serve needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if self.duration <= 0:
            raise ValueError(f"serve duration must be positive, got {self.duration}")

    @property
    def offered_rate(self) -> float:
        """Nominal total offered load (arrivals/s) across tenants."""
        return sum(arrival_rate(t.arrival) for t in self.tenants)


def _p99(samples: Sequence[float]) -> float:
    """Exact empirical p99 (nearest rank) of *samples*; 0.0 when empty."""
    rank = max(0, -(-99 * len(samples) // 100) - 1)  # ceil, 0-based
    return sorted(samples)[rank] if samples else 0.0


@dataclass(frozen=True)
class TenantStats:
    """One tenant's SLO ledger for one service run.

    ``offered = admitted + shed`` always; ``held`` counts arrivals that
    waited in the hold queue before admission (a subset of ``admitted``,
    since the drain protocol releases every held arrival); ``degraded``
    counts best-effort admissions excluded from the SLO accounting.
    ``response_times`` are offered-instant -> finish intervals in
    completion order (held time included - the queue is part of the
    latency a client sees).
    """

    name: str
    offered: int
    admitted: int
    shed: int
    held: int
    degraded: int
    completed: int
    failed: int
    slo_violations: int
    response_times: tuple[float, ...]
    queue_wait_s: float
    hold_hwm: int

    @property
    def p99_response_s(self) -> float:
        """Exact empirical p99 (nearest-rank) over completed responses."""
        return _p99(self.response_times)

    @property
    def goodput(self) -> float:
        """Fraction of offered arrivals that completed within the SLO
        with full service (degraded completions do not count)."""
        if self.offered == 0:
            return 1.0
        good = self.completed - self.degraded - self.slo_violations
        return max(0, good) / self.offered


@dataclass(frozen=True)
class ServeResult:
    """Everything one service run reports (bit-comparable, cacheable)."""

    duration: float
    offered: int
    admitted: int
    shed: int
    degraded: int
    completed: int
    slo_violations: int
    in_system_hwm: int
    late_arrivals: int
    tenants: tuple[TenantStats, ...]
    #: the closed-batch result of the same run (makespan, overheads,
    #: per-app execution times, PE histogram) - ``diff_results`` diffs this too.
    run: RunResult

    @classmethod
    def from_logbook(
        cls, book: Logbook, serve: ServeConfig, run: Optional[RunResult] = None
    ) -> "ServeResult":
        """The service ledger as a pure fold of the run record: tenant
        admission rows, queue waits summed in admission order, responses in
        termination order.  Apps without a row (a mixed runtime's batch
        apps) count only in ``run``, by default ``RunResult.from_logbook``."""
        tenants = []
        for spec in serve.tenants:
            own = [row for row in book.admissions if row.tenant == spec.name]
            admitted = {row.app_id: row for row in own if row.t_admitted is not None}
            wait, responses, failed, violations = 0.0, [], 0, 0
            for row in admitted.values():  # admission order
                wait += row.t_admitted - row.t_offered
            for app in (book.apps[i] for i in book.closed if i in admitted):
                row = admitted[app.app_id]
                if app.failed or app.cancelled:
                    failed += 1
                else:
                    responses.append(app.t_finish - row.t_offered)
                    violations += not row.degraded and responses[-1] > spec.slo_s
            tenants.append(TenantStats(
                name=spec.name,
                offered=len(own),
                admitted=len(admitted),
                shed=len(own) - len(admitted),
                held=sum(row.held for row in own),
                degraded=sum(row.degraded for row in own),
                completed=len(responses),
                failed=failed,
                slo_violations=violations,
                response_times=tuple(responses),
                queue_wait_s=wait,
                hold_hwm=book.hold_hwm.get(spec.name, 0),
            ))
        totals = ("offered", "admitted", "shed", "degraded", "completed", "slo_violations")
        return cls(
            duration=serve.duration,
            **{name: sum(getattr(t, name) for t in tenants) for name in totals},
            in_system_hwm=book.in_system_hwm,
            late_arrivals=len(book.late_timers),
            tenants=tuple(tenants),
            run=RunResult.from_logbook(book) if run is None else run,
        )

    @property
    def throughput(self) -> float:
        """Completed applications per simulated second of service."""
        return self.completed / self.duration

    @property
    def p99_response_s(self) -> float:
        """Exact p99 response time across every tenant's completions."""
        return _p99([x for t in self.tenants for x in t.response_times])

    @property
    def goodput(self) -> float:
        """Completed-within-SLO (full service) per simulated second."""
        good = sum(
            max(0, t.completed - t.degraded - t.slo_violations)
            for t in self.tenants
        )
        return good / self.duration


class ServeDriver:
    """Wires arrival streams through admission into one live runtime."""

    def __init__(self, runtime: CedrRuntime, serve: ServeConfig, seed: int) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.serve = serve
        self.controller = AdmissionController(
            serve.admission, [(t.name, t.weight) for t in serve.tenants]
        )
        #: per tenant, its arrival stream and (app cycle, payload RNG), an RNG
        #: nothing draws from being None; no tallies (an admission row each)
        self._streams: dict[str, Iterator[float]] = {}
        self._payloads = {}
        for t in serve.tenants:
            draws = t.arrival.kind not in SEED_FREE_ARRIVALS
            rng = child_rng(seed, f"serve.arrivals.{t.name}") if draws else None
            self._streams[t.name] = make_arrival_stream(t.arrival, rng)
            rng = child_rng(seed, f"serve.apps.{t.name}") if runtime.config.execute_kernels else None
            self._payloads[t.name] = (cycle(t.apps), rng)
        #: app_id -> (tenant name, offered instant) of admitted, unfinished apps
        self._records: dict[int, tuple[str, float]] = {}
        #: online p99 signal for admission backpressure: a telemetry
        #: histogram over completed response times.  Plain state (no
        #: events), read by decide() through Histogram.quantile.
        self._response_hist = Histogram(LATENCY_BUCKETS)
        self._expired = False
        self._sealed = False
        self._armed = False

    # -- lifecycle ------------------------------------------------------ #

    def arm(self) -> None:
        """Install the finish hook, start every chain, arm the expiry timer."""
        if self._armed:
            raise RuntimeError("serve driver already armed")
        self._armed = True
        if self.runtime.on_app_finished is not None:
            raise RuntimeError("runtime already has an on_app_finished hook")
        self.runtime.on_app_finished = self._on_app_finished
        for name in self._streams:
            self._arm_next(name)
        self.engine.call_at(self.serve.duration, self._on_expiry)

    def _arm_next(self, tenant: str) -> None:
        """One-timer-ahead arrival chain (the fault-injector idiom).

        Pull the next instant; schedule it only when it falls strictly
        inside the service window, so every chain self-terminates at the
        duration and the engine can drain without a disarm pass.  A trace
        stream may replay an instant that is already in the past relative
        to the chain's progress - ``call_at`` clamps it to now and counts
        it (``Daemon.submit``'s documented late-admission semantics).
        """
        try:
            when = next(self._streams[tenant])
        except StopIteration:
            return  # finite trace exhausted
        if when >= self.serve.duration:
            return

        def _fire() -> None:
            self._on_arrival(tenant)
            self._arm_next(tenant)

        self.engine.call_at(when, _fire)

    # -- arrivals ------------------------------------------------------- #

    def _on_arrival(self, tenant: str) -> None:
        now = self.engine.now
        decision = self.controller.decide(
            tenant,
            now,
            ready_depth=len(self.runtime.ready),
            p99_s=self._response_hist.quantile(0.99),
        )
        if decision == "shed":
            self._settle(tenant, now)
            return
        instance = self._next_instance(tenant)
        if decision == "hold":
            self.controller.push(tenant, (instance, now))
            # capacity may already be free (held on a soft signal): a
            # release pass keeps "held implies at-capacity" invariant true
            self._drain_holds()
            return
        self._settle(tenant, now, instance, degraded=(decision == "degrade"))

    def _next_instance(self, tenant: str):
        apps, payload_rng = self._payloads[tenant]
        return next(apps).make_instance(
            self.serve.mode, payload_rng, timing_only=not self.runtime.config.execute_kernels
        )

    def _settle(
        self, tenant: str, offered_at: float, instance: Any = None,
        held: bool = False, degraded: bool = False,
    ) -> None:
        """Submit *instance* unless shed (None), then write the arrival's
        admission row with the app id the submission gave it."""
        now = self.engine.now
        app_id = -1
        if instance is not None:
            self.runtime.submit(instance, at=now)
            app_id = instance.app_id
            self.controller.admitted(tenant)
            self._records[app_id] = (tenant, offered_at)
        self.runtime.logbook.record_admission(
            tenant, offered_at, None if instance is None else now, app_id, held, degraded
        )

    def _drain_holds(self) -> None:
        for tenant, (instance, offered_at) in self.controller.release():
            self._settle(tenant, offered_at, instance, held=True)
        self._maybe_seal()

    # -- completions / drain -------------------------------------------- #

    def _on_app_finished(self, app: Any) -> None:
        record = self._records.pop(app.app_id, None)
        if record is None:   # not a serve submission (mixed-use runtime)
            return
        tenant, offered_at = record
        self.controller.finished(tenant)
        if not (app.failed or app.cancelled):
            self._response_hist.observe(self.engine.now - offered_at)
        self._drain_holds()

    def _on_expiry(self) -> None:
        self._expired = True
        self._drain_holds()

    def _maybe_seal(self) -> None:
        if self._expired and not self._sealed and self.controller.held() == 0:
            self._sealed = True
            # nothing is admitted after the seal: the marks are final
            book, controller = self.runtime.logbook, self.controller
            book.in_system_hwm = controller.in_system_hwm
            book.hold_hwm = {name: controller.hold_hwm(name) for name in self._streams}
            self.runtime.seal()

    # -- results -------------------------------------------------------- #

    def result(self) -> ServeResult:
        """Collect the run's service ledger (call after ``runtime.run()``)."""
        if self._records:
            raise RuntimeError(
                f"serve run ended with {len(self._records)} admitted "
                f"applications unaccounted for"
            )
        if not self._sealed:
            raise RuntimeError("serve run never sealed - did the engine run?")
        return ServeResult.from_logbook(
            self.runtime.logbook, self.serve, run=RunResult.from_runtime(self.runtime)
        )


# --------------------------------------------------------------------- #
# pure serve cells: pool- and cache-shardable like the batch sweeps
# --------------------------------------------------------------------- #


def serve_to_completion(
    platform: Any,
    serve: ServeConfig,
    seed: int,
    config: RuntimeConfig,
) -> ServeDriver:
    """Build a runtime, arm the driver and run to graceful drain; returns the
    finished driver (``repro serve`` keeps it to save ``driver.runtime``'s
    logbook)."""
    runtime = CedrRuntime(platform.build(seed=seed), config)
    runtime.start()
    driver = ServeDriver(runtime, serve, seed)
    driver.arm()
    runtime.run()
    return driver


def serve_once(
    platform: Any,
    serve: ServeConfig,
    seed: int,
    config: RuntimeConfig,
) -> ServeResult:
    """One complete service run, reduced to its ledger; the serve analogue
    of ``run_once`` and a pure function of its arguments."""
    return serve_to_completion(platform, serve, seed, config).result()


def serve_cell(cell: tuple) -> ServeResult:
    """Picklable pool-worker entry for one (serve config, seed) cell."""
    return serve_once(*cell)  # (platform, serve config, seed, runtime config)


def serve_codec():
    """The sweep-cache codec for :class:`ServeResult` cells."""
    from repro.experiments.cache import ResultCodec

    return ResultCodec("serve/1", ServeResult)


def serve_trials(
    platform: Any,
    serve: ServeConfig,
    config: RuntimeConfig,
    trials: int = 2,
    base_seed: int = 0,
    n_jobs: Optional[int] = None,
    cache: Any = None,
) -> list[ServeResult]:
    """Repeat :func:`serve_once` over the standard trial-seed grid.

    Shards (serve, seed) cells across the PR-1 process pool and satisfies
    repeats from the content-addressed sweep cache, exactly like
    ``run_trials`` - both bit-identical to the serial path.
    """
    from repro.experiments.common import run_cells, trial_seeds

    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    cells = [
        (platform, serve, seed, config)
        for seed in trial_seeds(trials, base_seed)
    ]
    return run_cells(cells, n_jobs, cache, worker=serve_cell, codec=serve_codec())
