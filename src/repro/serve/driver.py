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
decisions read only controller state and virtual-clock signals, and
response accounting happens in completion order (an engine-determined
order).  :func:`serve_trials` therefore shards serve cells across the same
process pool and content-addressed cache as the batch sweeps, bit-
identically - ``repro audit diff --serve`` proves it per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

from repro.metrics import RunResult
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.simcore import child_rng
from repro.telemetry.registry import Histogram
from repro.telemetry.runtime_metrics import LATENCY_BUCKETS

from .admission import AdmissionConfig, AdmissionController
from .arrival import ArrivalSpec, arrival_rate, make_arrival_stream

__all__ = [
    "TenantSpec",
    "ServeConfig",
    "TenantStats",
    "ServeResult",
    "ServeDriver",
    "serve_once",
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
    """One service run: tenants, duration, admission, execution knobs."""

    tenants: tuple[TenantSpec, ...]
    duration: float
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    mode: str = "api"
    scheduler: str = "heft_rt"

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
        if not self.response_times:
            return 0.0
        ordered = sorted(self.response_times)
        rank = max(0, -(-99 * len(ordered) // 100) - 1)  # ceil, 0-based
        return ordered[rank]

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
    #: per-app execution times, PE histogram) - the oracle diffs this too.
    run: RunResult

    @property
    def throughput(self) -> float:
        """Completed applications per simulated second of service."""
        return self.completed / self.duration

    @property
    def p99_response_s(self) -> float:
        """Exact p99 response time across every tenant's completions."""
        merged: list[float] = []
        for t in self.tenants:
            merged.extend(t.response_times)
        if not merged:
            return 0.0
        merged.sort()
        rank = max(0, -(-99 * len(merged) // 100) - 1)
        return merged[rank]

    @property
    def goodput(self) -> float:
        """Completed-within-SLO (full service) per simulated second."""
        good = sum(
            max(0, t.completed - t.degraded - t.slo_violations)
            for t in self.tenants
        )
        return good / self.duration


class _TenantRuntime:
    """Mutable per-tenant serve state (streams, counters, ledger)."""

    __slots__ = (
        "spec", "stream", "payload_rng", "admit_seq",
        "offered", "admitted", "shed", "held", "degraded",
        "completed", "failed", "slo_violations",
        "responses", "queue_wait_s",
    )

    def __init__(
        self, spec: TenantSpec, stream: Iterator[float], payload_rng: np.random.Generator
    ) -> None:
        self.spec = spec
        self.stream = stream
        self.payload_rng = payload_rng
        self.admit_seq = 0
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.held = 0
        self.degraded = 0
        self.completed = 0
        self.failed = 0
        self.slo_violations = 0
        self.responses: list[float] = []
        self.queue_wait_s = 0.0


class ServeDriver:
    """Wires arrival streams through admission into one live runtime."""

    def __init__(self, runtime: CedrRuntime, serve: ServeConfig, seed: int) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.serve = serve
        self.controller = AdmissionController(
            serve.admission, [(t.name, t.weight) for t in serve.tenants]
        )
        self._tenants = {
            t.name: _TenantRuntime(
                t,
                make_arrival_stream(
                    t.arrival, child_rng(seed, f"serve.arrivals.{t.name}")
                ),
                child_rng(seed, f"serve.apps.{t.name}"),
            )
            for t in serve.tenants
        }
        #: app_id -> (tenant name, offered instant, degraded flag)
        self._records: dict[int, tuple[str, float, bool]] = {}
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
        for name in self._tenants:
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
        state = self._tenants[tenant]
        try:
            when = next(state.stream)
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
        state = self._tenants[tenant]
        state.offered += 1
        now = self.engine.now
        decision = self.controller.decide(
            tenant,
            now,
            ready_depth=len(self.runtime.ready),
            p99_s=self._response_hist.quantile(0.99),
        )
        if decision == "shed":
            state.shed += 1
            return
        instance = self._next_instance(state)
        if decision == "hold":
            state.held += 1
            self.controller.push(tenant, (instance, now))
            # capacity may already be free (held on a soft signal): a
            # release pass keeps "held implies at-capacity" invariant true
            self._drain_holds()
            return
        self._admit(tenant, instance, offered_at=now,
                    degraded=(decision == "degrade"))

    def _next_instance(self, state: _TenantRuntime):
        app = state.spec.apps[state.admit_seq % len(state.spec.apps)]
        state.admit_seq += 1
        return app.make_instance(
            self.serve.mode, state.payload_rng,
            timing_only=not self.runtime.config.execute_kernels,
        )

    def _admit(
        self, tenant: str, instance: Any, offered_at: float, degraded: bool
    ) -> None:
        state = self._tenants[tenant]
        state.admitted += 1
        if degraded:
            state.degraded += 1
        state.queue_wait_s += self.engine.now - offered_at
        self.controller.admitted(tenant)
        self._records[instance.app_id] = (tenant, offered_at, degraded)
        self.runtime.submit(instance, at=self.engine.now)

    def _drain_holds(self) -> None:
        for tenant, (instance, offered_at) in self.controller.release():
            self._admit(tenant, instance, offered_at=offered_at, degraded=False)
        self._maybe_seal()

    # -- completions / drain -------------------------------------------- #

    def _on_app_finished(self, app: Any) -> None:
        record = self._records.pop(app.app_id, None)
        if record is None:   # not a serve submission (mixed-use runtime)
            return
        tenant, offered_at, degraded = record
        state = self._tenants[tenant]
        self.controller.finished(tenant)
        if app.failed or app.cancelled:
            state.failed += 1
        else:
            response = self.engine.now - offered_at
            state.completed += 1
            state.responses.append(response)
            self._response_hist.observe(response)
            if not degraded and response > state.spec.slo_s:
                state.slo_violations += 1
        self._drain_holds()

    def _on_expiry(self) -> None:
        self._expired = True
        self._drain_holds()

    def _maybe_seal(self) -> None:
        if self._expired and not self._sealed and self.controller.held() == 0:
            self._sealed = True
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
        tenants = tuple(
            TenantStats(
                name=name,
                offered=s.offered,
                admitted=s.admitted,
                shed=s.shed,
                held=s.held,
                degraded=s.degraded,
                completed=s.completed,
                failed=s.failed,
                slo_violations=s.slo_violations,
                response_times=tuple(s.responses),
                queue_wait_s=s.queue_wait_s,
                hold_hwm=self.controller.hold_hwm(name),
            )
            for name, s in self._tenants.items()
        )
        return ServeResult(
            duration=self.serve.duration,
            offered=sum(t.offered for t in tenants),
            admitted=sum(t.admitted for t in tenants),
            shed=sum(t.shed for t in tenants),
            degraded=sum(t.degraded for t in tenants),
            completed=sum(t.completed for t in tenants),
            slo_violations=sum(t.slo_violations for t in tenants),
            in_system_hwm=self.controller.in_system_hwm,
            late_arrivals=self.engine.late_timers,
            tenants=tenants,
            run=RunResult.from_runtime(self.runtime),
        )


# --------------------------------------------------------------------- #
# pure serve cells: pool- and cache-shardable like the batch sweeps
# --------------------------------------------------------------------- #


def serve_once(
    platform: Any,
    serve: ServeConfig,
    seed: int = 0,
    config: Optional[RuntimeConfig] = None,
) -> ServeResult:
    """One complete service run; the serve analogue of ``run_once``.

    Pure function of its arguments: build the platform, start a runtime,
    arm the driver, run to graceful drain, collect the ledger.  Honours
    ``$REPRO_AUDIT`` exactly like the batch path so audited CI sweeps
    cover serve cells too.
    """
    from repro.experiments.common import audit_from_env

    if config is None:
        config = RuntimeConfig(scheduler=serve.scheduler, execute_kernels=False)
    else:
        config = config.with_scheduler(serve.scheduler)
    if not config.audit and audit_from_env():
        config = config.with_audit()
    instance = platform.build(seed=seed)
    runtime = CedrRuntime(instance, config)
    runtime.start()
    driver = ServeDriver(runtime, serve, seed)
    driver.arm()
    runtime.run()
    return driver.result()


def serve_cell(cell: tuple) -> ServeResult:
    """Picklable pool-worker entry for one (serve config, seed) cell."""
    platform, serve, seed, config = cell
    return serve_once(platform, serve, seed=seed, config=config)


def _encode_serve(result: ServeResult) -> dict:
    from repro.experiments.cache import _encode_result

    return {
        "duration": result.duration,
        "offered": result.offered,
        "admitted": result.admitted,
        "shed": result.shed,
        "degraded": result.degraded,
        "completed": result.completed,
        "slo_violations": result.slo_violations,
        "in_system_hwm": result.in_system_hwm,
        "late_arrivals": result.late_arrivals,
        "tenants": [
            {
                "name": t.name,
                "offered": t.offered,
                "admitted": t.admitted,
                "shed": t.shed,
                "held": t.held,
                "degraded": t.degraded,
                "completed": t.completed,
                "failed": t.failed,
                "slo_violations": t.slo_violations,
                "response_times": list(t.response_times),
                "queue_wait_s": t.queue_wait_s,
                "hold_hwm": t.hold_hwm,
            }
            for t in result.tenants
        ],
        "run": _encode_result(result.run),
    }


def _decode_serve(data: dict) -> ServeResult:
    from repro.experiments.cache import _decode_result

    return ServeResult(
        duration=float(data["duration"]),
        offered=int(data["offered"]),
        admitted=int(data["admitted"]),
        shed=int(data["shed"]),
        degraded=int(data["degraded"]),
        completed=int(data["completed"]),
        slo_violations=int(data["slo_violations"]),
        in_system_hwm=int(data["in_system_hwm"]),
        late_arrivals=int(data["late_arrivals"]),
        tenants=tuple(
            TenantStats(
                name=str(t["name"]),
                offered=int(t["offered"]),
                admitted=int(t["admitted"]),
                shed=int(t["shed"]),
                held=int(t["held"]),
                degraded=int(t["degraded"]),
                completed=int(t["completed"]),
                failed=int(t["failed"]),
                slo_violations=int(t["slo_violations"]),
                response_times=tuple(float(x) for x in t["response_times"]),
                queue_wait_s=float(t["queue_wait_s"]),
                hold_hwm=int(t["hold_hwm"]),
            )
            for t in data["tenants"]
        ),
        run=_decode_result(data["run"]),
    )


def serve_codec():
    """The sweep-cache codec for :class:`ServeResult` cells."""
    from repro.experiments.cache import ResultCodec

    return ResultCodec(
        kind="serve/1",
        encode=_encode_serve,
        decode=_decode_serve,
        cacheable=lambda r: r.run.telemetry is None,
    )


def serve_trials(
    platform: Any,
    serve: ServeConfig,
    trials: int = 2,
    base_seed: int = 0,
    config: Optional[RuntimeConfig] = None,
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
