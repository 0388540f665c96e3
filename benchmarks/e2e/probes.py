"""Probes: direct calls into one layer, outside any workload.

A traced run says where a workload's wall time goes; a probe says what one
operation of one layer costs, so a layer optimisation can be read without
the rest of the stack in the way.  Each probe is a function doing a fixed
batch of operations; :func:`run_probes` repeats the batch for a short
budget and reports the *fastest* batch over the fastest calibration pass,
as calibration units per 1 000 operations.

Only names exported from package ``__all__`` are used.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro import scenario
from repro.apps import PulseDoppler, WifiTx
from repro.platforms import CostTable, zcu102
from repro.runtime import Task
from repro.sched import SCHEDULERS
from repro.serve import AdmissionConfig, AdmissionController, ArrivalSpec, make_arrival_stream
from repro.simcore import Condition, Engine, Mutex, Sleep, child_rng

from calibrate import calibrate
from workloads import SPEC_DIR

__all__ = ["PROBES", "run_probes"]

#: a batch returns how many operations it did
Batch = Callable[[], int]

#: ready-queue shapes of the radar + comms mix (as benchmarks/test_scheduler_rounds.py)
_SHAPES = (
    ("fft", {"n": 128, "batch": 1}),
    ("fft", {"n": 256, "batch": 1}),
    ("ifft", {"n": 128, "batch": 1}),
    ("ifft", {"n": 256, "batch": 1}),
    ("zip", {"n": 256}),
    ("cpu_op", {"work_1ghz": 1.28e-4}),
)


def _timer_soak() -> int:
    """16 threads of ``Sleep(5e-6)``: the timer wheel instead of PS cores."""
    engine = Engine(cores=4)
    nap = Sleep(5e-6)
    per_thread = 250

    def sleeper():
        for _ in range(per_thread):
            yield nap

    for i in range(16):
        engine.spawn(sleeper(), f"s{i}", affinity=engine.cores[i % 4])
    engine.run()
    return 16 * per_thread


def _sync_pingpong() -> int:
    """Two threads handing a token over one ``Mutex``/``Condition`` pair."""
    engine = Engine(cores=2)
    mutex = Mutex(engine)
    cond = Condition(mutex)
    rounds = 1000
    state = {"turn": 0}

    def player(me: int):
        for _ in range(rounds):
            yield from mutex.acquire()
            while state["turn"] != me:
                yield from cond.wait()
            state["turn"] = 1 - me
            cond.notify()
            mutex.release()

    engine.spawn(player(0), "ping")
    engine.spawn(player(1), "pong")
    engine.run()
    return 2 * rounds


def _sched_round(name: str, depth: int) -> Batch:
    """``schedule()`` rounds at one ready depth through a real ``CostTable``."""
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    table = CostTable(platform.timing, platform.pes)
    scheduler = SCHEDULERS.create(name)
    picks = np.random.default_rng(0).integers(0, len(_SHAPES), size=depth)
    ready = [
        Task(api=_SHAPES[k][0], params=_SHAPES[k][1], app_id=i) for i, k in enumerate(picks)
    ]
    pes = platform.pes
    rounds = max(1, 256 // depth)

    def batch() -> int:
        for _ in range(rounds):
            for pe in pes:
                pe.expected_free = 0.0
            assignments = scheduler.schedule(ready, pes, 0.0, table)
        if len(assignments) != depth:
            raise RuntimeError(f"{name} scheduled {len(assignments)} of {depth} tasks")
        return rounds * depth

    return batch


def _make_instance(app, mode: str, count: int) -> Batch:
    rng = child_rng(0, "probe.apps")

    def batch() -> int:
        for _ in range(count):
            app.make_instance(mode, rng)
        return count

    return batch


def _arrival_poisson() -> int:
    stream = make_arrival_stream(
        ArrivalSpec.parse("poisson:rate=60"), child_rng(0, "probe.arrivals")
    )
    last = 0.0
    for _ in range(2000):
        last = next(stream)
    if last <= 0.0:
        raise RuntimeError("poisson stream did not advance")
    return 2000


def _admission_decide() -> int:
    controller = AdmissionController(AdmissionConfig(), [("tenant", 1.0)])
    admits = 0
    for i in range(2000):
        if controller.decide("tenant", i * 1e-3, ready_depth=i & 7) == "admit":
            controller.admitted("tenant")
            admits += 1
            if admits & 1:
                controller.finished("tenant")
    return 2000


def _load_build() -> int:
    for _ in range(4):
        spec = scenario.load_scenario(SPEC_DIR / "serve_knee.toml")
        spec.build_platform()
        spec.build_config()
        spec.build_serve()
    return 4


def _probes() -> dict[str, Callable[[], Batch]]:
    """Probe name -> factory of its batch (set-up stays outside the timing)."""
    table: dict[str, Callable[[], Batch]] = {
        "simcore.probe.timer_soak": lambda: _timer_soak,
        "simcore.probe.sync_pingpong": lambda: _sync_pingpong,
    }
    for name in ("rr", "heft_rt", "etf"):
        for depth in (1, 256):
            table[f"sched.probe.{name}.d{depth}"] = (
                lambda name=name, depth=depth: _sched_round(name, depth)
            )
    table["apps.probe.make_instance.PD"] = lambda: _make_instance(
        PulseDoppler(batch=16), "api", 4
    )
    table["apps.probe.make_instance.TX"] = lambda: _make_instance(
        WifiTx(n_packets=20, batch=4), "api", 8
    )
    table["apps.probe.make_instance.PD_dag"] = lambda: _make_instance(PulseDoppler(), "dag", 1)
    table["serve.probe.arrival_poisson"] = lambda: _arrival_poisson
    table["serve.probe.admission_decide"] = lambda: _admission_decide
    table["scenario.probe.load_build"] = lambda: _load_build
    return table


PROBES: tuple[str, ...] = tuple(_probes())


def run_probes(budget_s: float) -> dict[str, Optional[float]]:
    """Calibration units per 1 000 operations, per probe.

    Fastest batch over fastest calibration pass (one pass before the first
    probe and after every fourth): both are best-case times, so transient
    interference drops out of the ratio.  A probe that raises reads ``None``
    (the layer it calls changed shape) and the harness counts it as a
    failed operation.
    """
    best: dict[str, Optional[float]] = {}
    unit = calibrate()
    for index, (name, factory) in enumerate(_probes().items()):
        try:
            batch = factory()
            batch()  # warm-up: lazy imports, interned cost rows
            fastest = float("inf")
            spent = 0.0
            while spent < budget_s:
                t0 = time.perf_counter()
                ops = batch()
                elapsed = time.perf_counter() - t0
                spent += elapsed
                fastest = min(fastest, elapsed / ops)
            best[name] = fastest
        except Exception as exc:  # noqa: BLE001 - a broken probe is an outcome
            print(f"probe {name} failed: {type(exc).__name__}: {exc}")
            best[name] = None
        if index % 4 == 3:
            unit = min(unit, calibrate())
    return {
        name: None if seconds is None else seconds * 1e3 / unit
        for name, seconds in best.items()
    }
