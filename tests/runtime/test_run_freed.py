"""A finished run is freed by reference counting alone.

Each cell runs with the cycle collector off; afterwards no object of the
run may still be alive - no runtime, logbook, record row, task, client,
fault injector, engine, core or device.  Four back-reference cycles used to
keep whole runs alive until a full collection: the serve finish hook (a
bound method of the serve loop, which holds the runtime), the fault
injector (runtime -> injector -> runtime), a lost task's stored error,
whose traceback held the application thread's frames (error -> frames ->
client -> runtime -> handle -> error), and the engine's device list
(engine -> device -> engine, which kept the engine and its cores).  The
batch API and DAG cells leaked only the engine; they keep the check honest
for the plain path.
"""

import gc
from collections import Counter
from pathlib import Path

import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.core import CedrClient
from repro.corpus.parity import run_cell
from repro.experiments import run_once
from repro.faults import FaultConfig, FaultInjector, FaultKind, FaultSpec
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, Logbook, RuntimeConfig, Task, TaskRecord
from repro.runtime.logbook import CallRecord
from repro.scenario import load_scenario
from repro.serve import ArrivalSpec, ServeConfig, TenantSpec, serve_once
from repro.simcore import Core, Device, Engine
from repro.workload import WorkloadEntry, WorkloadSpec

RUN_TYPES = (
    CedrRuntime, Logbook, TaskRecord, CallRecord, Task, CedrClient, FaultInjector,
    Engine, Core, Device,
)

ZCU = zcu102(n_cpu=3, n_fft=1)
WORKLOAD = WorkloadSpec(
    name="freed", entries=(WorkloadEntry(PulseDoppler(batch=16), 2), WorkloadEntry(WifiTx(), 2))
)
#: a forced transient on every PE and no retry budget: the first task to
#: complete anywhere is lost and fails its application
LOSES_A_TASK = RuntimeConfig(faults=FaultConfig(
    script=tuple(FaultSpec(at=0.0, pe=pe, kind=FaultKind.TRANSIENT)
                 for pe in ("cpu0", "cpu1", "cpu2", "fft0")),
    max_retries=0,
))
SERVE = ServeConfig(
    tenants=(TenantSpec("radar", ArrivalSpec.make("poisson", rate=150.0),
                        apps=(PulseDoppler(batch=16),), slo_s=0.05),),
    duration=0.1,
)
CORPUS_SPEC = Path(__file__).resolve().parents[2] / "examples" / "corpus" / "corpus-0-0004.json"


def live_run_objects() -> Counter:
    return Counter(type(o).__name__ for o in gc.get_objects() if isinstance(o, RUN_TYPES))


def run_freed(cell):
    """Run *cell* with the cycle collector off and return what it returns,
    failing if any object of the run outlived the call."""
    gc.collect()
    before = live_run_objects()
    gc.disable()
    try:
        result = cell()
        leaked = live_run_objects() - before
    finally:
        gc.enable()
    assert not leaked, f"alive after the run returned: {dict(leaked)}"
    return result


def test_batch_api_cell_is_freed():
    result = run_freed(lambda: run_once(ZCU, WORKLOAD, "api", 200.0, "rr", seed=1))
    assert result.n_apps == 4


def test_dag_cell_is_freed():
    result = run_freed(lambda: run_once(ZCU, WORKLOAD, "dag", 200.0, "etf", seed=2))
    assert result.n_apps == 4


def test_serve_cell_is_freed():
    result = run_freed(lambda: serve_once(ZCU, SERVE, seed=1))
    assert result.completed > 0


def test_faulty_api_cell_that_loses_a_task_is_freed():
    result = run_freed(
        lambda: run_once(ZCU, WORKLOAD, "api", 200.0, "rr", seed=3, config=LOSES_A_TASK)
    )
    assert result.tasks_lost >= 1 and result.n_failed >= 1


@pytest.mark.parametrize("scheduler", ["eft", "met"])
def test_corpus_cell_is_freed(scheduler):
    outcome = run_freed(lambda: run_cell(load_scenario(CORPUS_SPEC), scheduler))
    assert outcome.status == "ok"
