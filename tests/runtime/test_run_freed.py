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
for the plain path.  A run armed for ``--perf-json`` kept its engine too,
through the timer shadows ``PerfCounters.watch_timers`` sets on it
(engine -> shadow -> bound ``call_at`` -> engine) until the drain dropped
them.
"""

import gc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.core import CedrClient
from repro.corpus.parity import run_cell
from repro.experiments import run_once
from repro.experiments.common import run_to_completion
from repro.faults import FaultConfig, FaultInjector, FaultKind, FaultSpec
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, Logbook, RuntimeConfig, Task, TaskRecord
from repro.runtime.logbook import CallRecord, Table
from repro.scenario import load_scenario
from repro.serve import ArrivalSpec, ServeConfig, TenantSpec, serve_once
from repro.simcore import Core, Device, Engine
from repro.workload import WorkloadEntry, WorkloadSpec

RUN_TYPES = (
    CedrRuntime, Logbook, Table, TaskRecord, CallRecord, Task, CedrClient, FaultInjector,
    Engine, Core, Device,
)

ZCU = zcu102(n_cpu=3, n_fft=1)
WORKLOAD = WorkloadSpec(
    name="freed", entries=(WorkloadEntry(PulseDoppler(batch=16), 2), WorkloadEntry(WifiTx(), 2))
)
#: a forced transient on every PE and no retry budget: the first task to
#: complete anywhere is lost and fails its application
RR = RuntimeConfig(scheduler="rr", execute_kernels=False)
LOSES_A_TASK = replace(RR, faults=FaultConfig(
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
    result = run_freed(lambda: run_once(ZCU, WORKLOAD, "api", 200.0, 1, RR))
    assert result.n_apps == 4


def test_dag_cell_is_freed():
    result = run_freed(lambda: run_once(ZCU, WORKLOAD, "dag", 200.0, 2,
                                        replace(RR, scheduler="etf")))
    assert result.n_apps == 4


def test_perf_json_armed_cell_is_freed():
    snapshot = run_freed(lambda: run_to_completion(
        ZCU, WORKLOAD, "api", 200.0, 4, RR, attribute_host_time=True
    ).counters.snapshot())
    assert snapshot["host_ns_by_role"]["timers"] > 0
    assert snapshot["resumes_by_role"]["timers"] == snapshot["event_core"]["timers_fired"]


def test_serve_cell_is_freed():
    result = run_freed(lambda: serve_once(ZCU, SERVE, 1, replace(RR, scheduler="heft_rt")))
    assert result.completed > 0


def test_faulty_api_cell_that_loses_a_task_is_freed():
    result = run_freed(
        lambda: run_once(ZCU, WORKLOAD, "api", 200.0, 3, LOSES_A_TASK)
    )
    assert result.tasks_lost >= 1 and result.n_failed >= 1


@pytest.mark.parametrize("scheduler", ["eft", "met"])
def test_corpus_cell_is_freed(scheduler):
    outcome = run_freed(lambda: run_cell(load_scenario(CORPUS_SPEC), scheduler))
    assert outcome.status == "ok"
