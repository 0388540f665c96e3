"""Derived once, read per task: deterministic call counts, no timing.

What is a pure function of static inputs - a shape's per-PE costs, a
program's node template and ranks, the constant bookkeeping charges - is
computed on first sight and read afterwards (docs/INTERNALS.md §4 "Derived
once").  These cells count the derivations: they must scale with distinct
shapes and programs, not with tasks.
"""

import numpy as np
import pytest

import repro.core.api as api_module
import repro.runtime.daemon as daemon_module
from repro.apps import APPS
from repro.core import wait_all
from repro.experiments import run_to_completion
from repro.platforms import zcu102
from repro.platforms.timing import CostTable, TimingModel
from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig
from repro.simcore import Compute
from repro.workload import WorkloadEntry, WorkloadSpec

ZCU = zcu102(n_cpu=3, n_fft=1)


def compute_bound(runtime) -> int:
    """The ``Compute.__init__`` calls a fault-free, noise-free run may make,
    whatever its task count: three per shape and PE kind (a worker's
    segments), one per distinct round cost, and the constants - the libCEDR
    call / push / kick, two per worker, one per daemon bookkeeping amount
    and one operand copy per shape."""
    rows = runtime.cost_table.n_rows
    kinds = len({pe.kind for pe in runtime.platform.pes})
    round_costs = len({cost for _, _, cost, _ in runtime.logbook.rounds if cost > 0.0})
    constants = 3 + 2 * len(runtime.platform.pes) + len(runtime._charges) + rows
    return rows * kinds * 3 + round_costs + constants


def dag_cell():
    """3 instances x 2 programs (PD, TX), DAG mode under etf."""
    PD, TX = APPS.get("PD").factory, APPS.get("TX").factory
    workload = WorkloadSpec(
        name="derived-once", entries=(WorkloadEntry(PD(), 3), WorkloadEntry(TX(), 3))
    )
    config = RuntimeConfig(scheduler="etf", execute_kernels=False)
    return run_to_completion(ZCU, workload, "dag", 200.0, 5, config)


def api_cell():
    """3 application threads, each 2 shapes x 7 calls (blocking and not)."""
    x = np.zeros(64, dtype=complex)

    def main(lib):
        for _ in range(7):
            spec = yield from lib.fft(x)
        reqs = []
        for _ in range(7):
            reqs.append((yield from lib.zip_nb(spec, spec)))
        yield from wait_all(reqs)

    runtime = CedrRuntime(ZCU.build(seed=3), RuntimeConfig(scheduler="eft", execute_kernels=False))
    runtime.start()
    for i in range(3):
        app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main)
        runtime.submit(app, at=i * 5e-3)
    runtime.seal()
    runtime.run()
    return runtime


@pytest.fixture
def calls(monkeypatch):
    """Call counters over the derivations, keyed by short name."""
    counts = {}

    def count(owner, attr, name):
        real = getattr(owner, attr)
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(TimingModel, "cpu_seconds", "cpu_seconds")
    count(TimingModel, "accel_parts", "accel_parts")
    count(CostTable, "_add_row", "add_row")
    count(daemon_module, "upward_ranks", "upward_ranks")
    count(api_module, "payload_bytes", "payload_bytes")
    count(Compute, "__init__", "compute")
    return counts


def test_dag_cell_derives_per_program_and_per_shape(calls):
    runtime = dag_cell()
    tasks = runtime.counters.tasks_completed
    rows = runtime.cost_table.n_rows
    assert len(runtime.logbook.closed) == 6 and tasks > 20 * rows
    assert calls["upward_ranks"] == 2  # PD and TX, not their six instances
    assert calls["add_row"] == rows
    # every shape runs on the CPUs (one evaluation for the three of them);
    # only the fft / ifft shapes have an accelerator column
    assert calls["cpu_seconds"] == rows
    assert 0 < calls["accel_parts"] < rows
    assert calls["payload_bytes"] == 0
    # nothing is left per task: kernel segments, round costs and bookkeeping
    # charges are all shared requests
    assert calls["compute"] <= compute_bound(runtime) < tasks


def test_api_cell_derives_per_shape(calls):
    runtime = api_cell()
    assert runtime.counters.tasks_completed == 42
    assert runtime.cost_table.n_rows == 2
    assert calls["add_row"] == 2
    assert calls["payload_bytes"] == 2
    assert calls["cpu_seconds"] == 2
    assert calls["accel_parts"] == 1  # fft on the FFT IP; zip has no column there
    assert calls["upward_ranks"] == 0
    assert calls["compute"] <= compute_bound(runtime) < runtime.counters.tasks_completed


def test_charges_are_shared_requests():
    """One request per distinct bookkeeping cost, reused by identity."""
    runtime = CedrRuntime(ZCU.build(seed=0), RuntimeConfig())
    us = runtime.config.costs.queue_pop_us
    first = runtime._charge(us)
    assert runtime._charge(us) is first
    assert runtime._charge(us + 1.0) is not first
    assert first.work == us * runtime.cost_scale * 1e-6
    before = list(runtime.logbook.charges)
    runtime._charge(us)
    assert runtime.logbook.charges == before + [first.work]  # still one row per call
