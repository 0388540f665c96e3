"""Experiment-runner tests on miniature grids (fast, shape-focused)."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.experiments import (
    run_cells,
    run_figure,
    run_once,
    run_to_completion,
    run_trials,
    saturated_reduction,
)
from repro.faults import FaultConfig
from repro.metrics import RunResult, aggregate_trials
from repro.platforms import zcu102
from repro.runtime import RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec, radar_comms_workload

#: small fast workload for runner-mechanics tests (the real paper workload
#: is exercised by the benchmarks)
TINY = WorkloadSpec(
    "tiny",
    (WorkloadEntry(PulseDoppler(batch=32), 2), WorkloadEntry(WifiTx(batch=20), 2)),
)
RR = RuntimeConfig(scheduler="rr", execute_kernels=False)

#: the mini-grid panels (``FigureSeries.as_dict()``) each figure produced
#: before figures became table rows
GOLDEN = json.loads(Path(__file__).with_name("golden_figure_panels.json").read_text())


def as_dicts(panels):
    return {pid: fig.as_dict() for pid, fig in panels.items()}


def test_run_once_returns_complete_result(zcu_small):
    r = run_once(zcu_small, TINY, "dag", 100.0, 0, RR)
    assert r.n_apps == 4
    assert r.makespan > 0


def test_run_once_is_deterministic(zcu_small):
    eft = RuntimeConfig(scheduler="eft", execute_kernels=False)
    a = run_once(zcu_small, TINY, "api", 100.0, 5, eft)
    b = run_once(zcu_small, TINY, "api", 100.0, 5, eft)
    assert a.exec_times == b.exec_times
    assert a.runtime_overhead_s == b.runtime_overhead_s


def test_run_trials_vary_with_seed(zcu_small):
    results = run_trials(zcu_small, TINY, "api", 100.0, RR, trials=2, base_seed=0)
    assert len(results) == 2
    # different seeds -> different synthesized inputs -> identical timing
    # model, but arrival jitter-free workloads still deterministic per seed
    with pytest.raises(ValueError):
        run_trials(zcu_small, TINY, "api", 100.0, RR, trials=0)


def test_run_cells_rate_grid_shapes(zcu_small):
    rates = [50.0, 500.0]
    results = run_cells([(zcu_small, TINY, "api", r, 0, RR) for r in rates])
    ys = [aggregate_trials([r])["exec_time"].mean for r in results]
    assert len(ys) == 2
    assert all(y > 0 for y in ys)
    assert set(aggregate_trials(results)) >= {"exec_time", "runtime_overhead", "sched_overhead"}


def test_config_alone_sets_kernel_execution():
    """The cell's config is the one place kernel execution is set: a
    resilience-figure cell (timing-only, with a fault config) runs its apps
    timing-only, and gives the same result as the kernel-executing run."""
    cell = (zcu102(n_cpu=3, n_fft=1), radar_comms_workload(), "api", 200.0, 0)
    config = RuntimeConfig(scheduler="rr", execute_kernels=False, faults=FaultConfig(rate=10.0))
    runtime = run_to_completion(*cell, config)
    assert all(app.timing_only for app in runtime.apps.values())
    executed = run_once(*cell, replace(config, execute_kernels=True))
    assert RunResult.from_runtime(runtime) == executed


def test_fig5_driver_mini_grid():
    panels = run_figure("fig5", xs=[50.0, 400.0, 1500.0], trials=1)
    assert as_dicts(panels) == GOLDEN["fig5"]
    fig = panels["fig5"]
    assert {s.label for s in fig.series} == {"DAG-based", "API-based"}
    for s in fig.series:
        assert len(s.xs) == 3
        assert all(y > 0 for y in s.ys)
    # saturated reduction computable on the mini grid
    reduction = saturated_reduction(fig, x_from=400.0)
    assert -1.0 < reduction < 1.0


def test_fig67_driver_mini_grid():
    panels = run_figure("fig67", xs=[100.0, 1000.0], trials=1, schedulers=("rr", "etf"))
    assert as_dicts(panels) == GOLDEN["fig67"]
    assert set(panels) == {"fig6a", "fig6b", "fig7a", "fig7b"}
    for panel in panels.values():
        assert {s.label for s in panel.series} == {"RR", "ETF"}
    # the headline ETF mechanism visible even on the mini grid:
    dag_etf = panels["fig7a"].get("ETF").ys[-1]
    api_etf = panels["fig7b"].get("ETF").ys[-1]
    assert dag_etf > 5 * api_etf


def test_run_figure_rejects_unknown_rows_and_zero_trials():
    with pytest.raises(KeyError, match="fig55"):
        run_figure("fig55")
    with pytest.raises(ValueError, match="trial"):
        run_figure("fig5", trials=0)
