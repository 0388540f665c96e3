"""Metrics layer tests: RunResult, trial statistics, figure reporting."""

import numpy as np
import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.experiments import run_once
from repro.metrics import (
    FigureSeries,
    RunResult,
    Series,
    TrialStats,
    aggregate_trials,
    format_series_table,
    saturated_mean,
)
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec


@pytest.fixture(scope="module")
def tiny_result():
    wl = WorkloadSpec("tiny", (WorkloadEntry(PulseDoppler(batch=32), 2),))
    return run_once(zcu102(n_cpu=3, n_fft=1), wl, "api", 200.0, 0,
                    RuntimeConfig(scheduler="rr", execute_kernels=False))


def test_run_result_fields(tiny_result):
    r = tiny_result
    assert r.n_apps == 2
    assert len(r.exec_times) == 2
    assert all(t > 0 for t in r.exec_times)
    assert r.mean_exec_time == pytest.approx(float(np.mean(r.exec_times)))
    assert r.runtime_overhead_per_app > 0
    assert r.sched_overhead_per_app >= 0
    assert r.makespan >= max(r.exec_times)
    assert r.tasks_completed > 0
    assert r.mean_exec_time_of("PD") == r.mean_exec_time
    assert r.mean_exec_time_of("nope") == 0.0


def test_exec_times_come_in_arrival_order():
    """The fold reads the book's app rows, which the daemon opens as apps
    arrive: a caller that submits ahead of time in another order gets
    arrival order, not submission order."""
    config = RuntimeConfig(scheduler="etf", execute_kernels=False)
    runtime = CedrRuntime(zcu102(n_cpu=3, n_fft=1).build(seed=9), config)
    runtime.start()
    rng = np.random.default_rng(9)
    pd, tx = PulseDoppler(batch=32), WifiTx(n_packets=20, batch=4)
    late = pd.make_instance("dag", rng, timing_only=True)
    early = tx.make_instance("dag", rng, timing_only=True)
    runtime.submit(late, at=0.004)
    runtime.submit(early, at=0.0)
    runtime.seal()
    runtime.run()
    result = RunResult.from_runtime(runtime)
    assert result.exec_times == (early.execution_time, late.execution_time)
    assert list(result.exec_times_by_app) == ["TX", "PD"]


def test_trial_stats_math():
    s = TrialStats.from_samples([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.n == 3
    assert s.lo == 1.0 and s.hi == 3.0
    assert s.std == pytest.approx(1.0)
    assert s.sem == pytest.approx(1.0 / np.sqrt(3))
    single = TrialStats.from_samples([5.0])
    assert single.std == 0.0 and single.sem == 0.0
    with pytest.raises(ValueError):
        TrialStats.from_samples([])


def test_aggregate_trials(tiny_result):
    stats = aggregate_trials([tiny_result, tiny_result])
    assert stats["exec_time"].mean == pytest.approx(tiny_result.mean_exec_time)
    assert stats["exec_time"].std == 0.0
    assert "runtime_overhead" in stats and "sched_overhead" in stats
    with pytest.raises(ValueError):
        aggregate_trials([])


def test_saturated_mean():
    xs = [10, 100, 500, 1000]
    ys = [9.0, 5.0, 2.0, 2.0]
    assert saturated_mean(xs, ys, 200) == pytest.approx(2.0)
    assert saturated_mean(xs, ys, 100) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        saturated_mean(xs, ys, 5000)
    with pytest.raises(ValueError):
        saturated_mean(xs, ys[:2], 100)


def test_series_validation_and_lookup():
    s = Series("x", (1.0, 2.0), (10.0, 20.0))
    assert s.y_at(2.0) == 20.0
    with pytest.raises(KeyError):
        s.y_at(3.0)
    with pytest.raises(ValueError):
        Series("bad", (1.0,), (1.0, 2.0))


def test_figure_series_add_get_dump():
    fig = FigureSeries("figX", "demo", "rate", "time")
    fig.add("A", [1, 2], [0.1, 0.2])
    fig.add("B", [1, 2], [0.3, 0.4])
    assert fig.get("A").ys == (0.1, 0.2)
    with pytest.raises(KeyError):
        fig.get("C")
    dump = fig.as_dict()
    assert dump["figure"] == "figX"
    assert len(dump["series"]) == 2


def test_format_series_table():
    fig = FigureSeries("figX", "demo", "rate (Mbps)", "time (s)")
    fig.add("RR", [10, 100], [0.5, 0.25])
    fig.add("ETF", [10, 100], [0.7, 0.30])
    text = format_series_table(fig, y_scale=1e3)
    assert "figX" in text and "RR" in text and "ETF" in text
    assert "500.000" in text  # 0.5 s -> 500 ms
    lines = text.splitlines()
    assert len(lines) == 4 + 2  # header block + two data rows


def test_format_series_table_rejects_mismatched_grids():
    fig = FigureSeries("figX", "demo", "x", "y")
    fig.add("A", [1, 2], [0.1, 0.2])
    fig.add("B", [1, 3], [0.3, 0.4])
    with pytest.raises(ValueError, match="mismatched"):
        format_series_table(fig)


def test_empty_figure_table():
    fig = FigureSeries("figX", "demo", "x", "y")
    assert "(no series)" in format_series_table(fig)
