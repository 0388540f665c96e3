"""Integration: the paper's headline trends at reduced scale.

These are fast (timing-only, single-seed) versions of the assertions the
benchmarks make at full scale - run on every `pytest tests/` invocation so
a regression in any mechanism (spinners, polling dispatch, queue feedback,
overhead charging) is caught immediately.
"""

import pytest

from repro.experiments import run_once
from repro.platforms import jetson, zcu102
from repro.runtime import RuntimeConfig
from repro.workload import av_workload_scaled, radar_comms_workload

RC = radar_comms_workload()
SAT_RATE = 1000.0  # comfortably in the oversubscribed region


def timing_only(scheduler: str) -> RuntimeConfig:
    return RuntimeConfig(scheduler=scheduler, execute_kernels=False)


@pytest.fixture(scope="module")
def zcu_fig6_runs():
    plat = zcu102(n_cpu=3, n_fft=1, n_mmult=1)
    out = {}
    for mode in ("dag", "api"):
        for sched in ("rr", "etf"):
            out[(mode, sched)] = run_once(plat, RC, mode, SAT_RATE, 1, timing_only(sched))
    return out


def test_fig5_trend_api_overhead_below_dag(zcu_fig6_runs):
    dag = zcu_fig6_runs[("dag", "rr")].runtime_overhead_per_app
    api = zcu_fig6_runs[("api", "rr")].runtime_overhead_per_app
    reduction = (dag - api) / dag
    assert 0.05 < reduction < 0.45  # paper: 19.52%


def test_fig5_trend_overhead_decreases_with_rate():
    plat = zcu102(n_cpu=3, n_fft=1)
    low = run_once(plat, RC, "api", 10.0, 1, timing_only("rr")).runtime_overhead_per_app
    high = run_once(plat, RC, "api", SAT_RATE, 1, timing_only("rr")).runtime_overhead_per_app
    assert low > 1.25 * high


def test_fig7_trend_etf_queue_cost_collapses_in_api_mode(zcu_fig6_runs):
    dag_etf = zcu_fig6_runs[("dag", "etf")].sched_overhead_per_app
    api_etf = zcu_fig6_runs[("api", "etf")].sched_overhead_per_app
    assert dag_etf > 20 * api_etf  # paper: 70 ms -> 1.15 ms (~60x)
    # and the non-ETF schedulers never pay queue-quadratic costs
    dag_rr = zcu_fig6_runs[("dag", "rr")].sched_overhead_per_app
    assert dag_etf > 20 * dag_rr


def test_fig6_trend_etf_dag_execution_is_the_outlier(zcu_fig6_runs):
    assert (zcu_fig6_runs[("dag", "etf")].mean_exec_time
            > 1.5 * zcu_fig6_runs[("dag", "rr")].mean_exec_time)


def test_fig6_trend_api_exec_above_dag_on_zcu102(zcu_fig6_runs):
    """Thread contention on 3 cores: API-based exec time exceeds DAG-based
    for the fair (RR) scheduler (paper: 350 vs 200 ms)."""
    assert (zcu_fig6_runs[("api", "rr")].mean_exec_time
            > 1.1 * zcu_fig6_runs[("dag", "rr")].mean_exec_time)


def test_fig6_trend_exec_time_rises_to_saturation():
    plat = zcu102(n_cpu=3, n_fft=1, n_mmult=1)
    low = run_once(plat, RC, "dag", 20.0, 1, timing_only("rr")).mean_exec_time
    high = run_once(plat, RC, "dag", SAT_RATE, 1, timing_only("rr")).mean_exec_time
    assert high > 1.5 * low


def test_fig8_trend_api_beats_dag_on_jetson():
    plat = jetson(n_cpu=3, n_gpu=1)
    dag = run_once(plat, RC, "dag", SAT_RATE, 1, timing_only("rr")).mean_exec_time
    api = run_once(plat, RC, "api", SAT_RATE, 1, timing_only("rr")).mean_exec_time
    assert api < dag


def test_fig9_trend_jetson_copes_better_than_zcu():
    wl = av_workload_scaled(ld_batch=64)
    zcu = run_once(zcu102(n_cpu=3, n_fft=8), wl, "api", 300.0, 1, timing_only("heft_rt"))
    jet = run_once(jetson(n_cpu=7), wl, "api", 500.0, 1, timing_only("heft_rt"))
    assert jet.mean_exec_time < zcu.mean_exec_time / 2  # paper: ~650 vs ~2000 ms


def test_fig10a_trend_fft_accelerators_hurt_on_3_cores():
    wl = av_workload_scaled(ld_batch=64)
    exec_at = {
        n: run_once(zcu102(n_cpu=3, n_fft=n), wl, "api", 300.0, 1, timing_only("rr")).mean_exec_time
        for n in (0, 8)
    }
    assert exec_at[8] > 1.3 * exec_at[0]  # more accels, worse exec time


def test_fig10a_trend_rr_degrades_fastest():
    wl = av_workload_scaled(ld_batch=64)
    plat = zcu102(n_cpu=3, n_fft=8)
    rr = run_once(plat, wl, "api", 300.0, 1, timing_only("rr")).mean_exec_time
    heft = run_once(plat, wl, "api", 300.0, 1, timing_only("heft_rt")).mean_exec_time
    assert rr > heft


def test_fig10b_trend_polynomial_minimum_in_cpu_count():
    wl = av_workload_scaled(ld_batch=64)
    exec_at = {
        n: run_once(jetson(n_cpu=n), wl, "api", 500.0, 1, timing_only("rr")).mean_exec_time
        for n in (1, 5, 7)
    }
    assert exec_at[5] < exec_at[1]  # concurrency gain first
    assert exec_at[5] < exec_at[7]  # then worker/app-thread crowding


def test_fig5_reduction_stable_across_seeds():
    """The headline 19.5%-band overhead reduction is not a seed artifact."""
    plat = zcu102(n_cpu=3, n_fft=1)
    for seed in (1, 42, 2026):
        dag = run_once(plat, RC, "dag", SAT_RATE, seed, timing_only("rr"))
        api = run_once(plat, RC, "api", SAT_RATE, seed, timing_only("rr"))
        reduction = (dag.runtime_overhead_per_app - api.runtime_overhead_per_app) \
            / dag.runtime_overhead_per_app
        assert 0.05 < reduction < 0.45, f"seed {seed}: {reduction:.1%}"


def test_etf_collapse_stable_across_seeds():
    plat = zcu102(n_cpu=3, n_fft=1, n_mmult=1)
    for seed in (7, 99):
        dag = run_once(plat, RC, "dag", SAT_RATE, seed, timing_only("etf"))
        api = run_once(plat, RC, "api", SAT_RATE, seed, timing_only("etf"))
        assert dag.sched_overhead_per_app > 20 * api.sched_overhead_per_app, seed
