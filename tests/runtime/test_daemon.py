"""End-to-end CEDR runtime tests for both programming models."""

import numpy as np
import pytest

from repro.dag import DagBuilder
from repro.metrics import RunResult
from repro.platforms import zcu102
from repro.runtime import (
    API_MODE,
    DAG_MODE,
    AppInstance,
    CedrRuntime,
    RuntimeConfig,
)
from repro.sched import paper_schedulers
from repro.simcore import SimStateError


def tiny_dag_program(data):
    b = DagBuilder("tiny")
    b.cpu("init", lambda s: s.__setitem__("x", data.copy()), 1e-6)
    b.kernel("f", "fft", {"n": data.size}, ["x"], "X", after=["init"])
    b.kernel("z", "zip", {"n": data.size}, ["X", "X"], "P", after=["f"])
    b.kernel("i", "ifft", {"n": data.size}, ["P"], "y", after=["z"])
    return b.build()


def api_main_factory(data):
    def main(lib):
        spec = yield from lib.fft(data)
        prod = yield from lib.zip(spec, spec)
        out = yield from lib.ifft(prod)
        return out
    return main


def build_runtime(scheduler="eft", **config_kw):
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=2)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler, **config_kw))
    runtime.start()
    return runtime


@pytest.fixture
def data(rng):
    return rng.normal(size=64) + 1j * rng.normal(size=64)


@pytest.fixture
def expected(data):
    return np.fft.ifft(np.fft.fft(data) ** 2)


@pytest.mark.parametrize("scheduler", paper_schedulers())
def test_dag_mode_executes_correctly(scheduler, data, expected):
    rt = build_runtime(scheduler)
    app = AppInstance(name="t", mode=DAG_MODE, frame_mb=0.1, dag=tiny_dag_program(data))
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()
    assert np.allclose(app.state["y"], expected, atol=1e-8)
    assert app.finished
    assert app.tasks_done == app.tasks_total == 4


@pytest.mark.parametrize("scheduler", paper_schedulers())
def test_api_mode_executes_correctly(scheduler, data, expected):
    rt = build_runtime(scheduler)
    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1,
                      main_factory=api_main_factory(data))
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()
    assert np.allclose(app.result, expected, atol=1e-8)
    assert app.tasks_total == 3


def test_dag_dependencies_respected_in_time(data):
    rt = build_runtime()
    app = AppInstance(name="t", mode=DAG_MODE, frame_mb=0.1, dag=tiny_dag_program(data))
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()
    recs = {r.name: r for r in rt.logbook.tasks}
    assert recs["init"].t_finish <= recs["f"].t_start
    assert recs["f"].t_finish <= recs["z"].t_start
    assert recs["z"].t_finish <= recs["i"].t_start


def test_every_task_runs_exactly_once(data):
    rt = build_runtime()
    apps = []
    for i in range(4):
        app = AppInstance(name=f"t{i}", mode=DAG_MODE, frame_mb=0.1,
                          dag=tiny_dag_program(data))
        apps.append(app)
        rt.submit(app, at=i * 1e-4)
    rt.seal()
    rt.run()
    tids = [r.tid for r in rt.logbook.tasks]
    assert len(tids) == len(set(tids)) == 16
    assert rt.counters.tasks_completed == 16


def test_arrival_time_respected(data):
    rt = build_runtime()
    app = AppInstance(name="late", mode=API_MODE, frame_mb=0.1,
                      main_factory=api_main_factory(data))
    rt.submit(app, at=0.05)
    rt.seal()
    rt.run()
    assert app.t_arrival == pytest.approx(0.05)
    assert app.t_launch >= 0.05
    assert app.execution_time > 0


def test_overheads_accumulate(data):
    rt = build_runtime()
    app = AppInstance(name="t", mode=DAG_MODE, frame_mb=0.1, dag=tiny_dag_program(data))
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()
    result = RunResult.from_runtime(rt)
    assert result.runtime_overhead_s > 0
    assert result.sched_overhead_s > 0
    assert result.makespan == rt.logbook.makespan > 0
    assert len(rt.logbook.closed) == 1


def test_all_threads_finish_on_shutdown(data):
    rt = build_runtime()
    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1,
                      main_factory=api_main_factory(data))
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()  # strict mode would raise if workers were left blocked
    assert not rt.engine.threads  # the engine holds live threads only


def test_submit_after_seal_rejected(data):
    rt = build_runtime()
    rt.seal()
    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1,
                      main_factory=api_main_factory(data))
    with pytest.raises(RuntimeError, match="sealed"):
        rt.submit(app, at=0.0)


def test_double_start_rejected():
    rt = build_runtime()
    with pytest.raises(RuntimeError, match="already started"):
        rt.start()
    rt.seal()
    rt.run()


def test_empty_workload_shuts_down_cleanly():
    rt = build_runtime()
    rt.seal()
    assert rt.run() >= 0.0
    assert rt.logbook.closed == []


@pytest.mark.parametrize("after_kick", [False, True], ids=["alone", "after-kick"])
def test_unknown_daemon_event_kind_raises(after_kick):
    """The daemon tests ``task_done`` and ``kick`` first; a kind outside the
    protocol still ends in the error, alone or behind a doorbell."""
    rt = build_runtime()
    if after_kick:
        rt.events.post(("kick", None))
    rt.events.post(("bogus", None))
    rt.seal()
    with pytest.raises(SimStateError, match="unknown daemon event 'bogus'"):
        rt.run()


def test_timing_only_mode_skips_execution(data):
    rt = build_runtime(execute_kernels=False)

    def main(lib):
        # timing-only runs return None; pass same-shaped stand-ins forward
        spec = (yield from lib.fft(data)) or data
        prod = (yield from lib.zip(spec, spec)) or data
        out = yield from lib.ifft(prod)
        return out

    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main)
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()
    assert app.result is None        # kernels not evaluated
    assert app.finished              # but the timing pipeline completed
    assert rt.counters.tasks_completed == 3


def test_cost_noise_changes_timing_not_results(data, expected):
    def run(sigma):
        rt = build_runtime(cost_noise_sigma=sigma)
        app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1,
                          main_factory=api_main_factory(data))
        rt.submit(app, at=0.0)
        rt.seal()
        rt.run()
        return app

    clean = run(0.0)
    noisy = run(0.2)
    assert np.allclose(noisy.result, expected, atol=1e-8)
    assert clean.execution_time != noisy.execution_time


def test_same_seed_reproduces_timeline(data):
    def run():
        rt = build_runtime(cost_noise_sigma=0.1)
        app = AppInstance(name="t", mode=DAG_MODE, frame_mb=0.1,
                          dag=tiny_dag_program(data))
        rt.submit(app, at=0.0)
        rt.seal()
        rt.run()
        return app.execution_time

    assert run() == run()


def test_mixed_modes_in_one_run(data, expected):
    rt = build_runtime()
    dag_app = AppInstance(name="d", mode=DAG_MODE, frame_mb=0.1,
                          dag=tiny_dag_program(data))
    api_app = AppInstance(name="a", mode=API_MODE, frame_mb=0.1,
                          main_factory=api_main_factory(data))
    rt.submit(dag_app, at=0.0)
    rt.submit(api_app, at=0.0)
    rt.seal()
    rt.run()
    assert np.allclose(dag_app.state["y"], expected, atol=1e-8)
    assert np.allclose(api_app.result, expected, atol=1e-8)


def test_sched_period_ablation_knob(data):
    """A forced scheduling epoch delays dispatch; execution time grows."""
    def run(period):
        platform = zcu102(n_cpu=3, n_fft=1).build(seed=2)
        rt = CedrRuntime(platform, RuntimeConfig(scheduler="eft", sched_period_s=period))
        rt.start()
        app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1,
                          main_factory=api_main_factory(data))
        rt.submit(app, at=0.0)
        rt.seal()
        rt.run()
        return app.execution_time

    assert run(2e-3) > run(0.0)


# --------------------------------------------------------------------- #
# simulator event core plumbing
# --------------------------------------------------------------------- #

def test_event_core_stats_in_perf_snapshot(data, expected):
    rt = build_runtime()
    app = AppInstance(name="t", mode=DAG_MODE, frame_mb=0.1, dag=tiny_dag_program(data))
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()
    assert np.allclose(app.state["y"], expected, atol=1e-8)
    snapshot = rt.counters.snapshot()
    snap = snapshot["event_core"]
    assert set(snap) == {
        "late_timers", "timers_fired", "drain_batches", "mean_batch", "occupancy_hwm",
        "instants",
    }
    assert 0 < snap["instants"] <= snapshot["engine_events"]
    assert snap["timers_fired"] > 0
    assert snap["drain_batches"] > 0
    assert snap["mean_batch"] >= 1.0
    assert snap["occupancy_hwm"] >= 1
    assert snap["late_timers"] == 0


def test_late_timer_clamps_after_shutdown_leave_the_registry_alone(data):
    """The registry is a fold of the logbook taken at shutdown: a clamp the
    engine counts afterwards is in neither."""
    from repro.telemetry import TelemetryConfig

    rt = build_runtime(telemetry=TelemetryConfig())
    app = AppInstance(name="t", mode=DAG_MODE, frame_mb=0.1, dag=tiny_dag_program(data))
    rt.submit(app, at=0.0)
    rt.seal()
    rt.run()
    eng = rt.engine
    assert eng.now > 0.0
    eng.call_at(0.0, lambda: None)  # in the past: clamped + counted
    assert eng.late_timers == 1
    assert rt.logbook.late_timers == []
    assert rt.telemetry.registry.flat()["simcore_late_timers_total"] == 0
