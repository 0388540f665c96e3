"""Tests for the kill IPC command (DAG-mode application cancellation)."""

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.metrics import RunResult
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig


def start_runtime(scheduler="rr", seed=3):
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler,
                                                  execute_kernels=False))
    runtime.start()
    return runtime


def submit_pd(runtime, at=0.0, seed=3):
    app = PulseDoppler(batch=4).make_instance("dag", np.random.default_rng(seed))
    runtime.submit(app, at=at)
    return app


def test_cancel_mid_run_stops_the_app():
    runtime = start_runtime()
    app = submit_pd(runtime)
    runtime.cancel(app, at=0.02)  # well before the app would finish alone
    runtime.seal()
    runtime.run()
    assert app.cancelled
    assert app.finished
    assert app.t_finish >= 0.02
    # only a fraction of the DAG ever executed
    assert 0 < app.tasks_done < app.tasks_total
    assert runtime.counters.tasks_completed == app.tasks_done


def test_cancel_leaves_other_apps_untouched():
    runtime = start_runtime()
    victim = submit_pd(runtime, seed=3)
    survivor = submit_pd(runtime, seed=4)
    runtime.cancel(victim, at=0.01)
    runtime.seal()
    runtime.run()
    assert victim.cancelled
    assert not survivor.cancelled
    assert survivor.tasks_done == survivor.tasks_total


def test_cancel_after_completion_is_a_noop():
    runtime = start_runtime()
    app = submit_pd(runtime)
    runtime.cancel(app, at=10.0)  # long after natural completion
    runtime.seal()
    runtime.run()
    assert not app.cancelled
    assert app.tasks_done == app.tasks_total


def test_cancel_api_mode_rejected():
    runtime = start_runtime()
    app = PulseDoppler(batch=16).make_instance("api", np.random.default_rng(0))
    runtime.submit(app, at=0.0)
    with pytest.raises(ValueError, match="DAG-mode"):
        runtime.cancel(app, at=0.01)
    runtime.seal()
    runtime.run()


def test_cancel_unsubmitted_app_rejected():
    runtime = start_runtime()
    stranger = PulseDoppler(batch=16).make_instance("dag", np.random.default_rng(0))
    with pytest.raises(KeyError):
        runtime.cancel(stranger, at=0.0)
    runtime.seal()
    runtime.run()


def test_cancel_another_runtimes_app_rejected():
    """App ids are per run: another runtime's app 0 is not this one's app 0."""
    mine, theirs = start_runtime(), start_runtime()
    submit_pd(mine)
    stranger = submit_pd(theirs)
    assert stranger.app_id in mine.apps
    with pytest.raises(KeyError, match="never submitted to this runtime"):
        mine.cancel(stranger, at=0.0)
    for runtime in (mine, theirs):
        runtime.seal()
        runtime.run()


def test_submit_refuses_an_instance_another_run_numbered():
    """Renumbering a submitted instance would corrupt its first run's record."""
    first, second = start_runtime(), start_runtime()
    app = submit_pd(first)
    with pytest.raises(ValueError, match=r"^app PD#0 was already submitted to a runtime$"):
        second.submit(app, at=0.0)
    assert app.app_id == 0 and first.apps == {0: app} and second.apps == {}
    for runtime in (first, second):
        runtime.seal()
        runtime.run()


def test_run_result_excludes_cancelled_apps():
    runtime = start_runtime()
    victim = submit_pd(runtime, seed=3)
    survivor = submit_pd(runtime, seed=4)
    runtime.cancel(victim, at=0.01)
    runtime.seal()
    runtime.run()
    result = RunResult.from_runtime(runtime)
    assert result.n_apps == 1
    assert result.n_cancelled == 1
    assert len(result.exec_times) == 1


def test_cancelled_app_frees_capacity():
    """Killing one of two apps must speed the survivor up."""
    def survivor_exec(cancel: bool) -> float:
        runtime = start_runtime()
        victim = submit_pd(runtime, seed=3)
        survivor = submit_pd(runtime, seed=4)
        if cancel:
            runtime.cancel(victim, at=0.005)
        runtime.seal()
        runtime.run()
        return survivor.execution_time

    assert survivor_exec(cancel=True) < survivor_exec(cancel=False)
