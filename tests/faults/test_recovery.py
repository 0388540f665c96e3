"""Recovery-policy tests: retry exhaustion, quarantine, shutdown drain."""

import numpy as np

from repro.apps import PulseDoppler, WifiTx
from repro.core import wait_all
from repro.faults import FaultConfig, FaultKind, FaultSpec, TaskLostError
from repro.metrics import RunResult
from repro.platforms import zcu102
from repro.runtime import (
    API_MODE, AppInstance, CedrRuntime, CompletionHandle, RuntimeConfig, Task,
)


def build_runtime(config, scheduler="rr", seed=3, n_cpu=3, n_fft=1):
    platform = zcu102(n_cpu=n_cpu, n_fft=n_fft).build(seed=seed)
    runtime = CedrRuntime(
        platform,
        RuntimeConfig(scheduler=scheduler, execute_kernels=False, faults=config),
    )
    runtime.start()
    return runtime


def all_pe_specs(kind, at=0.0, n_cpu=3, n_fft=1):
    names = [f"cpu{i}" for i in range(n_cpu)] + [f"fft{i}" for i in range(n_fft)]
    return tuple(FaultSpec(at=at, pe=n, kind=kind) for n in names)


def submit_pd(runtime, mode="api", at=0.0, seed=3, batch=4):
    app = PulseDoppler(batch=batch).make_instance(mode, np.random.default_rng(seed))
    runtime.submit(app, at=at)
    return app


# -- retry exhaustion ----------------------------------------------------- #

def test_retry_exhaustion_fails_api_app():
    # zero retry budget + a forced transient on every PE: the first task to
    # complete is lost and its application must fail, unwinding the app
    # thread cleanly (the run terminates with the app finished-but-failed)
    cfg = FaultConfig(script=all_pe_specs(FaultKind.TRANSIENT), max_retries=0)
    runtime = build_runtime(cfg)
    app = submit_pd(runtime, mode="api")
    runtime.seal()
    runtime.run()
    assert app.finished and app.failed and not app.cancelled
    assert runtime.logbook.incident_counts()["lost"] == 1
    result = RunResult.from_runtime(runtime)
    assert result.n_failed == 1 and result.n_apps == 0
    assert result.goodput == 0.0


def test_retry_exhaustion_fails_dag_app():
    cfg = FaultConfig(script=all_pe_specs(FaultKind.TRANSIENT), max_retries=0)
    runtime = build_runtime(cfg)
    app = submit_pd(runtime, mode="dag")
    runtime.seal()
    runtime.run()
    assert app.finished and app.failed
    assert app.tasks_done < app.tasks_total
    assert RunResult.from_runtime(runtime).goodput == 0.0


def test_failed_app_does_not_poison_others():
    # one pending transient on cpu0: the early app runs alone and consumes
    # it (failing at zero retry budget) long before the late app arrives
    cfg = FaultConfig(
        script=(FaultSpec(at=0.0, pe="cpu0", kind=FaultKind.TRANSIENT),),
        max_retries=0,
    )
    runtime = build_runtime(cfg)
    victim = submit_pd(runtime, at=0.0, seed=3)
    survivor = submit_pd(runtime, at=0.05, seed=4)
    runtime.seal()
    runtime.run()
    assert victim.failed
    assert not survivor.failed and survivor.finished
    result = RunResult.from_runtime(runtime)
    assert result.n_apps == 1 and result.n_failed == 1
    assert result.goodput == 0.5


def test_lost_task_fails_app_and_late_waits_still_raise():
    """A lost task fails its application with the same record and result
    as when the stored error was raised itself, and a late ``wait()`` on
    any settled handle still raises it.  What a waiter catches is a copy:
    the stored error never carries an application thread's frames (they
    reference the client, hence the runtime, which holds the handle)."""
    runtime = build_runtime(
        FaultConfig(script=all_pe_specs(FaultKind.TRANSIENT), max_retries=0)
    )
    vec = np.ones(64, dtype=complex)
    handles = []

    def main(lib):
        for _ in range(6):
            handles.append((yield from lib.zip_nb(vec, vec)))
        yield from wait_all(handles)

    app = AppInstance(name="lossy", mode=API_MODE, frame_mb=0.1, main_factory=main)
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    assert app.finished and app.failed
    first = handles[0]._task.tid
    rows = [
        (i.t.hex(), i.kind, i.detail, i.pe, i.tid - first if i.tid >= 0 else -1, i.attempt)
        for i in runtime.logbook.incidents
    ]
    lost_at = "0x1.6bef4082e597bp-9"
    assert rows == [("0x0.0p+0", "fault", "transient", pe, -1, 0)
                    for pe in ("cpu0", "cpu1", "cpu2", "fft0")] + [
        (lost_at, "failure", "transient", "cpu0", 0, 0),
        (lost_at, "quarantine", "", "cpu0", -1, 0),
        (lost_at, "lost", "", "", 0, 0),
    ]
    assert RunResult.from_runtime(runtime) == RunResult(
        n_apps=0, n_cancelled=0, exec_times=(), exec_times_by_app={},
        runtime_overhead_s=0.0027813726144, sched_overhead_s=1.8e-07,
        sched_rounds=1, ready_depth_mean=1.0, ready_depth_max=1,
        makespan=0.0030361004799999993, tasks_completed=0, pe_task_histogram={},
        n_failed=1, faults_injected=4, task_failures=1, retries=0, tasks_lost=1,
        mean_time_to_recovery=0.0,
    )

    late = {}

    def late_wait(k):
        try:
            yield from handles[k].wait()
        except TaskLostError as exc:
            late[k] = str(exc)

    for k in range(len(handles)):
        runtime.engine.spawn(late_wait(k), name=f"late-{k}")
    runtime.engine.run()
    assert late == {
        0: f"task {first} (zip:zip#1) of app lossy#{app.app_id} lost after 0 retries",
        **{k: f"task {first + k} (zip:zip#{k + 1}) dropped: application "
              f"{app.app_id} was cancelled or failed" for k in range(1, 6)},
    }
    stored = [h._task.completion.error for h in handles]
    assert [str(e) for e in stored] == [late[k] for k in range(6)]
    assert all(type(e) is TaskLostError and e.__traceback__ is None for e in stored)


def test_goodput_counts_only_fault_failures():
    # cancelled apps are excluded from goodput entirely
    r = RunResult(
        n_apps=8, n_cancelled=2, exec_times=(), exec_times_by_app={},
        runtime_overhead_s=0.0, sched_overhead_s=0.0, sched_rounds=0,
        ready_depth_mean=0.0, ready_depth_max=0, makespan=1.0,
        tasks_completed=0, n_failed=2,
    )
    assert r.goodput == 0.8


# -- quarantine + parking ------------------------------------------------- #

def test_quarantine_parks_and_revives_on_single_pe_platform():
    # one CPU, forced transient: the only PE gets quarantined, the retried
    # task has nowhere to go and parks, then the revival timer brings the
    # PE back and the run completes
    cfg = FaultConfig(
        script=(FaultSpec(at=0.0, pe="cpu0", kind=FaultKind.TRANSIENT),),
        quarantine_s=2e-3,
    )
    runtime = build_runtime(cfg, n_cpu=1, n_fft=0)
    app = submit_pd(runtime)
    runtime.seal()
    runtime.run()
    assert app.finished and not app.failed
    counts = runtime.logbook.incident_counts()
    assert counts["quarantine"] >= 1
    assert counts["revival"] >= 1
    assert runtime.counters.retries >= 1


def test_watchdog_false_positive_does_not_quarantine():
    # a pure hang is recovered by the watchdog; watchdog suspicion alone
    # must not shrink the live mask (only worker-confirmed faults do)
    cfg = FaultConfig(
        script=(FaultSpec(at=0.0, pe="cpu0", kind=FaultKind.HANG),),
        hang_s=0.5,
    )
    runtime = build_runtime(cfg)
    app = submit_pd(runtime)
    runtime.seal()
    runtime.run()
    assert app.finished and not app.failed
    failures = [i.detail for i in runtime.logbook.incidents if i.kind == "failure"]
    if "watchdog" in failures:
        assert runtime.logbook.incident_counts()["quarantine"] == failures.count("hang")


# -- shutdown drain (regression: these hung before the drain fixes) ------- #

def test_sealed_runtime_drains_retried_final_task():
    # the app's very first/last task fails wherever it first runs; the
    # sealed runtime must keep running until the retry completes instead
    # of deadlocking at shutdown
    cfg = FaultConfig(script=all_pe_specs(FaultKind.TRANSIENT), max_retries=8)
    runtime = build_runtime(cfg)
    app = submit_pd(runtime, batch=2)
    runtime.seal()
    runtime.run()
    assert app.finished and not app.failed
    assert runtime.counters.retries >= 1


def test_sealed_runtime_drains_stale_hang_dispatch():
    # a hang stolen by the watchdog leaves a stale dispatch whose silent
    # discard used to be the last in-flight work: the daemon must still
    # wake up and shut down
    cfg = FaultConfig(script=all_pe_specs(FaultKind.HANG), hang_s=0.5,
                      max_retries=8)
    runtime = build_runtime(cfg)
    app = submit_pd(runtime)
    runtime.seal()
    runtime.run()
    assert app.finished and not app.failed


def test_stochastic_run_terminates_and_recovers():
    # rate-driven faults with every recoverable kind active: the run must
    # terminate (the injector disarms at shutdown) with sane accounting
    cfg = FaultConfig(rate=30.0, seed=11)
    runtime = build_runtime(cfg, scheduler="eft")
    rng = np.random.default_rng(3)
    for i in range(3):
        runtime.submit(WifiTx(batch=5).make_instance("api", rng), at=i * 1e-3)
    runtime.seal()
    runtime.run()
    c = runtime.counters
    # dropped tasks of already-failed apps record a failure but neither a
    # retry nor a loss, so the identity is an inequality
    assert c.retries + runtime.logbook.incident_counts()["lost"] <= c.task_failures
    finished = [a for a in runtime.apps.values() if a.finished]
    assert len(finished) == 3
    result = RunResult.from_runtime(runtime)
    assert result.n_apps + result.n_failed == 3


# -- fail-stop re-triage of parked tasks --------------------------------- #

def test_pe_death_retriages_parked_tasks_by_support_row():
    """A fail-stop re-triages what is parked: a task with a surviving
    (merely quarantined) supporter stays parked, a task whose every
    supporter is now dead is lost with its application - decided from the
    interned row's supporting columns, like the pre-round partition."""
    runtime = build_runtime(FaultConfig(rate=1.0, seed=0), n_cpu=2, n_fft=1)
    main = lambda lib: iter(())  # never runs: the apps are only registered
    keeps = AppInstance(name="keeps", mode="api", frame_mb=0.1, main_factory=main, app_id=0)
    loses = AppInstance(name="loses", mode="api", frame_mb=0.1, main_factory=main, app_id=1)
    runtime.apps.update({keeps.app_id: keeps, loses.app_id: loses})
    engine = runtime.engine
    on_fft = Task(api="fft", params={"n": 64, "batch": 1}, app_id=keeps.app_id,
                  completion=CompletionHandle(engine))
    cpu_only = Task(api="zip", params={"n": 64}, app_id=loses.app_id,
                    completion=CompletionHandle(engine))
    runtime._parked = [on_fft, cpu_only]
    for pe in runtime.platform.pes:
        pe.available = False                      # all quarantined ...
        pe.dead = pe.name.startswith("cpu")       # ... and both CPUs gone

    for _ in runtime._handle_pe_dead(runtime.platform.pes[0]):
        pass  # bookkeeping charges; nothing here needs the engine to run

    assert runtime._parked == [on_fft]            # fft0 may yet revive
    assert not on_fft.completion.done and not keeps.failed
    assert loses.failed and runtime.logbook.incident_counts()["lost"] == 1
    assert isinstance(cpu_only.completion.error, TaskLostError)
