"""End-to-end fault-injection tests, one per fault kind (scripted faults)."""

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.faults import FaultConfig, FaultKind, FaultSpec
from repro.metrics import RunResult
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig


def scripted(*specs, **kwargs):
    return FaultConfig(script=tuple(specs), **kwargs)


def run_pd(config, scheduler="rr", seed=3, n_cpu=3, n_fft=1, execute=False,
           mode="api", apps=1):
    platform = zcu102(n_cpu=n_cpu, n_fft=n_fft).build(seed=seed)
    runtime = CedrRuntime(
        platform,
        RuntimeConfig(scheduler=scheduler, execute_kernels=execute, faults=config),
    )
    runtime.start()
    rng = np.random.default_rng(seed)
    for i in range(apps):
        runtime.submit(PulseDoppler(batch=4).make_instance(mode, rng), at=i * 1e-3)
    runtime.seal()
    runtime.run()
    return runtime


def all_pe_specs(kind, at=0.0, n_cpu=3, n_fft=1):
    names = [f"cpu{i}" for i in range(n_cpu)] + [f"fft{i}" for i in range(n_fft)]
    return [FaultSpec(at=at, pe=n, kind=kind) for n in names]


def test_transient_fault_is_detected_and_retried():
    # a forced transient on every PE: the retried task is banned from each
    # PE it failed on, so it deterministically absorbs every pending
    # transient - the budget must cover all of them for a clean finish
    runtime = run_pd(scripted(*all_pe_specs(FaultKind.TRANSIENT), max_retries=8))
    c = runtime.counters
    failures = [i.detail for i in runtime.logbook.incidents if i.kind == "failure"]
    assert failures.count("transient") >= 1
    assert c.retries >= 1
    assert runtime.logbook.incident_counts()["lost"] == 0
    result = RunResult.from_runtime(runtime)
    assert result.n_apps == 1 and result.n_failed == 0
    assert result.goodput == 1.0
    assert result.mean_time_to_recovery > 0.0


def test_transient_recovery_with_functional_execution():
    # same scenario with kernels actually executing: the retried task's
    # completion handle must still deliver a result to the app thread
    runtime = run_pd(scripted(*all_pe_specs(FaultKind.TRANSIENT), max_retries=8),
                     execute=True)
    assert runtime.counters.retries >= 1
    app = next(iter(runtime.apps.values()))
    assert app.finished and not app.failed
    assert app.tasks_done == app.tasks_total


def test_hang_fault_recovers_via_watchdog_or_timeout():
    runtime = run_pd(scripted(*all_pe_specs(FaultKind.HANG), max_retries=8))
    c = runtime.counters
    kinds = {i.detail for i in runtime.logbook.incidents if i.kind == "failure"}
    assert kinds & {"hang", "watchdog"}
    assert c.retries >= 1
    result = RunResult.from_runtime(runtime)
    assert result.n_apps == 1 and result.n_failed == 0


def test_failstop_kills_pe_permanently():
    spec = FaultSpec(at=0.0, pe="fft0", kind=FaultKind.FAILSTOP)
    runtime = run_pd(scripted(spec), scheduler="eft")
    fft0 = next(pe for pe in runtime.platform.pes if pe.name == "fft0")
    assert fft0.dead and not fft0.available
    result = RunResult.from_runtime(runtime)
    assert result.n_apps == 1 and result.n_failed == 0
    assert result.pe_task_histogram.get("fft0", 0) == 0


def test_slowdown_stretches_makespan():
    base = run_pd(None, n_cpu=1, n_fft=0)
    slow = run_pd(
        scripted(FaultSpec(at=0.0, pe="cpu0", kind=FaultKind.SLOWDOWN),
                 slowdown_factor=8.0, slowdown_s=0.5),
        n_cpu=1, n_fft=0,
    )
    assert slow.logbook.makespan > base.logbook.makespan * 1.5
    assert [i.detail for i in slow.logbook.incidents if i.kind == "fault"].count("slowdown") == 1
    # the degradation window ended (or the run outlived it): factor reset
    cpu0 = next(pe for pe in slow.platform.pes if pe.name == "cpu0")
    assert slow.counters.tasks_completed > 0
    assert cpu0.fault_slow_factor in (1.0, 8.0)


def test_injector_logs_applied_faults():
    runtime = run_pd(scripted(*all_pe_specs(FaultKind.TRANSIENT), max_retries=8))
    incidents = runtime.logbook.incidents
    faults = [i for i in incidents if i.kind == "fault"]
    assert faults, "forced scripted faults must be logged"
    assert all(i.detail == FaultKind.TRANSIENT.value and i.pe for i in faults)
    redispatches = [i for i in incidents if i.kind == "redispatch"]
    assert redispatches, "a retry re-dispatch must be logged"
    first = redispatches[0]
    assert first.attempt >= 1 and first.t >= 0.0 and first.tid >= 0 and first.pe


def test_scripted_fault_on_unknown_pe_is_rejected():
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    cfg = scripted(FaultSpec(at=0.0, pe="gpu7", kind=FaultKind.TRANSIENT))
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="rr", faults=cfg))
    with pytest.raises(ValueError, match="unknown PE 'gpu7'"):
        runtime.start()


def test_stream_faults_on_idle_pes_are_dropped():
    # a rate-driven transient landing on an idle PE has no task to corrupt;
    # an empty runtime must absorb the whole stream without any failure
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    cfg = FaultConfig(rate=200.0, seed=1,
                      kinds=(FaultKind.TRANSIENT, FaultKind.HANG))
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="rr", faults=cfg))
    runtime.start()
    runtime.seal()
    runtime.run()
    assert runtime.counters.faults_injected == 0
    assert runtime.counters.task_failures == 0
