"""Instrumentation integration: the runtime writes what the catalog promises."""

import pytest

from repro.apps import PulseDoppler
from repro.experiments import run_once
from repro.faults import FaultConfig
from repro.runtime import RuntimeConfig
from repro.telemetry import CedrTelemetry, TelemetryConfig
from repro.workload import WorkloadEntry, WorkloadSpec

PD1 = WorkloadSpec("pd1", (WorkloadEntry(PulseDoppler(batch=8), 1),))


def run_metered(platform, workload=PD1, interval=0.0, faults=None, seed=3):
    config = RuntimeConfig(
        scheduler="eft", execute_kernels=False, faults=faults,
        telemetry=TelemetryConfig(sample_interval_s=interval),
    )
    return run_once(platform, workload, "api", 200.0, seed, config)


def _series(result, name):
    return {tuple(s["labels"].values()): s
            for s in result.telemetry["metrics"][name]["series"]}


def test_catalog_shape_is_run_invariant():
    # a zero-task telemetry object already exports every family
    t = CedrTelemetry(TelemetryConfig(), pe_names=("cpu0", "fft0"))
    names = [f.name for f in t.registry.families()]
    assert len(names) == len(set(names)) == 22
    assert set(_series_keys(t, "cedr_pe_dispatch_total")) == {("cpu0",), ("fft0",)}


def _series_keys(telemetry, name):
    return [key for key, _ in telemetry.registry.get(name).series()]


def test_runtime_counts_match_run_result(zcu_small):
    result = run_metered(zcu_small)
    metrics = result.telemetry["metrics"]

    def scalar(name):
        (entry,) = metrics[name]["series"]
        return entry["value"]

    assert scalar("cedr_tasks_completed") == result.tasks_completed
    assert scalar("cedr_sched_rounds") == result.sched_rounds
    assert scalar("cedr_apps_completed") == result.n_apps
    assert scalar("cedr_api_inflight_requests") == 0  # all calls settled
    # per-PE dispatches sum to the global task count and mirror placement
    dispatch = _series(result, "cedr_pe_dispatch_total")
    assert sum(e["value"] for e in dispatch.values()) == result.tasks_completed
    for pe, count in result.pe_task_histogram.items():
        assert dispatch[(pe,)]["value"] == count


def test_api_call_instrumentation(zcu_small):
    result = run_metered(zcu_small)
    calls = _series(result, "cedr_api_calls_total")
    assert calls, "no API calls recorded"
    assert {mode for _, mode in calls} <= {"blocking", "nonblocking"}
    latency = _series(result, "cedr_api_call_latency_seconds")
    for key, entry in calls.items():
        assert latency[key]["count"] == entry["value"]
        assert latency[key]["sum"] > 0.0


def test_sched_latency_histogram_counts_every_assignment(zcu_small):
    result = run_metered(zcu_small)
    (lat,) = result.telemetry["metrics"]["cedr_sched_latency_seconds"]["series"]
    assert lat["count"] == result.tasks_completed


def test_periodic_sampler_tick_spacing(zcu_small):
    interval = 0.005
    result = run_metered(zcu_small, interval=interval)
    ts = [s["t"] for s in result.telemetry["samples"]]
    assert len(ts) >= 3
    assert ts == sorted(ts)
    # interior samples land exactly on the interval grid; the last one is
    # the shutdown-time final snapshot at the makespan
    for i, t in enumerate(ts[:-1]):
        assert t == pytest.approx((i + 1) * interval)
    assert ts[-1] == pytest.approx(result.makespan)


def test_final_snapshot_always_taken_without_interval(zcu_small):
    result = run_metered(zcu_small, interval=0.0)
    samples = result.telemetry["samples"]
    assert len(samples) == 1
    assert samples[0]["values"]["cedr_tasks_completed"] == result.tasks_completed


def test_pe_utilization_derived_at_snapshot(zcu_small):
    result = run_metered(zcu_small)
    util = _series(result, "cedr_pe_utilization")
    busy = _series(result, "cedr_pe_busy_seconds_total")
    for key, entry in util.items():
        assert 0.0 <= entry["value"] <= 1.0 + 1e-9
        assert entry["value"] == pytest.approx(
            busy[key]["value"] / result.makespan
        )


def test_fault_layer_bridges_into_registry(zcu_small):
    result = run_metered(
        zcu_small, interval=0.0,
        faults=FaultConfig(rate=40.0, seed=11),
    )
    metrics = result.telemetry["metrics"]
    injected = sum(
        s["value"] for s in metrics["cedr_faults_injected_total"]["series"]
    )
    assert injected == result.faults_injected > 0
    failures = sum(
        s["value"] for s in metrics["cedr_task_failures_total"]["series"]
    )
    assert failures == result.task_failures
    (retries,) = metrics["cedr_task_retries_total"]["series"]
    assert retries["value"] == result.retries


def test_label_children_are_made_once_per_run(zcu_small, monkeypatch):
    """The fold reads every child through ``MetricFamily.labels()``, one
    dict hit once the child exists: the number of children *made* in a run
    is a function of the catalog (PE names at construction, distinct
    (api, mode) pairs on first sight), not of how many tasks or libCEDR
    calls the run processes."""
    from repro.telemetry import registry as registry_mod

    counter = {"n": 0}
    real = registry_mod.MetricFamily._make

    def counted(self):
        counter["n"] += 1
        return real(self)

    monkeypatch.setattr(registry_mod.MetricFamily, "_make", counted)
    small = WorkloadSpec("pd1", (WorkloadEntry(PulseDoppler(batch=8), 1),))
    big = WorkloadSpec("pd4", (WorkloadEntry(PulseDoppler(batch=8), 4),))

    counter["n"] = 0
    r_small = run_metered(zcu_small, workload=small)
    n_small = counter["n"]
    counter["n"] = 0
    r_big = run_metered(zcu_small, workload=big)
    n_big = counter["n"]

    assert r_big.tasks_completed > r_small.tasks_completed
    assert n_small > 0  # construction pre-touches every PE's children
    assert n_big == n_small


def test_a_pe_first_seen_in_a_row_gets_every_per_pe_series():
    """A PE missing from ``pe_names`` still gets its dispatch, busy and
    utilization series, and each sample derives its utilization."""
    t = CedrTelemetry(TelemetryConfig(), pe_names=("cpu0",))
    t.record_tasks([("gpu0", 0.5)])
    values = t.sample(2.0)["values"]
    assert values["cedr_pe_dispatch_total{pe=gpu0}"] == 1.0
    assert values["cedr_pe_busy_seconds_total{pe=gpu0}"] == 0.5
    assert values["cedr_pe_utilization{pe=gpu0}"] == 0.25
    assert values["cedr_pe_utilization{pe=cpu0}"] == 0.0
