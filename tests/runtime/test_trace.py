"""Chrome-trace export tests."""

import json

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.faults import FaultConfig, FaultKind, FaultSpec
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.runtime.trace import (
    APP_PID,
    RUNTIME_PID,
    _sanitize,
    to_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture(scope="module")
def finished_runtime():
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=7)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="eft"))
    runtime.start()
    rng = np.random.default_rng(7)
    for i in range(2):
        runtime.submit(PulseDoppler(batch=16).make_instance("api", rng), at=i * 1e-3)
    runtime.seal()
    runtime.run()
    return runtime


def test_trace_structure(finished_runtime):
    trace = to_chrome_trace(finished_runtime.logbook)
    assert "traceEvents" in trace
    assert trace["otherData"]["apps"] == 2
    assert trace["otherData"]["scheduler"] == "eft"
    kinds = {e["ph"] for e in trace["traceEvents"]}
    assert kinds == {"M", "X", "C"}  # metadata, spans, ready-depth counter


def test_trace_has_one_task_event_per_logbook_record(finished_runtime):
    trace = to_chrome_trace(finished_runtime.logbook)
    task_events = [e for e in trace["traceEvents"] if e.get("cat") == "task"]
    assert len(task_events) == len(finished_runtime.logbook.tasks)
    for e in task_events:
        assert e["dur"] > 0
        assert e["ts"] >= 0


def test_trace_app_spans_match_execution_times(finished_runtime):
    trace = to_chrome_trace(finished_runtime.logbook)
    app_events = [e for e in trace["traceEvents"] if e.get("cat") == "app"]
    assert len(app_events) == 2
    for e in app_events:
        assert e["pid"] == APP_PID
        app = finished_runtime.apps[e["tid"]]
        assert e["dur"] == pytest.approx(app.execution_time * 1e6)


def test_trace_queue_wait_precedes_service(finished_runtime):
    trace = to_chrome_trace(finished_runtime.logbook)
    by_task = {}
    for e in trace["traceEvents"]:
        if e.get("cat") in ("task", "queue"):
            by_task.setdefault(e["args"]["task"], {})[e["cat"]] = e
    waited = [v for v in by_task.values() if "queue" in v]
    assert waited, "some task should have waited in the queue"
    for v in waited:
        wait, task = v["queue"], v["task"]
        assert wait["ts"] + wait["dur"] == pytest.approx(task["ts"], rel=1e-9)


def test_write_chrome_trace_roundtrip(finished_runtime, tmp_path):
    path = tmp_path / "run.trace.json"
    out = write_chrome_trace(str(path), finished_runtime.logbook)
    assert out == str(path)
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"
    assert len(loaded["traceEvents"]) > 10


def test_trace_pe_tracks_are_named_and_sorted(finished_runtime):
    trace = to_chrome_trace(finished_runtime.logbook)
    names = [e for e in trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    pe_names = {e["args"]["name"] for e in names if e["pid"] < APP_PID}
    assert pe_names == {f"PE {pe.name} ({pe.kind.value})"
                        for pe in finished_runtime.platform.pes}
    sort_keys = [e for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_sort_index"]
    assert len(sort_keys) == len(finished_runtime.platform.pes)


def test_trace_counter_track_mirrors_scheduler_rounds(finished_runtime):
    trace = to_chrome_trace(finished_runtime.logbook)
    rounds = finished_runtime.logbook.rounds
    tracks = {
        name: [e for e in trace["traceEvents"] if e["ph"] == "C" and e["name"] == name]
        for name in ("ready queue", "sched decisions")
    }
    # both tracks read the logbook's round rows, so a run without telemetry
    # carries the decision track too
    for counters in tracks.values():
        assert len(counters) == len(rounds)
        for e in counters:
            assert e["pid"] == RUNTIME_PID
            assert e["ts"] >= 0
        # counter samples arrive in scheduling order: timestamps never regress
        ts = [e["ts"] for e in counters]
        assert ts == sorted(ts)
    assert [e["args"]["depth"] for e in tracks["ready queue"]] == [r[1] for r in rounds]
    assert tracks["sched decisions"][-1]["args"]["decided"] == sum(r[1] for r in rounds)
    for depth_mark, decision_mark in zip(*tracks.values()):
        assert decision_mark["ts"] <= depth_mark["ts"]  # decided, then dispatched


def test_trace_marks_faults_and_retries():
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=7)
    faults = FaultConfig(
        script=tuple(FaultSpec(at=0.0, pe=pe.name, kind=FaultKind.TRANSIENT)
                     for pe in platform.pes),
        max_retries=8,
    )
    runtime = CedrRuntime(
        platform, RuntimeConfig(scheduler="rr", faults=faults))
    runtime.start()
    runtime.submit(
        PulseDoppler(batch=4).make_instance("api", np.random.default_rng(3)),
        at=0.0)
    runtime.seal()
    runtime.run()

    trace = to_chrome_trace(runtime.logbook)
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert instants and all(e["cat"] == "fault" for e in instants)
    fault_marks = [e for e in instants if e["name"].startswith("fault:")]
    retry_marks = [e for e in instants if e["name"] == "retry"]
    assert len(fault_marks) == runtime.counters.faults_injected > 0
    assert retry_marks, "a recovered run must mark its retry re-dispatch"
    for e in retry_marks:
        assert e["args"]["attempt"] >= 1
    assert trace["otherData"]["retries"] == runtime.counters.retries


def test_sanitize_replaces_non_finite_values():
    messy = {
        "a": float("nan"),
        "b": [1.0, float("inf"), {"c": float("-inf"), "d": "ok"}],
        "e": (2, 3.5),
    }
    clean = _sanitize(messy)
    assert clean == {"a": None, "b": [1.0, None, {"c": None, "d": "ok"}],
                     "e": [2, 3.5]}
    # the sanitized structure must survive a strict (allow_nan=False) dump
    json.dumps(clean, allow_nan=False)


def test_write_chrome_trace_is_strict_json(finished_runtime, tmp_path, monkeypatch):
    # poison a metric with NaN: the writer must sanitize instead of emitting
    # bare NaN tokens that strict JSON parsers reject
    monkeypatch.setattr(finished_runtime.logbook, "makespan", float("nan"))
    path = tmp_path / "nan.trace.json"
    write_chrome_trace(str(path), finished_runtime.logbook)
    loaded = json.loads(path.read_text())
    assert loaded["otherData"]["makespan_ms"] is None
