"""The deletion stays deleted: one book per run.

A task completion used to be written four times in a row
(``counters.record_task``, ``telemetry.record_task``, the auditor, the
logbook), a scheduling round three times, a fault event into three stores,
and four audit clauses existed only to check the copies agreed - all held up
by two ``RuntimeConfig`` switches nothing ever turned off.  The ``Logbook``
is now the only record a run writes; ``PerfCounters``' simulated numbers,
``RunResult``, the trace, the Gantt chart and the audit are reads of
it.  These checks fail the moment a second tally, its switch or its
reconciliation clause creeps back in, and pin the view's numbers to the
ones the stored tallies gave at the parent commit.  The metric registry is
a read too: a fold of the rows at shutdown, with no live feed.  So are the
results: ``RunResult.from_logbook`` and ``ServeResult.from_logbook`` fold
a saved dump to the very result the live run returned, with no
``RunMetrics`` and no serve-driver tallies left to keep in step.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import repro
import repro.audit
import repro.faults
import repro.runtime
import repro.serve.driver
import repro.telemetry
from repro.faults import FaultInjector
from repro.metrics import RunResult
from repro.runtime import CedrRuntime, Logbook, PerfCounters, RuntimeConfig
from repro.serve import ArrivalSpec, ServeConfig, ServeDriver, TenantSpec
from repro.telemetry import CedrTelemetry

from one_book_cells import CELLS, record, run_cell

SRC = Path(repro.__file__).parent
GOLDEN = Path(__file__).parent / "golden_one_book.json"

#: every simulated number ``PerfCounters`` answers for - now read-only
SIMULATED = (
    "tasks_completed", "apps_completed", "per_pe", "sched_rounds",
    "ready_depth_sum", "ready_depth_max", "ready_depth_mean",
    "faults_injected", "faults_by_kind", "task_failures", "failures_by_kind",
    "retries", "tasks_lost", "stale_dispatches", "pe_quarantines",
    "pe_revivals", "recoveries", "mean_time_to_recovery",
)


def test_the_switches_and_second_tallies_are_gone():
    names = {f.name for f in dataclasses.fields(RuntimeConfig)}
    assert not names & {"enable_perf_counters", "log_tasks"}
    assert len(names) == 9
    assert not hasattr(RuntimeConfig, "timing_only")
    assert not hasattr(repro.runtime, "PECounters")
    assert not hasattr(repro.faults, "RetryRecord")
    assert not {"records", "retry_records"} & set(vars(FaultInjector(None, None)))
    assert not hasattr(CedrTelemetry(), "round_log")
    assert not hasattr(Logbook(), "enabled")
    assert not {"enabled", "telemetry"} & {f.name for f in dataclasses.fields(PerfCounters)}
    assert not {"AuditView", "audit_runtime", "audit_view"} & set(dir(repro.audit))


def test_the_live_result_books_are_gone(zcu_small, pd_small):
    """No ``RunMetrics`` beside the book, and no tally in the serve driver:
    its per-tenant state is the arrival stream and the app cycle, and both
    results are folds of the rows."""
    assert not hasattr(repro.runtime, "RunMetrics")
    runtime = CedrRuntime(zcu_small.build(seed=0), RuntimeConfig(execute_kernels=False))
    assert not hasattr(runtime, "metrics")
    assert not hasattr(repro.serve.driver, "_TenantRuntime")
    tenant = TenantSpec("t", ArrivalSpec.make("poisson", rate=100.0), (pd_small,))
    driver = ServeDriver(runtime, ServeConfig((tenant,), duration=0.05), seed=0)
    tallies = {"offered", "admitted", "shed", "held", "degraded", "completed",
               "failed", "slo_violations", "responses", "queue_wait_s"}
    assert not tallies & {name.lstrip("_") for name in vars(driver)}
    assert set(driver._streams) == set(driver._payloads) == {"t"}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert "RunMetrics" not in text and "runtime_overhead_s +=" not in text, path


def test_the_registry_has_no_live_feed():
    """Nothing in the runtime writes a registry while the run is live: no
    sampler, no ``telemetry.`` call in the daemon, workers, client or
    logbook, no engine hook, no audit clause comparing the two."""
    assert not hasattr(repro.telemetry, "SnapshotSampler")
    assert not hasattr(Logbook(), "telemetry")
    assert not hasattr(RuntimeConfig, "with_telemetry")
    for module in ("runtime/daemon.py", "runtime/worker.py", "runtime/logbook.py",
                   "core/api.py", "simcore/engine.py"):
        text = (SRC / module).read_text()
        assert not re.search(r"telemetry\.(record_|sample|api_|late_)|on_late_timer", text), module
    assert "telemetry-consistency" not in (SRC / "audit/invariants.py").read_text()


def test_removed_names_appear_nowhere_under_src():
    pattern = re.compile(
        r"enable_perf_counters|log_tasks|log_enabled|PECounters|retry_records"
        r"|round_log|counters\.record_task|counters\.record_round"
    )
    hits = [
        f"{path.relative_to(SRC)}:{n}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_counters_keep_only_host_side_writes():
    """``record_run`` / ``record_event_core`` are the counters' whole write
    side; daemon and workers name no other ``counters.record_``."""
    for module in ("runtime/daemon.py", "runtime/worker.py", "faults/inject.py"):
        calls = set(re.findall(r"counters\.(record_\w+)", (SRC / module).read_text()))
        assert calls <= {"record_run", "record_event_core"}, (module, calls)
    writers = {name for name in vars(PerfCounters) if name.startswith("record_")}
    assert writers == {"record_run", "record_event_core"}


@pytest.mark.parametrize("name", SIMULATED)
def test_counters_have_no_settable_simulated_field(name):
    counters = PerfCounters(Logbook())
    assert name not in {f.name for f in dataclasses.fields(PerfCounters)}
    with pytest.raises(AttributeError):
        setattr(counters, name, 1)


@pytest.mark.parametrize("module,call,times", [
    ("runtime/worker.py", "logbook.record_task(", 1),
    ("runtime/daemon.py", "logbook.record_round(", 1),
    ("runtime/daemon.py", "logbook.open_app(", 1),
    ("runtime/daemon.py", "logbook.close_app(", 1),
    ("faults/inject.py", "logbook.record_incident(", 1),
    ("core/api.py", "self._record_call(", 1),  # a blocking call, as it wakes
    ("runtime/task.py", "record_call(*columns", 1),  # a non-blocking one, as it settles
    ("serve/driver.py", "logbook.record_admission(", 1),
])
def test_each_happening_is_written_at_one_site(module, call, times):
    assert (SRC / module).read_text().count(call) == times


@pytest.mark.no_auto_audit
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_view_reproduces_the_stored_tallies_of_the_parent_commit(cell):
    """``golden_one_book.json`` was recorded where ``PerfCounters`` counted
    for itself: the logbook-derived snapshot and the whole ``RunResult``
    (telemetry samples included) are equal to it, value for value.  The
    ``jetson-etf-faulty`` entry was re-recorded when the timer sampler went:
    it equals that commit's run of the cell with sampling off in every
    simulated field and final metric, and differs only in its samples."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[cell]
    got = record(cell)
    assert got["counters"] == golden["counters"]
    assert got["result"] == golden["result"]
    if cell == "jetson-etf-faulty":  # the cell is worth pinning: every tally moves
        faults = got["counters"]["faults"]
        assert all(faults[k] for k in (
            "injected", "task_failures", "retries", "tasks_lost",
            "stale_dispatches", "pe_quarantines", "pe_revivals", "recoveries",
        ))
        assert got["result"]["telemetry"]["samples"]


@pytest.mark.no_auto_audit
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_result_is_a_fold_of_the_saved_book(cell, tmp_path):
    """``RunResult.from_logbook`` over the reloaded dump equals the live
    result, telemetry aside (the fold never carries a registry)."""
    runtime = run_cell(cell)
    path = runtime.logbook.save(tmp_path / "book.json")
    live = RunResult.from_runtime(runtime)
    assert RunResult.from_logbook(Logbook.load(path)) == dataclasses.replace(
        live, telemetry=None
    )
