"""Negative tests for the invariant catalog: every check must actually fire.

Each test hand-corrupts one aspect of an otherwise-consistent
:class:`AuditView` (synthetic records, or a real run's logbook with one
record rewritten) and asserts the *named* invariant reports it with the
right :class:`AuditViolation` code.  A catalog whose checks never fire is
indistinguishable from no auditing at all - this file is the audit layer's
own audit.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.audit import (
    CATALOG,
    AuditError,
    AuditView,
    AuditViolation,
    audit_logbook,
    audit_runtime,
    audit_view,
)
from repro.audit.invariants import CoreLoad
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.runtime.logbook import AppRecord, Incident, Logbook, TaskRecord

TOKEN = 7       # the synthetic run's one cost-table token
N_ROWS = 64     # and its table size


def rec(tid, **kw):
    """A well-formed synthetic TaskRecord; kwargs override single fields."""
    base = dict(
        tid=tid, app_id=1, api="fft", name=f"t{tid}", pe="cpu0", pe_kind="cpu",
        t_release=0.0, t_scheduled=0.0, t_start=0.0, t_finish=0.1,
        attempts=0, cost_row=tid, cost_token=TOKEN, successors=(),
    )
    base.update(kw)
    return TaskRecord(**base)


def make_view(tasks, apps=(), **kw):
    """An AuditView over synthetic records with a live cost-table identity."""
    defaults = dict(
        cost_table_token=TOKEN,
        cost_table_rows=N_ROWS,
        makespan=max((t.t_finish for t in tasks), default=0.0),
    )
    defaults.update(kw)
    return AuditView(tasks=tuple(tasks), apps=tuple(apps), **defaults)


def _clean_tasks():
    """Three tasks, two PEs, one dependency edge - nothing wrong."""
    return (
        rec(1, pe="fft0", pe_kind="fft",
            t_release=0.0, t_scheduled=0.05, t_start=0.1, t_finish=0.3,
            successors=(3,)),
        rec(2, pe="cpu0", pe_kind="cpu",
            t_release=0.3, t_scheduled=0.35, t_start=0.4, t_finish=0.6),
        rec(3, pe="fft0", pe_kind="fft",
            t_release=0.3, t_scheduled=0.35, t_start=0.4, t_finish=0.5),
    )


def _clean_view(**kw):
    """Fault-free and from a current-schema record: ``incidents`` is the
    empty tuple (known: none), not ``None`` (a pre-incident dump), and
    each round's depth is matched by its release instants."""
    tasks = _clean_tasks()
    apps = (AppRecord(app_id=1, name="app", mode="dag", t_arrival=0.0,
                      t_launch=0.0, t_finish=0.7, n_tasks=3),)
    defaults = dict(
        rounds=((0.05, 1, 0.0, 0.05), (0.35, 2, 0.0, 0.35)),
        releases=(0.0, 0.3, 0.3), incidents=(), makespan=0.7,
    )
    defaults.update(kw)
    return make_view(tasks, apps, **defaults)


# --------------------------------------------------------------------- #
# the positive control
# --------------------------------------------------------------------- #

def test_clean_view_passes_whole_catalog():
    view = _clean_view(
        core_loads=(CoreLoad("cpu0", speed=1.0, delivered=0.3, busy_time=0.4),),
    )
    report = audit_view(view)
    assert report.ok and report.codes == set()
    assert report.invariants_checked == len(CATALOG)
    assert report.tasks == 3 and report.apps == 1
    assert "ok" in report.summary()
    report.raise_if_failed()  # no-op on a clean view


def test_empty_view_passes():
    """No instrumentation at all: every invariant skips, none invents."""
    assert audit_view(AuditView()).ok


# --------------------------------------------------------------------- #
# one test per invariant code
# --------------------------------------------------------------------- #

def test_causality_fires_on_child_starting_before_parent_finishes():
    parent = rec(1, pe="fft0", pe_kind="fft",
                 t_start=0.1, t_finish=0.3, successors=(2,))
    child = rec(2, pe="cpu0", t_release=0.1, t_scheduled=0.15,
                t_start=0.2, t_finish=0.25)
    report = audit_view(make_view([parent, child]))
    assert report.codes == {"causality"}
    [v] = report.violations
    assert v.tid == 2 and v.pe == "cpu0"


def test_causality_skips_successors_missing_from_the_log():
    parent = rec(1, t_finish=0.3, successors=(99,))
    assert audit_view(make_view([parent])).ok


def test_exactly_once_fires_on_duplicate_tid():
    a = rec(5, pe="cpu0", t_start=0.0, t_finish=0.1)
    b = rec(5, pe="cpu1", t_start=0.2, t_finish=0.3,
            t_release=0.15, t_scheduled=0.18)
    report = audit_view(make_view([a, b]))
    assert report.codes == {"exactly-once"}
    assert report.violations[0].tid == 5


def test_pe_support_fires_on_unsupported_api():
    bad = rec(1, api="gemm", pe="fft0", pe_kind="fft")
    report = audit_view(make_view([bad]))
    assert report.codes == {"pe-support"}
    assert "supports only" in str(report.violations[0])


def test_pe_support_fires_on_unknown_pe_kind():
    bad = rec(1, pe="npu0", pe_kind="npu")
    report = audit_view(make_view([bad]))
    assert report.codes == {"pe-support"}
    assert "unknown PE kind" in str(report.violations[0])


def test_pe_exclusive_fires_on_overlapping_accelerator_intervals():
    a = rec(1, pe="fft0", pe_kind="fft", t_start=0.1, t_finish=0.3)
    b = rec(2, pe="fft0", pe_kind="fft",
            t_release=0.1, t_scheduled=0.15, t_start=0.2, t_finish=0.4)
    report = audit_view(make_view([a, b]))
    assert report.codes == {"pe-exclusive"}
    assert report.violations[0].pe == "fft0"


def test_pe_exclusive_allows_back_to_back_intervals():
    a = rec(1, pe="fft0", pe_kind="fft", t_start=0.1, t_finish=0.3)
    b = rec(2, pe="fft0", pe_kind="fft",
            t_release=0.1, t_scheduled=0.2, t_start=0.3, t_finish=0.4)
    assert audit_view(make_view([a, b])).ok


def test_core_capacity_fires_on_overdelivered_core():
    view = make_view(_clean_tasks(), makespan=0.7, core_loads=(
        CoreLoad("cpu0", speed=1.0, delivered=1.5, busy_time=0.5),
    ))
    report = audit_view(view)
    assert report.codes == {"core-capacity"}


def test_core_capacity_fires_on_busy_time_beyond_makespan():
    view = make_view(_clean_tasks(), makespan=0.7, core_loads=(
        CoreLoad("cpu0", speed=2.0, delivered=0.5, busy_time=0.9),
    ))
    assert audit_view(view).codes == {"core-capacity"}


def test_clock_monotonic_fires_on_regressing_task_timestamps():
    bad = rec(1, t_release=0.0, t_scheduled=0.4, t_start=0.3, t_finish=0.6)
    report = audit_view(make_view([bad]))
    assert report.codes == {"clock-monotonic"}
    assert "regress" in str(report.violations[0])


def test_clock_monotonic_fires_on_finish_beyond_makespan():
    late = rec(1, t_finish=1.0)
    report = audit_view(make_view([late], makespan=0.7))
    assert report.codes == {"clock-monotonic"}
    assert "makespan" in str(report.violations[0])


def test_clock_monotonic_fires_on_app_launched_before_arrival():
    app = AppRecord(app_id=1, name="a", mode="api",
                    t_arrival=0.5, t_launch=0.1, t_finish=0.9, n_tasks=0)
    report = audit_view(make_view([], [app]))
    assert report.codes == {"clock-monotonic"}


def test_clock_monotonic_excuses_cancelled_apps_from_launch_ordering():
    """A kill can land before launch bookkeeping; only arrival <= finish."""
    app = AppRecord(app_id=1, name="a", mode="dag", t_arrival=0.5,
                    t_launch=0.0, t_finish=0.6, n_tasks=4, cancelled=True)
    assert audit_view(make_view([], [app])).ok


def test_round_monotonic_fires_on_time_travel():
    view = make_view(
        _clean_tasks(), rounds=((0.5, 1, 0.0, 0.5), (0.2, 1, 0.0, 0.2)), makespan=0.7
    )
    assert audit_view(view).codes == {"round-monotonic"}


def test_round_monotonic_fires_on_empty_round():
    view = make_view(_clean_tasks(), rounds=((0.05, 0, 0.0, 0.05),), makespan=0.7)
    report = audit_view(view)
    assert report.codes == {"round-monotonic"}
    assert "ready depth" in str(report.violations[0])


def test_round_monotonic_fires_on_round_beyond_makespan():
    view = make_view(_clean_tasks(), rounds=((0.9, 1, 0.0, 0.9),), makespan=0.7)
    assert audit_view(view).codes == {"round-monotonic"}


def test_app_accounting_fires_on_lost_task():
    """Drop one completion record: the app's ledger no longer balances."""
    view = _clean_view()
    view.tasks = view.tasks[:-1]
    report = audit_view(view)
    assert report.codes == {"app-accounting"}
    assert "2 completions" in str(report.violations[0])


def test_app_accounting_fires_on_unterminated_app():
    app = AppRecord(app_id=1, name="a", mode="api", t_arrival=0.0, n_tasks=0)
    report = audit_view(make_view([], [app]))
    assert report.codes == {"app-accounting"}
    assert "never terminated" in str(report.violations[0])


def test_app_accounting_skips_cancelled_and_failed_apps():
    apps = (
        AppRecord(app_id=1, name="a", mode="dag", t_arrival=0.0,
                  t_finish=0.5, n_tasks=9, cancelled=True),
        AppRecord(app_id=2, name="b", mode="dag", t_arrival=0.0,
                  t_finish=0.5, n_tasks=9, failed=True),
    )
    assert audit_view(make_view([], apps)).ok


def test_task_conservation_fires_on_unbacked_retry_attempts():
    view = _clean_view()
    view.tasks = (dataclasses.replace(view.tasks[0], attempts=2),
                  *view.tasks[1:])
    report = audit_view(view, codes=["task-conservation"])
    assert report.codes == {"task-conservation"}
    assert "retry attempts" in str(report.violations[0])


def test_task_conservation_fires_on_orphan_lost_task():
    incidents = (            # a task was lost ... but no app is marked failed
        Incident(0.2, "failure", "transient", pe="cpu0", tid=2),
        Incident(0.2, "lost", tid=2),
    )
    report = audit_view(_clean_view(incidents=incidents),
                        codes=["task-conservation"])
    assert report.codes == {"task-conservation"}
    assert "failed" in str(report.violations[0])


def test_task_conservation_fires_on_short_failure_ledger():
    incidents = (            # retries without recorded failures
        Incident(0.2, "retry", tid=2, attempt=1),
        Incident(0.3, "retry", tid=2, attempt=2),
    )
    report = audit_view(_clean_view(incidents=incidents),
                        codes=["task-conservation"])
    assert report.codes == {"task-conservation"}
    assert "ledger short" in str(report.violations[0])


def test_task_conservation_skips_a_dump_without_incident_rows():
    """Schema 1 / 2 dumps predate ``incidents``: retry attempts on their
    task rows have nothing to be checked against, and must not fire."""
    view = _clean_view(incidents=None)
    view.tasks = (dataclasses.replace(view.tasks[0], attempts=2),
                  *view.tasks[1:])
    assert audit_view(view, codes=["task-conservation"]).ok


def test_queue_accounting_fires_on_a_round_short_of_releases():
    """Round depths against the assigned release instants: a round that
    booked its batch but assigned one task fewer."""
    report = audit_view(_clean_view(releases=(0.0, 0.3)))
    assert report.codes == {"queue-accounting"}
    assert "saw 3 ready tasks but assigned 2" in str(report.violations[0])


def test_queue_accounting_skips_a_dump_without_releases():
    """Below schema 4 the release instants are unknown, not absent."""
    assert audit_view(_clean_view(releases=None), codes=["queue-accounting"]).ok


def test_cost_row_fresh_fires_on_stale_token():
    stale = rec(1, cost_token=TOKEN - 1)
    report = audit_view(make_view([stale]))
    assert report.codes == {"cost-row-fresh"}
    assert "stale cost token" in str(report.violations[0])


def test_cost_row_fresh_fires_on_uninterned_row():
    bad = rec(1, cost_row=-1)
    report = audit_view(make_view([bad]))
    assert report.codes == {"cost-row-fresh"}
    assert "without an interned" in str(report.violations[0])


def test_cost_row_fresh_fires_on_out_of_range_row():
    bad = rec(1, cost_row=N_ROWS)
    report = audit_view(make_view([bad]))
    assert report.codes == {"cost-row-fresh"}


def test_cost_row_fresh_fires_offline_on_mixed_tokens():
    """An offline dump carries no live table, but one run = one table."""
    a, b = rec(1, cost_token=3), rec(2, cost_token=4, pe="cpu1")
    view = make_view([a, b], cost_table_token=None, cost_table_rows=None)
    report = audit_view(view)
    assert report.codes == {"cost-row-fresh"}
    assert "2 different cost" in str(report.violations[0])


# --------------------------------------------------------------------- #
# report / selection machinery
# --------------------------------------------------------------------- #

def test_audit_view_subset_runs_only_named_invariants():
    report = audit_view(_clean_view(), codes=["pe-support", "causality"])
    assert report.invariants_checked == 2 and report.ok


def test_audit_view_rejects_unknown_codes():
    with pytest.raises(KeyError, match="unknown invariant"):
        audit_view(_clean_view(), codes=["pe-support", "made-up"])


def test_raise_if_failed_carries_all_violations():
    view = make_view([rec(1, cost_row=-1, pe="npu0", pe_kind="npu")])
    report = audit_view(view)
    assert report.codes == {"cost-row-fresh", "pe-support"}
    with pytest.raises(AuditError) as ei:
        report.raise_if_failed()
    assert len(ei.value.violations) == 2
    assert "2 violation(s)" in str(ei.value)


def test_violation_message_carries_location_fields():
    v = AuditViolation("pe-support", "boom", tid=7, pe="fft0", t=1.5)
    assert v.code == "pe-support"
    assert "[pe-support]" in str(v)
    assert "tid=7" in str(v) and "pe=fft0" in str(v) and "t=1.5" in str(v)


# --------------------------------------------------------------------- #
# corrupting a *real* run's logbook
# --------------------------------------------------------------------- #

def _pd_run(seed):
    """One deterministic audited run: two Pulse Doppler instances."""
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    config = RuntimeConfig(scheduler="etf", execute_kernels=False, audit=True)
    runtime = CedrRuntime(platform, config)
    runtime.start()
    rng = np.random.default_rng(seed)
    pd = PulseDoppler(batch=16)
    runtime.submit(pd.make_instance("dag", rng), at=0.0)
    runtime.submit(pd.make_instance("api", rng), at=0.002)
    runtime.seal()
    runtime.run()
    return runtime


@pytest.fixture(scope="module")
def real_run():
    return _pd_run(seed=11)


def _rebuild(runtime, tasks):
    book = Logbook()
    book.tasks = list(tasks)
    book.apps = dict(runtime.logbook.apps)
    book.rounds = list(runtime.logbook.rounds)
    return book


def test_real_run_audits_clean_live_and_offline(real_run):
    assert audit_runtime(real_run).ok
    assert audit_logbook(real_run.logbook).ok


def test_real_logbook_with_overlapping_intervals_fails(real_run):
    tasks = list(real_run.logbook.tasks)
    by_pe = {}
    for i, t in enumerate(tasks):
        by_pe.setdefault(t.pe, []).append(i)
    pe, idxs = next((p, i) for p, i in by_pe.items() if len(i) >= 2)
    first, second = sorted(idxs, key=lambda i: tasks[i].t_start)[:2]
    inside = (tasks[first].t_start + tasks[first].t_finish) / 2
    tasks[second] = dataclasses.replace(
        tasks[second],
        t_release=tasks[first].t_start, t_scheduled=tasks[first].t_start,
        t_start=inside,
    )
    report = audit_logbook(_rebuild(real_run, tasks))
    assert "pe-exclusive" in report.codes
    assert any(v.pe == pe for v in report.violations)


def test_real_logbook_with_lost_task_fails(real_run):
    tasks = list(real_run.logbook.tasks)[:-1]
    report = audit_logbook(_rebuild(real_run, tasks))
    assert "app-accounting" in report.codes


def test_real_logbook_with_stale_cost_token_fails(real_run):
    tasks = list(real_run.logbook.tasks)
    tasks[0] = dataclasses.replace(tasks[0], cost_token=tasks[0].cost_token + 1)
    report = audit_logbook(_rebuild(real_run, tasks))
    assert "cost-row-fresh" in report.codes
