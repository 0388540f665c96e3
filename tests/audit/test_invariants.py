"""Negative tests for the invariant catalog: every check must actually fire.

Each test hand-corrupts one aspect of an otherwise-consistent
:class:`~repro.runtime.Logbook` (synthetic records, or a real run's
logbook with one record rewritten) and asserts the *named* invariant
reports it with the right :class:`AuditViolation` code.  A catalog whose
checks never fire is indistinguishable from no auditing at all - this file
is the audit layer's own audit.
"""

import dataclasses
from array import array

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.audit import CATALOG, AuditError, AuditViolation, audit_logbook
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.runtime.logbook import (
    AppRecord,
    CoreLoad,
    Incident,
    Logbook,
    Round,
    Table,
    TaskRecord,
)

N_ROWS = 64     # the synthetic run's cost-table size


def rec(tid, **kw):
    """A well-formed synthetic TaskRecord; kwargs override single fields."""
    base = dict(
        tid=tid, app_id=1, api="fft", name=f"t{tid}", pe="cpu0", pe_kind="cpu",
        t_release=0.0, t_scheduled=0.0, t_start=0.0, t_finish=0.1,
        attempts=0, cost_row=tid, successors=(),
    )
    base.update(kw)
    return TaskRecord(**base)


def make_book(tasks, apps=(), *, rounds=(), releases=None, incidents=(), cores=(),
              cost_rows=N_ROWS, **stamps):
    """A book of synthetic records whose header holds the cost-table size
    and *cores*; *releases* default to one per task the rounds assigned."""
    book = Logbook()
    book.header.cores, book.header.cost_rows = list(cores), cost_rows
    book.tasks, book.rounds = Table(TaskRecord, tasks), Table(Round, rounds)
    book.apps = {app.app_id: app for app in apps}
    book.incidents = Table(Incident, incidents)
    if releases is None:
        releases = [0.0] * sum(depth for _, depth, _, _ in rounds)
    book.releases = array("d", releases)
    book.makespan = stamps.get("makespan", max((t.t_finish for t in tasks), default=0.0))
    return book


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


def _clean_book(**kw):
    """Fault-free, each round's depth matched by its release instants."""
    tasks = _clean_tasks()
    apps = (AppRecord(app_id=1, name="app", mode="dag", t_arrival=0.0,
                      t_launch=0.0, t_finish=0.7, n_tasks=3),)
    defaults = dict(
        rounds=((0.05, 1, 0.0, 0.05), (0.35, 2, 0.0, 0.35)),
        releases=(0.0, 0.3, 0.3), makespan=0.7,
    )
    defaults.update(kw)
    return make_book(tasks, apps, **defaults)


# --------------------------------------------------------------------- #
# the positive control
# --------------------------------------------------------------------- #

def test_clean_book_passes_whole_catalog():
    book = _clean_book(
        cores=(CoreLoad("cpu0", speed=1.0, delivered=0.3, busy_time=0.4),),
    )
    report = audit_logbook(book)
    assert report.ok and report.codes == set()
    assert report.invariants_checked == len(CATALOG)
    assert report.tasks == 3 and report.apps == 1
    assert "ok" in report.summary()
    report.raise_if_failed()  # no-op on a clean book


def test_empty_book_passes():
    """Nothing recorded: every invariant has nothing to check, none invents."""
    assert audit_logbook(Logbook()).ok


# --------------------------------------------------------------------- #
# one test per invariant code
# --------------------------------------------------------------------- #

def test_causality_fires_on_child_starting_before_parent_finishes():
    parent = rec(1, pe="fft0", pe_kind="fft",
                 t_start=0.1, t_finish=0.3, successors=(2,))
    child = rec(2, pe="cpu0", t_release=0.1, t_scheduled=0.15,
                t_start=0.2, t_finish=0.25)
    report = audit_logbook(make_book([parent, child]))
    assert report.codes == {"causality"}
    [v] = report.violations
    assert v.tid == 2 and v.pe == "cpu0"


def test_causality_skips_successors_missing_from_the_log():
    parent = rec(1, t_finish=0.3, successors=(99,))
    assert audit_logbook(make_book([parent])).ok


def test_exactly_once_fires_on_duplicate_tid():
    a = rec(5, pe="cpu0", t_start=0.0, t_finish=0.1)
    b = rec(5, pe="cpu1", t_start=0.2, t_finish=0.3,
            t_release=0.15, t_scheduled=0.18)
    report = audit_logbook(make_book([a, b]))
    assert report.codes == {"exactly-once"}
    assert report.violations[0].tid == 5


def test_pe_support_fires_on_unsupported_api():
    bad = rec(1, api="gemm", pe="fft0", pe_kind="fft")
    report = audit_logbook(make_book([bad]))
    assert report.codes == {"pe-support"}
    assert "supports only" in str(report.violations[0])


def test_pe_support_fires_on_unknown_pe_kind():
    bad = rec(1, pe="npu0", pe_kind="npu")
    report = audit_logbook(make_book([bad]))
    assert report.codes == {"pe-support"}
    assert "unknown PE kind" in str(report.violations[0])


def test_pe_exclusive_fires_on_overlapping_accelerator_intervals():
    a = rec(1, pe="fft0", pe_kind="fft", t_start=0.1, t_finish=0.3)
    b = rec(2, pe="fft0", pe_kind="fft",
            t_release=0.1, t_scheduled=0.15, t_start=0.2, t_finish=0.4)
    report = audit_logbook(make_book([a, b]))
    assert report.codes == {"pe-exclusive"}
    assert report.violations[0].pe == "fft0"


def test_pe_exclusive_allows_back_to_back_intervals():
    a = rec(1, pe="fft0", pe_kind="fft", t_start=0.1, t_finish=0.3)
    b = rec(2, pe="fft0", pe_kind="fft",
            t_release=0.1, t_scheduled=0.2, t_start=0.3, t_finish=0.4)
    assert audit_logbook(make_book([a, b])).ok


def test_core_capacity_fires_on_overdelivered_core():
    book = make_book(_clean_tasks(), makespan=0.7, cores=(
        CoreLoad("cpu0", speed=1.0, delivered=1.5, busy_time=0.5),
    ))
    report = audit_logbook(book)
    assert report.codes == {"core-capacity"}


def test_core_capacity_fires_on_busy_time_beyond_makespan():
    book = make_book(_clean_tasks(), makespan=0.7, cores=(
        CoreLoad("cpu0", speed=2.0, delivered=0.5, busy_time=0.9),
    ))
    assert audit_logbook(book).codes == {"core-capacity"}


def test_clock_monotonic_fires_on_regressing_task_timestamps():
    bad = rec(1, t_release=0.0, t_scheduled=0.4, t_start=0.3, t_finish=0.6)
    report = audit_logbook(make_book([bad]))
    assert report.codes == {"clock-monotonic"}
    assert "regress" in str(report.violations[0])


def test_clock_monotonic_fires_on_finish_beyond_makespan():
    late = rec(1, t_finish=1.0)
    report = audit_logbook(make_book([late], makespan=0.7))
    assert report.codes == {"clock-monotonic"}
    assert "makespan" in str(report.violations[0])


def test_clock_monotonic_fires_on_app_launched_before_arrival():
    app = AppRecord(app_id=1, name="a", mode="api",
                    t_arrival=0.5, t_launch=0.1, t_finish=0.9, n_tasks=0)
    report = audit_logbook(make_book([], [app]))
    assert report.codes == {"clock-monotonic"}


def test_clock_monotonic_excuses_cancelled_apps_from_launch_ordering():
    """A kill can land before launch bookkeeping; only arrival <= finish."""
    app = AppRecord(app_id=1, name="a", mode="dag", t_arrival=0.5,
                    t_launch=0.0, t_finish=0.6, n_tasks=4, cancelled=True)
    assert audit_logbook(make_book([], [app])).ok


def test_round_monotonic_fires_on_time_travel():
    book = make_book(
        _clean_tasks(), rounds=((0.5, 1, 0.0, 0.5), (0.2, 1, 0.0, 0.2)), makespan=0.7
    )
    assert audit_logbook(book).codes == {"round-monotonic"}


def test_round_monotonic_fires_on_empty_round():
    book = make_book(_clean_tasks(), rounds=((0.05, 0, 0.0, 0.05),), makespan=0.7)
    report = audit_logbook(book)
    assert report.codes == {"round-monotonic"}
    assert "ready depth" in str(report.violations[0])


def test_round_monotonic_fires_on_round_beyond_makespan():
    book = make_book(_clean_tasks(), rounds=((0.9, 1, 0.0, 0.9),), makespan=0.7)
    assert audit_logbook(book).codes == {"round-monotonic"}


def test_app_accounting_fires_on_lost_task():
    """Drop one completion record: the app's ledger no longer balances."""
    book = _clean_book()
    book.tasks = Table(TaskRecord, list(book.tasks)[:-1])
    report = audit_logbook(book)
    assert report.codes == {"app-accounting"}
    assert "2 completions" in str(report.violations[0])


def test_app_accounting_fires_on_unterminated_app():
    app = AppRecord(app_id=1, name="a", mode="api", t_arrival=0.0, n_tasks=0)
    report = audit_logbook(make_book([], [app]))
    assert report.codes == {"app-accounting"}
    assert "never terminated" in str(report.violations[0])


def test_app_accounting_skips_cancelled_and_failed_apps():
    apps = (
        AppRecord(app_id=1, name="a", mode="dag", t_arrival=0.0,
                  t_finish=0.5, n_tasks=9, cancelled=True),
        AppRecord(app_id=2, name="b", mode="dag", t_arrival=0.0,
                  t_finish=0.5, n_tasks=9, failed=True),
    )
    lost = (Incident(0.4, "lost", tid=9),)  # what failed app 2
    assert audit_logbook(make_book([], apps, incidents=lost)).ok


def test_task_conservation_fires_on_unbacked_retry_attempts():
    book = _clean_book()
    book.tasks = Table(TaskRecord, [dataclasses.replace(book.tasks[0], attempts=2),
                                    *list(book.tasks)[1:]])
    report = audit_logbook(book, codes=["task-conservation"])
    assert report.codes == {"task-conservation"}
    assert "retry attempts" in str(report.violations[0])


def test_task_conservation_fires_on_orphan_lost_task():
    incidents = (            # a task was lost ... but no app is marked failed
        Incident(0.2, "failure", "transient", pe="cpu0", tid=2),
        Incident(0.2, "lost", tid=2),
    )
    report = audit_logbook(_clean_book(incidents=incidents),
                           codes=["task-conservation"])
    assert report.codes == {"task-conservation"}
    assert "failed" in str(report.violations[0])


def test_task_conservation_fires_on_short_failure_ledger():
    incidents = (            # retries without recorded failures
        Incident(0.2, "retry", tid=2, attempt=1),
        Incident(0.3, "retry", tid=2, attempt=2),
    )
    report = audit_logbook(_clean_book(incidents=incidents),
                           codes=["task-conservation"])
    assert report.codes == {"task-conservation"}
    assert "ledger short" in str(report.violations[0])


def test_queue_accounting_fires_on_a_round_short_of_releases():
    """Round depths against the assigned release instants: a round that
    booked its batch but assigned one task fewer."""
    report = audit_logbook(_clean_book(releases=(0.0, 0.3)))
    assert report.codes == {"queue-accounting"}
    assert "saw 3 ready tasks but assigned 2" in str(report.violations[0])


def test_cost_row_fresh_fires_on_uninterned_row():
    bad = rec(1, cost_row=-1)
    report = audit_logbook(make_book([bad]))
    assert report.codes == {"cost-row-fresh"}
    assert "without an interned" in str(report.violations[0])


def test_cost_row_fresh_fires_on_out_of_range_row():
    bad = rec(1, cost_row=N_ROWS)
    report = audit_logbook(make_book([bad]))
    assert report.codes == {"cost-row-fresh"}


# --------------------------------------------------------------------- #
# report / selection machinery
# --------------------------------------------------------------------- #

def test_audit_subset_runs_only_named_invariants():
    report = audit_logbook(_clean_book(), codes=["pe-support", "causality"])
    assert report.invariants_checked == 2 and report.ok


def test_audit_rejects_unknown_codes():
    with pytest.raises(KeyError, match="unknown invariant"):
        audit_logbook(_clean_book(), codes=["pe-support", "made-up"])


def test_raise_if_failed_carries_all_violations():
    book = make_book([rec(1, cost_row=-1, pe="npu0", pe_kind="npu")])
    report = audit_logbook(book)
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
    """A copy of the run's book (through its dump) with *tasks* for rows."""
    book = Logbook.from_dict(runtime.logbook.serialize())
    book.tasks = Table(TaskRecord, tasks)
    return book


def test_real_run_audits_clean_live_and_offline(real_run):
    assert audit_logbook(real_run.logbook).ok
    assert audit_logbook(_rebuild(real_run, list(real_run.logbook.tasks))).ok


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


def test_real_logbook_with_out_of_range_cost_row_fails(real_run):
    tasks = list(real_run.logbook.tasks)
    tasks[0] = dataclasses.replace(tasks[0], cost_row=real_run.logbook.header.cost_rows)
    report = audit_logbook(_rebuild(real_run, tasks))
    assert report.codes == {"cost-row-fresh"}
