"""The scheduler contract, enforced by the daemon on every run.

A plug-in scheduler owes each round two things: exactly one assignment per
ready task (``queue-accounting``), and for each a PE that can run the task
and, under faults, is live (``pe-support``).  The daemon checks both at
the round, audited or not, and raises the catalog's
:class:`AuditViolation` there - before this check an unaudited run ended
in a ``SimDeadlock`` (a dropped task) or a ``TypeError`` inside a worker
(a task on the wrong PE), neither naming the scheduler.

Auditing proper is a fold of the book at shutdown: an audited run raises
:class:`AuditError` when a row is damaged, and is otherwise bit-identical
to the unaudited one.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.audit import (
    AuditError,
    AuditViolation,
    OnlineAuditor,
    audit_logbook,
    audit_runtime,
)
from repro.experiments import run_once
from repro.faults import FaultConfig, FaultKind, FaultSpec
from repro.platforms import jetson, zcu102
from repro.runtime import CedrRuntime, Logbook, RuntimeConfig
from repro.workload import radar_comms_workload

GOLDEN_V3 = Path(__file__).parent / "golden_logbook_v3.json"
GOLDEN_V4 = Path(__file__).parent / "golden_logbook_v4.json"


def _runtime(audit, scheduler="etf", faults=None, seed=9):
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    config = RuntimeConfig(scheduler=scheduler, execute_kernels=False,
                           audit=audit, faults=faults)
    return CedrRuntime(platform, config)


def _submit_pd(runtime, seed=9):
    rng = np.random.default_rng(seed)
    runtime.start()
    runtime.submit(PulseDoppler(batch=16).make_instance("dag", rng), at=0.0)
    runtime.seal()


class _EvilScheduler:
    """Wraps a real scheduler but corrupts its assignment list."""

    def __init__(self, inner, corrupt):
        self._inner = inner
        self._corrupt = corrupt

    def round_cost(self, n_tasks, n_pes):
        return self._inner.round_cost(n_tasks, n_pes)

    def schedule(self, batch, pes, now, estimate):
        return self._corrupt(self._inner.schedule(batch, pes, now, estimate), pes)


def _run_evil(runtime, corrupt):
    """Run under a corrupting scheduler; the violation it must raise."""
    runtime.scheduler = _EvilScheduler(runtime.scheduler, corrupt)
    _submit_pd(runtime)
    with pytest.raises(AuditViolation) as ei:
        runtime.run()
    # raised at the round, not by a shutdown pass: the run never drained
    assert not runtime._drained
    assert ei.value.t == runtime.engine.now
    return ei.value


# --------------------------------------------------------------------- #
# the contract raises at the offending round, audited or not
# --------------------------------------------------------------------- #

@pytest.mark.no_auto_audit
@pytest.mark.parametrize("audit", [False, True], ids=["unaudited", "audited"])
def test_dropped_assignment_raises_queue_accounting(audit):
    runtime = _runtime(audit)
    violation = _run_evil(runtime, lambda assignments, pes: assignments[:-1])
    assert violation.code == "queue-accounting"
    assert "dropped or invented" in str(violation)
    # the round is refused before it is booked
    depth = sum(row[1] for row in runtime.logbook.rounds)
    assert depth == len(runtime.logbook.releases)


@pytest.mark.no_auto_audit
@pytest.mark.parametrize("audit", [False, True], ids=["unaudited", "audited"])
def test_assignment_to_an_unsupporting_pe_raises_pe_support(audit):
    """Every task, ``cpu_op`` included, sent to the FFT accelerator."""
    runtime = _runtime(audit)
    fft = next(pe for pe in runtime.platform.pes if pe.kind.value == "fft")
    violation = _run_evil(
        runtime, lambda assignments, pes: [(task, fft) for task, _ in assignments]
    )
    assert violation.code == "pe-support"
    assert violation.pe == fft.name
    assert "does not support it" in str(violation)


@pytest.mark.no_auto_audit
@pytest.mark.parametrize("audit", [False, True], ids=["unaudited", "audited"])
def test_assignment_to_a_quarantined_pe_raises_pe_support(audit):
    """A pinned transient fault quarantines cpu1; a scheduler that keeps
    sending CPU work there is caught at the first round that does."""
    faults = FaultConfig(script=(FaultSpec(at=0.0, pe="cpu1", kind=FaultKind.TRANSIENT),))
    runtime = _runtime(audit, faults=faults)
    cpu1 = next(pe for pe in runtime.platform.pes if pe.name == "cpu1")

    def onto_cpu1(assignments, pes):
        return [(task, cpu1 if pe.kind is cpu1.kind else pe) for task, pe in assignments]

    violation = _run_evil(runtime, onto_cpu1)
    assert violation.code == "pe-support"
    assert violation.pe == "cpu1"
    assert "while it is quarantined" in str(violation)


@pytest.mark.parametrize("platform", [
    pytest.param(zcu102(n_cpu=3, n_fft=2, n_mmult=1), id="zcu102"),
    pytest.param(jetson(n_cpu=3, n_gpu=1), id="jetson"),
])
def test_an_infinite_estimate_is_exactly_an_unsupporting_pe(platform):
    """The ``pe-support`` check reads the estimate the round already
    takes: ``+inf`` exactly outside the row's ``cols``."""
    runtime = CedrRuntime(platform.build(seed=1), RuntimeConfig(scheduler="etf"))
    rng = np.random.default_rng(1)
    runtime.start()
    for i, app in enumerate((PulseDoppler(batch=16), WifiTx(n_packets=8, batch=4))):
        for mode in ("dag", "api"):
            runtime.submit(app.make_instance(mode, rng), at=i * 1e-3)
    runtime.seal()
    runtime.run()
    table = runtime.cost_table
    assert table.n_rows > 1
    for row in range(table.n_rows):
        est, cols = table._rows[row]
        assert cols
        for j, value in enumerate(est):
            assert (value == math.inf) == (j not in cols), (row, j, value)


# --------------------------------------------------------------------- #
# the shutdown fold
# --------------------------------------------------------------------- #

@pytest.mark.no_auto_audit
def test_honest_run_passes_audited_and_unaudited():
    for audit in (False, True):
        runtime = _runtime(audit)
        _submit_pd(runtime)
        runtime.run()
        assert runtime._drained and runtime.logbook.rounds
        report = OnlineAuditor.final_check(runtime)  # stateless: any time
        assert report.ok and report.tasks == len(runtime.logbook.tasks)


@pytest.mark.no_auto_audit
def test_audited_run_raises_on_a_doctored_row(monkeypatch):
    """The fold replaces the per-completion hook: a duplicated task row
    fails an audited run at shutdown, and only an audited one."""
    original = Logbook.record_task

    def twice(self, task):
        original(self, task)
        if len(self.tasks) == 1:
            original(self, task)

    monkeypatch.setattr(Logbook, "record_task", twice)
    plain = _runtime(audit=False)
    _submit_pd(plain)
    plain.run()
    assert "exactly-once" in audit_runtime(plain).codes

    audited = _runtime(audit=True)
    _submit_pd(audited)
    with pytest.raises(AuditError) as ei:
        audited.run()
    assert ei.value.violations[0].code == "exactly-once"


def test_queue_accounting_fold_fires_on_a_lost_release():
    """A book with one release instant gone (``Logbook.load`` refuses such
    a file outright; the fold catches it in a book built any other way)."""
    book = Logbook.load(GOLDEN_V4)
    assert audit_logbook(book).ok
    book.releases.pop()
    report = audit_logbook(book)
    assert report.codes == {"queue-accounting"}
    assert "dropped or invented" in str(report.violations[0])


def test_queue_accounting_fold_skips_a_dump_without_releases():
    book = Logbook.load(GOLDEN_V3)
    assert book.schema == 3 and book.releases == [] and book.rounds
    assert audit_logbook(book).ok


@pytest.mark.no_auto_audit
def test_audited_run_bit_identical_to_unaudited():
    """The acceptance bar for ``audit=True`` by default in the suite:
    flipping the flag changes not one field of the result."""
    platform = zcu102(n_cpu=3, n_fft=1)
    workload = radar_comms_workload(n_pd=2, n_tx=2)
    plain = run_once(platform, workload, "api", 150.0, "etf", seed=4)
    audited = run_once(
        platform, workload, "api", 150.0, "etf", seed=4,
        config=RuntimeConfig(scheduler="etf", execute_kernels=False,
                             audit=True),
    )
    assert plain == audited
