"""The audit layer's invariant catalog: what a correct CEDR run looks like.

CEDR's correctness contract - every submitted task runs exactly once, on a
PE that supports its API, after its dependencies, with the rows of the run
record (tasks, apps, rounds, fault-layer incidents) telling one consistent
story - is stated here as eleven machine-verifiable invariants over a
:class:`~repro.runtime.Logbook`: the live book of a drained run, or one
loaded from a saved dump (the ``repro audit <logbook.json>`` path).  The
book's header carries the core loads and the cost table's identity, so
every check runs the same offline as live.

Each invariant is a generator yielding structured :class:`AuditViolation`
exceptions (code + offending task/PE/timestamps) rather than raising, so
:func:`audit_logbook` can collect the complete damage report.  An audited
run (``RuntimeConfig(audit=True)``) folds the catalog over its book once,
at shutdown, and raises :class:`AuditError` on damage; the one contract
that needs a decision in flight - a round assigns exactly its ready batch,
each task to a PE that can run it - the daemon enforces on every run,
raising the catalog's :class:`AuditViolation` at the offending round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.platforms.pe import SUPPORT_MATRIX
from repro.runtime.logbook import Logbook

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.daemon import CedrRuntime

__all__ = [
    "AuditViolation",
    "AuditError",
    "Invariant",
    "CATALOG",
    "AuditReport",
    "audit_logbook",
    "OnlineAuditor",
]

#: timestamp slack for float comparisons (the engine's event times are
#: exact sums of costs; reassociation error stays far below a nanosecond).
EPS = 1e-9

#: API support sets keyed by the PE kind *value* strings task records carry.
_SUPPORT_BY_KIND = {kind.value: apis for kind, apis in SUPPORT_MATRIX.items()}


class AuditViolation(Exception):
    """One broken invariant, with enough context to find the offender."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        tid: Optional[int] = None,
        pe: Optional[str] = None,
        t: Optional[float] = None,
    ) -> None:
        where = "".join(
            f" {k}={v}" for k, v in (("tid", tid), ("pe", pe), ("t", t))
            if v is not None
        )
        super().__init__(f"[{code}]{where} {message}")
        self.code = code
        self.message = message
        self.tid = tid
        self.pe = pe
        self.t = t

    def __reduce__(self):
        # by field, so one raised in a pool worker reaches the parent whole
        return partial(type(self), tid=self.tid, pe=self.pe, t=self.t), (self.code, self.message)


class AuditError(Exception):
    """A failed audit: carries every violation the catalog produced."""

    def __init__(self, violations: list[AuditViolation]) -> None:
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(
            f"audit failed with {len(violations)} violation(s):\n{lines}"
        )
        self.violations = violations

    def __reduce__(self):
        return type(self), (self.violations,)


# --------------------------------------------------------------------- #
# the catalog
# --------------------------------------------------------------------- #

Check = Callable[[Logbook], Iterator[AuditViolation]]


@dataclass(frozen=True)
class Invariant:
    """One named property with its formal statement (see INTERNALS.md)."""

    code: str
    statement: str
    check: Check = field(repr=False)


def _check_causality(book: Logbook) -> Iterator[AuditViolation]:
    tasks = book.tasks
    row_of = {tid: i for i, tid in enumerate(tasks.column("tid"))}  # the last row wins
    starts, finishes = tasks.column("t_start"), tasks.column("t_finish")
    for i, successors in enumerate(tasks.column("successors")):
        for succ_tid in successors:
            j = row_of.get(succ_tid)
            if j is not None and starts[j] < finishes[i] - EPS:
                rec, succ = tasks[i], tasks[j]
                yield AuditViolation(
                    "causality",
                    f"task {succ.name} started at {succ.t_start} before its "
                    f"parent {rec.name} finished at {rec.t_finish}",
                    tid=succ.tid, pe=succ.pe, t=succ.t_start,
                )


def _check_exactly_once(book: Logbook) -> Iterator[AuditViolation]:
    first: dict[int, int] = {}  # tid -> its first row
    for i, tid in enumerate(book.tasks.column("tid")):
        j = first.setdefault(tid, i)
        if j != i:
            prior, rec = book.tasks[j], book.tasks[i]
            yield AuditViolation(
                "exactly-once",
                f"task {rec.name} completed twice (on {prior.pe} at "
                f"{prior.t_finish} and on {rec.pe} at {rec.t_finish})",
                tid=rec.tid, pe=rec.pe, t=rec.t_finish,
            )


def _check_task_conservation(book: Logbook) -> Iterator[AuditViolation]:
    counts = book.incident_counts()
    recorded_attempts = sum(book.tasks.column("attempts"))
    if recorded_attempts > counts["retry"]:
        yield AuditViolation(
            "task-conservation",
            f"completed tasks carry {recorded_attempts} retry attempts "
            f"but only {counts['retry']} retries were issued",
        )
    failed_apps = sum(1 for app in book.apps.values() if app.failed)
    if counts["lost"] != failed_apps:
        yield AuditViolation(
            "task-conservation",
            f"{counts['lost']} tasks were declared lost but "
            f"{failed_apps} applications are marked failed - exactly one "
            f"lost task fails exactly one application",
        )
    # every retry is issued in response to a detected failure; losses are
    # NOT bounded by failures (a task whose every supporting PE fail-stopped
    # is lost at triage without a per-task failure event)
    if counts["failure"] < counts["retry"]:
        yield AuditViolation(
            "task-conservation",
            f"failure ledger short: {counts['failure']} detected "
            f"failures cannot cover {counts['retry']} retries",
        )


def _check_app_accounting(book: Logbook) -> Iterator[AuditViolation]:
    for app in book.apps.values():
        if app.t_finish is None:
            yield AuditViolation(
                "app-accounting",
                f"app {app.name}#{app.app_id} never terminated",
                t=app.t_arrival,
            )
    per_app = Counter(book.tasks.column("app_id"))
    for app in book.apps.values():
        if app.cancelled or app.failed:
            continue  # dropped work is the *point* of those outcomes
        done = per_app.get(app.app_id, 0)
        if done != app.n_tasks:
            yield AuditViolation(
                "app-accounting",
                f"app {app.name}#{app.app_id} submitted {app.n_tasks} tasks "
                f"but {done} completions were logged",
                t=app.t_finish,
            )


def _check_pe_support(book: Logbook) -> Iterator[AuditViolation]:
    tasks = book.tasks
    for i, (api, kind) in enumerate(zip(tasks.column("api"), tasks.column("pe_kind"))):
        supported = _SUPPORT_BY_KIND.get(kind)
        if supported is not None and api in supported:
            continue
        rec = tasks[i]
        yield AuditViolation(
            "pe-support",
            f"task {rec.name} ran on unknown PE kind {kind!r}" if supported is None else
            f"task {rec.name} ({api}) ran on {rec.pe} ({kind}), which supports only "
            f"{sorted(supported)}",
            tid=rec.tid, pe=rec.pe, t=rec.t_start,
        )


def _check_pe_exclusive(book: Logbook) -> Iterator[AuditViolation]:
    tasks = book.tasks
    by_pe: dict[str, list[int]] = {}  # rows per PE
    for i, pe in enumerate(tasks.column("pe")):
        by_pe.setdefault(pe, []).append(i)
    starts, finishes = tasks.column("t_start"), tasks.column("t_finish")
    for pe, rows in by_pe.items():
        rows.sort(key=lambda i: (starts[i], finishes[i]))
        for p, i in zip(rows, rows[1:]):
            if starts[i] < finishes[p] - EPS:
                prev, rec = tasks[p], tasks[i]
                yield AuditViolation(
                    "pe-exclusive",
                    f"tasks {prev.name} [{prev.t_start}, {prev.t_finish}] and "
                    f"{rec.name} [{rec.t_start}, {rec.t_finish}] overlapped on {pe}",
                    tid=rec.tid, pe=pe, t=rec.t_start,
                )


def _check_core_capacity(book: Logbook) -> Iterator[AuditViolation]:
    if book.makespan is None:
        return
    budget_scale = 1.0 + 1e-9  # float reassociation headroom
    for load in book.header.cores:
        budget = load.speed * book.makespan * budget_scale + EPS
        if load.delivered > budget:
            yield AuditViolation(
                "core-capacity",
                f"core {load.name} delivered {load.delivered}s of dedicated "
                f"compute in a {book.makespan}s run at speed {load.speed} - "
                f"more work than the share budget allows",
                pe=load.name, t=book.makespan,
            )
        if load.busy_time > book.makespan * budget_scale + EPS:
            yield AuditViolation(
                "core-capacity",
                f"core {load.name} was busy {load.busy_time}s in a "
                f"{book.makespan}s run",
                pe=load.name, t=book.makespan,
            )


def _check_clock_monotonic(book: Logbook) -> Iterator[AuditViolation]:
    tasks = book.tasks
    chains = zip(*map(tasks.column, ("t_release", "t_scheduled", "t_start", "t_finish")))
    for i, chain in enumerate(chains):
        if chain[0] < -EPS or any(b < a - EPS for a, b in zip(chain, chain[1:])):
            rec = tasks[i]
            yield AuditViolation(
                "clock-monotonic",
                f"task {rec.name} timestamps regress: release "
                f"{rec.t_release} -> scheduled {rec.t_scheduled} -> start "
                f"{rec.t_start} -> finish {rec.t_finish}",
                tid=rec.tid, pe=rec.pe, t=rec.t_release,
            )
        elif book.makespan is not None and chain[3] > book.makespan + EPS:
            rec = tasks[i]
            yield AuditViolation(
                "clock-monotonic",
                f"task {rec.name} finished at {rec.t_finish}, after the "
                f"run's makespan {book.makespan}",
                tid=rec.tid, pe=rec.pe, t=rec.t_finish,
            )
    for app in book.apps.values():
        if app.t_finish is None:
            continue  # app-accounting owns that failure
        # a kill command can land before the launch bookkeeping ran, so
        # cancelled apps only promise arrival <= finish
        launch_ok = app.cancelled or (
            app.t_arrival <= app.t_launch + EPS
            and app.t_launch <= app.t_finish + EPS
        )
        if not launch_ok or app.t_finish < app.t_arrival - EPS:
            yield AuditViolation(
                "clock-monotonic",
                f"app {app.name}#{app.app_id} lifecycle regresses: arrival "
                f"{app.t_arrival} -> launch {app.t_launch} -> finish "
                f"{app.t_finish}",
                t=app.t_arrival,
            )


def _check_round_monotonic(book: Logbook) -> Iterator[AuditViolation]:
    last = 0.0
    for when, depth in zip(book.rounds.column("t"), book.rounds.column("depth")):
        if when < last - EPS:
            yield AuditViolation(
                "round-monotonic",
                f"scheduling round at {when} recorded after one at {last}",
                t=when,
            )
        last = max(last, when)
        if depth < 1:
            yield AuditViolation(
                "round-monotonic",
                f"scheduling round at {when} saw an impossible ready depth "
                f"{depth} (rounds only run on non-empty queues)",
                t=when,
            )
        if book.makespan is not None and when > book.makespan + EPS:
            yield AuditViolation(
                "round-monotonic",
                f"scheduling round at {when} lies beyond the makespan "
                f"{book.makespan}",
                t=when,
            )


def _check_queue_accounting(book: Logbook) -> Iterator[AuditViolation]:
    # each round records its depth and one release instant per assignment,
    # so the totals agree exactly when every round assigned its whole batch
    depth = sum(book.rounds.column("depth"))
    if depth != len(book.releases):
        yield AuditViolation(
            "queue-accounting",
            f"rounds saw {depth} ready tasks but assigned "
            f"{len(book.releases)} - tasks were dropped or invented",
        )


def _check_cost_row_fresh(book: Logbook) -> Iterator[AuditViolation]:
    tasks, n_rows = book.tasks, book.header.cost_rows
    for i, row in enumerate(tasks.column("cost_row")):
        if row < 0:
            what = "completed without an interned cost row"
        elif row >= n_rows:
            what = f"points at cost row {row} of a {n_rows}-row table"
        else:
            continue
        rec = tasks[i]
        yield AuditViolation(
            "cost-row-fresh", f"task {rec.name} {what}", tid=rec.tid, pe=rec.pe, t=rec.t_finish
        )


#: the full catalog, in the order INTERNALS.md documents it.
CATALOG: tuple[Invariant, ...] = (
    Invariant(
        "causality",
        "for every edge u->v: t_start(v) >= t_finish(u)",
        _check_causality,
    ),
    Invariant(
        "exactly-once",
        "no tid appears in more than one completion record",
        _check_exactly_once,
    ),
    Invariant(
        "task-conservation",
        "task / app rows against incident rows: sum(attempts) <= retries; "
        "tasks lost == failed apps; failures >= retries",
        _check_task_conservation,
    ),
    Invariant(
        "app-accounting",
        "every app terminates; per healthy app, log rows == tasks submitted",
        _check_app_accounting,
    ),
    Invariant(
        "pe-support",
        "every task ran on a PE whose support mask includes its API",
        _check_pe_support,
    ),
    Invariant(
        "pe-exclusive",
        "per PE, completed-task intervals [t_start, t_finish] never overlap",
        _check_pe_exclusive,
    ),
    Invariant(
        "core-capacity",
        "per core: delivered <= speed * makespan and busy_time <= makespan",
        _check_core_capacity,
    ),
    Invariant(
        "clock-monotonic",
        "t_release <= t_scheduled <= t_start <= t_finish <= makespan; "
        "t_arrival <= t_launch <= t_finish per app",
        _check_clock_monotonic,
    ),
    Invariant(
        "round-monotonic",
        "scheduling-round times are non-decreasing with depth >= 1",
        _check_round_monotonic,
    ),
    Invariant(
        "queue-accounting",
        "every round's assignments are exactly its ready batch: "
        "sum(depth over rounds) == len(releases)",
        _check_queue_accounting,
    ),
    Invariant(
        "cost-row-fresh",
        "every completion's cost_row is a row of the run's one cost table",
        _check_cost_row_fresh,
    ),
)

_BY_CODE = {inv.code: inv for inv in CATALOG}


@dataclass
class AuditReport:
    """Outcome of one catalog pass."""

    violations: list[AuditViolation]
    invariants_checked: int
    tasks: int
    apps: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def raise_if_failed(self) -> None:
        if self.violations:
            raise AuditError(self.violations)

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"audit: {status} ({self.invariants_checked} invariants over "
            f"{self.tasks} tasks, {self.apps} apps)"
        )


def audit_logbook(book: Logbook, codes: Optional[list[str]] = None) -> AuditReport:
    """Run the catalog (or the named subset) over a run record, live or
    loaded from a dump."""
    if codes is None:
        invariants = CATALOG
    else:
        unknown = [c for c in codes if c not in _BY_CODE]
        if unknown:
            raise KeyError(
                f"unknown invariant code(s) {unknown}; "
                f"catalog has {sorted(_BY_CODE)}"
            )
        invariants = tuple(_BY_CODE[c] for c in codes)
    violations: list[AuditViolation] = []
    for inv in invariants:
        violations.extend(inv.check(book))
    return AuditReport(
        violations=violations,
        invariants_checked=len(invariants),
        tasks=len(book.tasks),
        apps=len(book.apps),
    )


class OnlineAuditor:
    """The shutdown fold of an audited run, as a class.

    Stateless: it stays only so the ``audit.online`` span of
    ``benchmarks/e2e/tracing.py`` has a target to time.
    """

    @staticmethod
    def final_check(runtime: "CedrRuntime") -> AuditReport:
        """Fold the catalog over a drained runtime's book; raises on damage."""
        report = audit_logbook(runtime.logbook)
        report.raise_if_failed()
        return report
