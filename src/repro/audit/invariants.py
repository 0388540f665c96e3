"""The audit layer's invariant catalog: what a correct CEDR run looks like.

CEDR's correctness contract - every submitted task runs exactly once, on a
PE that supports its API, after its dependencies, with the rows of the run
record (tasks, apps, rounds, fault-layer incidents) telling one consistent
story - is stated here as eleven machine-verifiable invariants over an
:class:`AuditView`: a uniform snapshot of a finished run assembled either
from a live :class:`~repro.runtime.CedrRuntime` (:meth:`AuditView.
from_runtime`) or from a saved :class:`~repro.runtime.Logbook` dump
(:meth:`AuditView.from_logbook`, the ``repro audit <logbook.json>`` path).

Each invariant is a generator yielding structured :class:`AuditViolation`
exceptions (code + offending task/PE/timestamps) rather than raising, so
:func:`audit_view` can collect the complete damage report.  An audited
run (``RuntimeConfig(audit=True)``) folds the catalog over its book once,
at shutdown, and raises :class:`AuditError` on damage; the one contract
that needs a decision in flight - a round assigns exactly its ready batch,
each task to a PE that can run it - the daemon enforces on every run,
raising the catalog's :class:`AuditViolation` at the offending round.

The catalog is deliberately conservative about *when* a check applies: an
offline dump has no cost-table token or core loads, a schema 1 / 2 dump
has no incident rows and one below schema 4 no release instants - each
invariant states its inputs and skips cleanly when they are absent, so
auditing never manufactures false alarms out of missing columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.platforms.pe import SUPPORT_MATRIX
from repro.runtime.logbook import AppRecord, Incident, Logbook, TaskRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.daemon import CedrRuntime

__all__ = [
    "AuditViolation",
    "AuditError",
    "CoreLoad",
    "AuditView",
    "Invariant",
    "CATALOG",
    "AuditReport",
    "audit_view",
    "audit_runtime",
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
        self.tid = tid
        self.pe = pe
        self.t = t


class AuditError(Exception):
    """A failed audit: carries every violation the catalog produced."""

    def __init__(self, violations: list[AuditViolation]) -> None:
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(
            f"audit failed with {len(violations)} violation(s):\n{lines}"
        )
        self.violations = violations


@dataclass(frozen=True)
class CoreLoad:
    """Capacity accounting of one processor-sharing core at shutdown."""

    name: str
    speed: float
    #: dedicated-core-seconds actually delivered to threads.
    delivered: float
    #: wall seconds the core had at least one runnable thread.
    busy_time: float


@dataclass
class AuditView:
    """Uniform audit input: everything the catalog can be asked about.

    The four row tuples are the run record; the optional fields exist only
    for a live runtime (or, for ``incidents``, a schema >= 3 dump) and the
    invariants that need them skip when they are ``None``/empty.
    """

    tasks: tuple[TaskRecord, ...] = ()
    apps: tuple[AppRecord, ...] = ()
    #: ``(t, depth, cost, t_begin)`` per scheduling round.
    rounds: tuple[tuple[float, int, float, float], ...] = ()
    #: fault-layer events; ``None`` when the dump predates them (schema
    #: 1 / 2), which is "unknown", not "none happened".
    incidents: Optional[tuple[Incident, ...]] = None
    #: the release instant of each task the rounds assigned; ``None``
    #: when the dump predates the section (schema < 4).
    releases: Optional[tuple[float, ...]] = None
    makespan: Optional[float] = None
    #: live cost-table identity; ``None`` for offline (saved-dump) views.
    cost_table_token: Optional[int] = None
    cost_table_rows: Optional[int] = None
    core_loads: tuple[CoreLoad, ...] = ()

    @classmethod
    def from_runtime(cls, runtime: "CedrRuntime") -> "AuditView":
        """Snapshot a finished runtime (an audited run's shutdown fold):
        the logbook view plus what only a live runtime knows."""
        cores = [*runtime.platform.worker_cores, runtime.platform.runtime_core]
        return replace(
            cls.from_logbook(runtime.logbook),
            makespan=runtime.metrics.makespan,
            cost_table_token=runtime.cost_table.token,
            cost_table_rows=runtime.cost_table.n_rows,
            core_loads=tuple(
                CoreLoad(
                    name=core.name,
                    speed=core.speed,
                    delivered=core.delivered,
                    busy_time=core.busy_time,
                )
                for core in cores
            ),
        )

    @classmethod
    def from_logbook(cls, logbook: Logbook) -> "AuditView":
        """The run record as an audit view (all an offline dump offers)."""
        finishes = [a.t_finish for a in logbook.apps.values() if a.t_finish is not None]
        finishes.extend(rec.t_finish for rec in logbook.tasks)
        return cls(
            tasks=tuple(logbook.tasks),
            apps=tuple(logbook.apps.values()),
            rounds=tuple(logbook.rounds),
            incidents=tuple(logbook.incidents) if logbook.schema >= 3 else None,
            releases=tuple(logbook.releases) if logbook.schema >= 4 else None,
            makespan=max(finishes) if finishes else None,
        )


# --------------------------------------------------------------------- #
# the catalog
# --------------------------------------------------------------------- #

Check = Callable[[AuditView], Iterator[AuditViolation]]


@dataclass(frozen=True)
class Invariant:
    """One named property with its formal statement (see INTERNALS.md)."""

    code: str
    statement: str
    check: Check = field(repr=False)


def _check_causality(view: AuditView) -> Iterator[AuditViolation]:
    recs = {rec.tid: rec for rec in view.tasks}
    for rec in view.tasks:
        for succ_tid in rec.successors:
            succ = recs.get(succ_tid)
            if succ is not None and succ.t_start < rec.t_finish - EPS:
                yield AuditViolation(
                    "causality",
                    f"task {succ.name} started at {succ.t_start} before its "
                    f"parent {rec.name} finished at {rec.t_finish}",
                    tid=succ.tid, pe=succ.pe, t=succ.t_start,
                )


def _check_exactly_once(view: AuditView) -> Iterator[AuditViolation]:
    seen: dict[int, TaskRecord] = {}
    for rec in view.tasks:
        prior = seen.get(rec.tid)
        if prior is not None:
            yield AuditViolation(
                "exactly-once",
                f"task {rec.name} completed twice "
                f"(on {prior.pe} at {prior.t_finish} and on {rec.pe} at "
                f"{rec.t_finish})",
                tid=rec.tid, pe=rec.pe, t=rec.t_finish,
            )
        else:
            seen[rec.tid] = rec


def _check_task_conservation(view: AuditView) -> Iterator[AuditViolation]:
    if view.incidents is None:
        return
    counts = Counter(incident.kind for incident in view.incidents)
    recorded_attempts = sum(rec.attempts for rec in view.tasks)
    if recorded_attempts > counts["retry"]:
        yield AuditViolation(
            "task-conservation",
            f"completed tasks carry {recorded_attempts} retry attempts "
            f"but only {counts['retry']} retries were issued",
        )
    failed_apps = sum(1 for app in view.apps if app.failed)
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


def _check_app_accounting(view: AuditView) -> Iterator[AuditViolation]:
    for app in view.apps:
        if app.t_finish is None:
            yield AuditViolation(
                "app-accounting",
                f"app {app.name}#{app.app_id} never terminated",
                t=app.t_arrival,
            )
    per_app: dict[int, int] = {}
    for rec in view.tasks:
        per_app[rec.app_id] = per_app.get(rec.app_id, 0) + 1
    for app in view.apps:
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


def _check_pe_support(view: AuditView) -> Iterator[AuditViolation]:
    for rec in view.tasks:
        supported = _SUPPORT_BY_KIND.get(rec.pe_kind)
        if supported is None:
            yield AuditViolation(
                "pe-support",
                f"task {rec.name} ran on unknown PE kind {rec.pe_kind!r}",
                tid=rec.tid, pe=rec.pe, t=rec.t_start,
            )
        elif rec.api not in supported:
            yield AuditViolation(
                "pe-support",
                f"task {rec.name} ({rec.api}) ran on {rec.pe} "
                f"({rec.pe_kind}), which supports only "
                f"{sorted(supported)}",
                tid=rec.tid, pe=rec.pe, t=rec.t_start,
            )


def _check_pe_exclusive(view: AuditView) -> Iterator[AuditViolation]:
    by_pe: dict[str, list[TaskRecord]] = {}
    for rec in view.tasks:
        by_pe.setdefault(rec.pe, []).append(rec)
    for pe, recs in by_pe.items():
        recs.sort(key=lambda r: (r.t_start, r.t_finish))
        for prev, rec in zip(recs, recs[1:]):
            if rec.t_start < prev.t_finish - EPS:
                yield AuditViolation(
                    "pe-exclusive",
                    f"tasks {prev.name} [{prev.t_start}, {prev.t_finish}] "
                    f"and {rec.name} [{rec.t_start}, {rec.t_finish}] "
                    f"overlapped on {pe}",
                    tid=rec.tid, pe=pe, t=rec.t_start,
                )


def _check_core_capacity(view: AuditView) -> Iterator[AuditViolation]:
    if view.makespan is None:
        return
    budget_scale = 1.0 + 1e-9  # float reassociation headroom
    for load in view.core_loads:
        budget = load.speed * view.makespan * budget_scale + EPS
        if load.delivered > budget:
            yield AuditViolation(
                "core-capacity",
                f"core {load.name} delivered {load.delivered}s of dedicated "
                f"compute in a {view.makespan}s run at speed {load.speed} - "
                f"more work than the share budget allows",
                pe=load.name, t=view.makespan,
            )
        if load.busy_time > view.makespan * budget_scale + EPS:
            yield AuditViolation(
                "core-capacity",
                f"core {load.name} was busy {load.busy_time}s in a "
                f"{view.makespan}s run",
                pe=load.name, t=view.makespan,
            )


def _check_clock_monotonic(view: AuditView) -> Iterator[AuditViolation]:
    for rec in view.tasks:
        chain = (rec.t_release, rec.t_scheduled, rec.t_start, rec.t_finish)
        if rec.t_release < -EPS or any(
            b < a - EPS for a, b in zip(chain, chain[1:])
        ):
            yield AuditViolation(
                "clock-monotonic",
                f"task {rec.name} timestamps regress: release "
                f"{rec.t_release} -> scheduled {rec.t_scheduled} -> start "
                f"{rec.t_start} -> finish {rec.t_finish}",
                tid=rec.tid, pe=rec.pe, t=rec.t_release,
            )
        elif view.makespan is not None and rec.t_finish > view.makespan + EPS:
            yield AuditViolation(
                "clock-monotonic",
                f"task {rec.name} finished at {rec.t_finish}, after the "
                f"run's makespan {view.makespan}",
                tid=rec.tid, pe=rec.pe, t=rec.t_finish,
            )
    for app in view.apps:
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


def _check_round_monotonic(view: AuditView) -> Iterator[AuditViolation]:
    last = 0.0
    for when, depth, _, _ in view.rounds:
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
        if view.makespan is not None and when > view.makespan + EPS:
            yield AuditViolation(
                "round-monotonic",
                f"scheduling round at {when} lies beyond the makespan "
                f"{view.makespan}",
                t=when,
            )


def _check_queue_accounting(view: AuditView) -> Iterator[AuditViolation]:
    # each round records its depth and one release instant per assignment,
    # so the totals agree exactly when every round assigned its whole batch
    if view.releases is None:
        return  # pre-v4 dump: no release instants to count
    depth = sum(row[1] for row in view.rounds)
    if depth != len(view.releases):
        yield AuditViolation(
            "queue-accounting",
            f"rounds saw {depth} ready tasks but assigned "
            f"{len(view.releases)} - tasks were dropped or invented",
        )


def _check_cost_row_fresh(view: AuditView) -> Iterator[AuditViolation]:
    # offline dumps carry no live table: all rows must still agree on one
    # token (a single table priced the whole run)
    tokens = {rec.cost_token for rec in view.tasks}
    if view.cost_table_token is None and tokens == {-1}:
        return  # v1 dump: the freshness columns predate this schema - skip
    if view.cost_table_token is None and len(tokens) > 1:
        yield AuditViolation(
            "cost-row-fresh",
            f"task rows were priced against {len(tokens)} different cost "
            f"tables ({sorted(tokens)}) within one run",
        )
    for rec in view.tasks:
        if rec.cost_row < 0:
            yield AuditViolation(
                "cost-row-fresh",
                f"task {rec.name} completed without an interned cost row",
                tid=rec.tid, pe=rec.pe, t=rec.t_finish,
            )
        elif view.cost_table_token is not None:
            if rec.cost_token != view.cost_table_token:
                yield AuditViolation(
                    "cost-row-fresh",
                    f"task {rec.name} carries stale cost token "
                    f"{rec.cost_token} (table token "
                    f"{view.cost_table_token}) - its estimates came from "
                    f"another table",
                    tid=rec.tid, pe=rec.pe, t=rec.t_finish,
                )
            elif (
                view.cost_table_rows is not None
                and rec.cost_row >= view.cost_table_rows
            ):
                yield AuditViolation(
                    "cost-row-fresh",
                    f"task {rec.name} points at cost row {rec.cost_row} of "
                    f"a {view.cost_table_rows}-row table",
                    tid=rec.tid, pe=rec.pe, t=rec.t_finish,
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
        "every completion's (cost_row, cost_token) is valid in the run's "
        "one cost table",
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


def audit_view(view: AuditView, codes: Optional[list[str]] = None) -> AuditReport:
    """Run the catalog (or the named subset) against one view."""
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
        violations.extend(inv.check(view))
    return AuditReport(
        violations=violations,
        invariants_checked=len(invariants),
        tasks=len(view.tasks),
        apps=len(view.apps),
    )


def audit_runtime(runtime: "CedrRuntime") -> AuditReport:
    """Audit a finished runtime in place."""
    return audit_view(AuditView.from_runtime(runtime))


def audit_logbook(logbook: Logbook) -> AuditReport:
    """Audit a saved (or reconstructed) logbook offline."""
    return audit_view(AuditView.from_logbook(logbook))


class OnlineAuditor:
    """The shutdown fold of an audited run, as a class.

    Stateless: it stays only so the ``audit.online`` span of
    ``benchmarks/e2e/tracing.py`` has a target to time.
    """

    @staticmethod
    def final_check(runtime: "CedrRuntime") -> AuditReport:
        """Fold the catalog over a drained runtime; raises on damage."""
        report = audit_runtime(runtime)
        report.raise_if_failed()
        return report
