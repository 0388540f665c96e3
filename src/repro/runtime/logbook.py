"""The run record: the one book a CEDR run writes.

The real runtime keeps one execution log per run - per-task rows plus the
performance-counter readings - and writes it out when the shutdown IPC
command arrives "for later offline analysis by the user".  :class:`Logbook`
is that log: append-only tables, one row per *entity* (a completed task is
one :class:`TaskRecord` row carrying its four instants, not four events).
The row tables - ``tasks``, ``rounds``, ``incidents`` and ``calls`` - are
:class:`Table` columns, not row objects:

===============  ======================================  ====================
``tasks``        one :class:`TaskRecord` per completion  written by workers
``apps``         one :class:`AppRecord` per submission   opened / closed by
                                                         the daemon
``rounds``       one :class:`Round` per scheduling        written by the
                 round                                   daemon
``releases``     the ``t_release`` of each task a        written by the
                 round assigned, round after round       daemon
``incidents``    one :class:`Incident` per fault-layer   written by the
                 event (see :data:`INCIDENT_KINDS`)      injector, daemon and
                                                         workers
``calls``        one :class:`CallRecord` per libCEDR     written by the
                 call, when it settles                   libCEDR client
``late_timers``  the instant of each ``call_at`` the     copied from the
                 engine clamped to now                   engine at shutdown
``charges``      each runtime-core bookkeeping charge    written by the
                 in seconds, then the idle-poll term     daemon
``makespan``     the instant the daemon drained          stamped at shutdown
``closed``       app ids in termination order            the daemon
``admissions``   one :class:`AdmissionRecord` per        the serve driver,
                 offered arrival; ``*_hwm`` stamps       which stamps at seal
``header``       the :class:`Header`: platform, PEs,     the daemon, as it is
                 scheduler, core loads, cost table       built and drains
===============  ======================================  ====================

Daemon, workers, the libCEDR client, the fault injector and the serve
driver record each happening exactly once, here.  Everything else -
:class:`~repro.runtime.PerfCounters`' simulated tallies, the results
(:meth:`repro.metrics.RunResult.from_logbook`,
:meth:`repro.serve.ServeResult.from_logbook`), the metric registry
(:meth:`repro.telemetry.CedrTelemetry.fold`), the Chrome trace, the Gantt
chart, the audit - is a read of these rows and the header, never of the
live runtime.

The dump stands alone and round-trips: :meth:`Logbook.load` rebuilds a
logbook from a saved dump, so ``repro audit <logbook.json>`` replays the
invariant catalog (:mod:`repro.audit`) and every view reads a run that
finished in another process, or last week, as it read the live one.  It
reads one schema (:data:`SCHEMA_VERSION`), with every section and column.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import starmap
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple, Optional

from repro.atomic import atomic_write

from .task import Task

if TYPE_CHECKING:  # pragma: no cover
    from .app import AppInstance

__all__ = [
    "TaskRecord",
    "AppRecord",
    "Incident",
    "CallRecord",
    "AdmissionRecord",
    "CoreLoad",
    "Header",
    "Round",
    "Table",
    "INCIDENT_KINDS",
    "Logbook",
    "SCHEMA_VERSION",
]

#: the one on-disk dump format this build writes and reads.
SCHEMA_VERSION = 6

#: a dump's sections beside ``schema``, each required: the lists of rows,
#: then the header and the stamps
_ROW_SECTIONS = ("tasks", "apps", "rounds", "releases", "incidents", "calls",
                 "late_timers", "charges", "closed", "admissions")
_SECTIONS = ("header", *_ROW_SECTIONS, "makespan", "in_system_hwm", "hold_hwm")

#: a column's declaration that the loader refuses a negative value in it
_NONNEGATIVE = {"nonnegative": True}

#: the fault layer's closed event taxonomy (:attr:`Incident.kind`).
INCIDENT_KINDS = (
    "fault",        # injector applied a fault; detail = fault kind, pe
    "failure",      # failed attempt detected; detail = detection kind, pe, tid
    "retry",        # recovery issued a retry; tid, attempt
    "redispatch",   # a retried task was handed to a worker again; tid, attempt, pe
    "lost",         # retry budget exhausted / no PE left; tid
    "stale",        # an invalidated dispatch was discarded; tid, pe
    "quarantine",   # PE pulled from the live mask; pe
    "revival",      # PE returned to the live mask; pe
    "recovery",     # a failed task completed; tid, seconds since first failure
)


@dataclass(unsafe_hash=True)
class TaskRecord:
    """One completed task, flattened for offline analysis: the row
    ``Logbook.tasks`` yields (see :class:`Table`); compares and hashes by value."""

    tid: int
    app_id: int
    api: str
    name: str
    pe: str
    pe_kind: str
    t_release: float
    t_scheduled: float
    t_start: float
    t_finish: float
    #: retry attempts the fault layer charged before this completion.
    attempts: int = field(default=0, metadata=_NONNEGATIVE)
    #: interned cost-table row + the table token guarding it (see
    #: :class:`repro.platforms.timing.CostTable`); ``-1`` = never interned.
    cost_row: int = -1
    cost_token: int = -1
    #: tids of DAG successors released by this completion (empty for API
    #: calls) - what the causality invariant checks ordering against.
    successors: tuple[int, ...] = ()

    @property
    def queue_wait(self) -> float:
        return self.t_scheduled - self.t_release

    @property
    def service_time(self) -> float:
        return self.t_finish - self.t_start


@dataclass
class AppRecord:
    """Lifecycle of one submitted application instance."""

    app_id: int
    name: str
    mode: str
    t_arrival: float
    t_launch: float = 0.0
    t_finish: Optional[float] = None
    n_tasks: int = 0
    #: terminated early by the kill IPC command (DAG mode).
    cancelled: bool = False
    #: declared failed by the fault layer (a task exhausted its retries).
    failed: bool = False

    @property
    def execution_time(self) -> float:
        """The paper's per-application execution time: arrival to completion,
        'including the overhead of all scheduling decisions in between'."""
        if self.t_finish is None:
            raise ValueError(f"app {self.app_id} ({self.name}) never finished")
        return self.t_finish - self.t_arrival


@dataclass(slots=True)
class Incident:
    """One fault-layer event (the row ``Logbook.incidents`` yields); which
    columns are set depends on ``kind``."""

    t: float
    kind: str
    #: fault kind (``fault``) or detection kind (``failure``: "transient",
    #: "hang", "failstop", "watchdog").
    detail: str = ""
    pe: str = ""
    tid: int = -1
    attempt: int = 0
    #: first-failure -> completion interval (``recovery``).
    seconds: float = field(default=0.0, metadata=_NONNEGATIVE)


@dataclass(slots=True)
class CallRecord:
    """One libCEDR call, appended once, when it settles (the row
    ``Logbook.calls`` yields).

    A blocking call is written by its application thread as it wakes; a
    non-blocking one by whoever settles its handle (the worker signalling
    completion, or the daemon failing it), whether or not the application
    ever waits on it.  So rows run in settle order, not call order.
    """

    api: str
    #: ``"blocking"`` or ``"nonblocking"``.
    mode: str
    #: the application thread entered the call.
    t_call: float
    #: the call counted as in flight: ``t_call`` for a blocking call, the
    #: return from submission for a non-blocking one.
    t_enter: float
    #: the blocking call's wake, or the non-blocking handle's settle.
    t_done: float


@dataclass(slots=True)
class AdmissionRecord:
    """One offered serve arrival, appended as its fate settles: shed
    (``t_admitted`` ``None``, ``app_id`` -1) or admitted - at once,
    ``degraded`` (outside the SLO), or out of the hold queue (``held``)."""

    tenant: str
    t_offered: float
    t_admitted: Optional[float]
    app_id: int
    held: bool = False
    degraded: bool = False


@dataclass(frozen=True)
class CoreLoad:
    """Capacity accounting of one processor-sharing core as the run drained."""

    name: str
    speed: float = field(metadata=_NONNEGATIVE)
    #: dedicated-core-seconds actually delivered to threads.
    delivered: float = field(metadata=_NONNEGATIVE)
    #: wall seconds the core had at least one runnable thread.
    busy_time: float = field(metadata=_NONNEGATIVE)


@dataclass
class Header:
    """What the views read beside the rows: the names the daemon stamps as
    it is built, the core loads and cost-table identity it stamps as it drains
    (or as a run stops short, so a book saved then audits too)."""

    platform: str = ""
    #: the PEs in index order, as ``(name, kind)``.
    pes: list[tuple[str, str]] = field(default_factory=list)
    scheduler: str = ""
    #: the worker cores, then the runtime core.
    cores: list[CoreLoad] = field(default_factory=list)
    #: the cost table's ``(token, n_rows)``.
    cost_table: tuple[int, int] = (-1, 0)


#: one scheduling round (a ``Logbook.rounds`` row): the dispatch instant ``t``
#: (``t_begin`` plus the decision ``cost`` in seconds as the runtime core
#: delivered it) and the ready batch ``depth`` the heuristic saw.
Round = NamedTuple("Round", [("t", float), ("depth", int), ("cost", float), ("t_begin", float)])


class Table:
    """A table of the run record kept as typed columns, not row objects.

    The *row* type's ``int`` columns sit interleaved in ``ints``
    (``array('q')``), its ``float`` columns in ``floats`` (``array('d')``)
    and the rest (shared strings, successor tuples) in the list ``objs``,
    each in field order, so a writer appends a row with one call per store
    (docs/INTERNALS.md, "The record's bytes per task").  Iterating yields
    *row* records one at a time; a fold reads :meth:`column` instead.
    """

    __slots__ = ("row", "names", "ints", "floats", "objs", "_plan", "_at")

    def __init__(self, row: type, rows: Iterable = ()) -> None:
        self.row, self.names = row, tuple(row.__annotations__)
        self.ints, self.floats, self.objs = array("q"), array("d"), []
        numeric = {int: self.ints, "int": self.ints, float: self.floats, "float": self.floats}
        store_of = [numeric.get(getattr(kind, "__forward_arg__", kind), self.objs)
                    for kind in row.__annotations__.values()]
        #: each store with the fields it holds, and each field's (store, offset, stride)
        plan = [(store, [i for i, s in enumerate(store_of) if s is store])
                for store in (self.ints, self.floats, self.objs)]
        self._plan = [(store, idx) for store, idx in plan if idx]
        self._at = [(s, idx.index(i), len(idx)) for i, s in enumerate(store_of)
                    for store, idx in self._plan if store is s]
        for r in rows:
            self.append(r)

    def append(self, row: Any) -> None:
        """Add one row: a record of the row type, or its values in field order."""
        if not isinstance(row, (tuple, list)):
            row = [getattr(row, name) for name in self.names]
        for store, idx in self._plan:
            store.extend([row[i] for i in idx])

    def column(self, name: str) -> Any:
        """Every row's *name*, in row order: an ``array`` copy for a numeric
        column, a list otherwise."""
        store, j, k = self._at[self.names.index(name)]
        return store[j::k]

    def values(self) -> Iterator[tuple]:
        """The rows as plain tuples in field order."""
        return zip(*map(self.column, self.names))

    def __iter__(self) -> Iterator[Any]:
        return starmap(self.row, self.values())

    def __len__(self) -> int:
        store, idx = self._plan[0]
        return len(store) // len(idx)

    def __getitem__(self, i: int) -> Any:
        i = range(len(self))[i]
        return self.row(*(store[i * k + j] for store, j, k in self._at))


#: JSON types a dump column may hold, keyed by the record classes' field
#: annotations.
_SEQ = (list, tuple)
_COLUMN_TYPES = {
    "int": int, "float": (int, float), "str": str, "bool": bool,
    "Optional[float]": (int, float, type(None)), "tuple[int, ...]": _SEQ,
    "list[tuple[str, str]]": _SEQ, "list[CoreLoad]": _SEQ, "tuple[int, int]": _SEQ,
}


def _mistyped(value: Any, kind: str) -> bool:
    """Whether *value* cannot fill a column of annotation *kind*: ``True``
    is an ``int`` to ``isinstance``, so only a bool column takes a bool; a
    successor list holds task ids only, a header PE is ``[name, kind]`` and
    the cost table ``[token, n_rows]``; an integer fits ``array('q')``."""
    if type(value) is bool:
        return kind != "bool"
    if kind == "tuple[int, ...]" and isinstance(value, _SEQ):
        return any(type(tid) is not int for tid in value)
    if kind == "list[tuple[str, str]]" and isinstance(value, _SEQ):
        return any(not isinstance(pe, _SEQ) or [type(s) for s in pe] != [str, str]
                   for pe in value)
    if kind == "tuple[int, int]" and isinstance(value, _SEQ):
        return [type(v) for v in value] != [int, int]
    if kind == "int" and type(value) is int:
        return not -(1 << 63) <= value < 1 << 63
    return not isinstance(value, _COLUMN_TYPES[kind])


def _load_record(cls, where: str, row: Any) -> list:
    """The values, in field order, of the dump row at *where* for record
    class *cls* (what a :class:`Table` appends, or ``cls(*values)``); a JSON
    list comes back a tuple.

    Missing, unknown (a *newer* dump than this code: silently dropping
    columns would let an audit pass on data it never saw), mistyped,
    non-finite and (where a column is declared ``_NONNEGATIVE``) negative
    columns are named.
    """
    if not isinstance(row, dict):
        raise ValueError(f"{where}: expected an object, got {type(row).__name__}")
    columns = {f.name: f for f in fields(cls)}
    unknown = sorted(set(row) - set(columns))
    if unknown:
        raise ValueError(
            f"{where}: {cls.__name__} dump carries unknown columns {unknown}; "
            f"refusing to audit a newer schema than this build understands"
        )
    missing = [n for n in columns if n not in row]
    mistyped = [n for n, v in row.items() if _mistyped(v, columns[n].type)]
    if missing or mistyped:
        raise ValueError(f"{where}: missing columns {missing}, mistyped columns {mistyped}")
    _refuse_nonfinite(where, row.items())
    negative = [n for n, v in row.items() if columns[n].metadata.get("nonnegative") and v < 0]
    if negative:
        raise ValueError(f"{where}: negative columns {negative}")
    return [tuple(row[n]) if type(row[n]) is list else row[n] for n in columns]


def _refuse_nonfinite(where: str, columns: Iterable[tuple[str, Any]]) -> None:
    """The one-line error naming each ``(name, value)`` column that holds a
    NaN or an infinity (``json.loads`` accepts both)."""
    bad = [name for name, value in columns if type(value) is float and not math.isfinite(value)]
    if bad:
        raise ValueError(f"{where}: non-finite columns {bad}")


def _load_round(where: str, row: Any) -> tuple[float, int, float, float]:
    """A round row: ``[t, depth, cost, t_begin]``."""
    if not (isinstance(row, list) and len(row) == 4 and type(row[1]) is int
            and abs(row[1]) < 1 << 63 and all(type(v) in (int, float) for v in row)):
        raise ValueError(f"{where}: expected [t, depth, cost, t_begin] "
                         f"with an integer depth, got {row!r}")
    _refuse_nonfinite(where, zip(Round._fields, row))
    t, depth, cost, t_begin = row
    if cost < 0:
        raise ValueError(f"{where}: negative decision cost {cost!r}")
    return (float(t), depth, float(cost), float(t_begin))


def _load_header(header: Any) -> Header:
    """The dump's :class:`Header`, its PE and core names each unique."""
    platform, pes, scheduler, cores, cost_table = _load_record(Header, "header", header)
    cores = [CoreLoad(*_load_record(CoreLoad, f"header.cores[{i}]", row))
             for i, row in enumerate(cores)]
    for where, names in (("pes", [name for name, _ in pes]), ("cores", [c.name for c in cores])):
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"header.{where}: repeated names {repeated}")
    return Header(platform, [tuple(pe) for pe in pes], scheduler, cores, cost_table)


def _typed(where: str, value: Any, types: tuple, what: str, nonnegative: bool = False) -> Any:
    """*value*, if its exact type is one of *types* and it is not a NaN, an
    infinity or (when *nonnegative*) below zero; else the one-line error."""
    if (
        type(value) not in types
        or (type(value) is float and not math.isfinite(value))
        or (nonnegative and value is not None and value < 0)
    ):
        raise ValueError(f"{where}: expected {what}, got {value!r}")
    return value


class Logbook:
    """The run record: in-memory rows with shutdown-time serialization."""

    def __init__(self) -> None:
        self.header = Header()
        self.tasks = Table(TaskRecord)
        #: keyed by app id; insertion order is arrival order.
        self.apps: dict[int, AppRecord] = {}
        self.rounds = Table(Round)
        #: the ``t_release`` of each task a round assigned, in assignment
        #: order, rounds in order: a round assigns its whole ready batch,
        #: so round *k*'s ``depth`` entries follow round *k - 1*'s.
        self.releases = array("d")
        self.incidents = Table(Incident)
        self.calls = Table(CallRecord)
        self.late_timers: list[float] = []
        #: each bookkeeping charge's ``work``, then the idle-poll term
        self.charges: list[float] = []
        self.makespan: Optional[float] = None  # stamped as the daemon drains
        #: app ids in termination order (``t_finish`` can tie)
        self.closed: list[int] = []
        self.admissions: list[AdmissionRecord] = []
        #: the admission controller's high-water marks, stamped at seal
        self.in_system_hwm = 0
        self.hold_hwm: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # the write side: one call per happening
    # ------------------------------------------------------------------ #

    def record_task(self, task: Task) -> None:
        """A worker completed *task* (``task.pe`` and its instants are set):
        one call per store of :attr:`tasks`, each in field order - ``fromlist``
        for the arrays, where ``extend`` converts item by item at twice the cost."""
        pe, successors, tasks = task.pe.desc, task.successors, self.tasks
        tasks.ints.fromlist([task.tid, task.app_id, task.attempts, task.cost_row, task.cost_token])
        tasks.objs.extend((  # ``.value`` is a Python-level enum.property
            task.api, task.name, pe.name, pe.kind._value_,
            tuple([s.tid for s in successors]) if successors else (),
        ))
        tasks.floats.fromlist([task.t_release, task.t_scheduled, task.t_start, task.t_finish])

    def record_round(self, now: float, ready_depth: int, cost: float, t_begin: float,
                     releases: list[float]) -> None:
        """One scheduling round dispatched at *now*, with the release
        instants of the *ready_depth* tasks it assigned."""
        self.rounds.floats.fromlist([now, cost, t_begin])
        self.rounds.ints.append(ready_depth)
        self.releases.fromlist(releases)

    def record_call(self, api: str, mode: str, t_call: float, t_enter: float, t_done: float):
        """A libCEDR call settled (:class:`CallRecord` columns)."""
        self.calls.objs.extend((api, mode))
        self.calls.floats.fromlist([t_call, t_enter, t_done])

    def open_app(self, app: "AppInstance") -> None:
        """*app* arrived over IPC."""
        self.apps[app.app_id] = AppRecord(
            app_id=app.app_id, name=app.name, mode=app.mode, t_arrival=app.t_arrival
        )

    def close_app(self, app: "AppInstance") -> None:
        """*app* terminated (finished, cancelled or failed) at ``app.t_finish``."""
        record = self.apps[app.app_id]
        record.t_finish = app.t_finish
        record.t_launch = app.t_launch
        record.n_tasks = app.tasks_total
        record.cancelled = app.cancelled
        record.failed = app.failed
        self.closed.append(app.app_id)

    def record_incident(self, t: float, kind: str, detail: str = "", *, pe: str = "",
                        tid: int = -1, attempt: int = 0, seconds: float = 0.0) -> None:
        """One fault-layer event of :data:`INCIDENT_KINDS` at instant *t*."""
        incidents = self.incidents
        incidents.floats.fromlist([t, seconds])
        incidents.objs.extend((kind, detail, pe))
        incidents.ints.fromlist([tid, attempt])

    def record_admission(self, *columns: Any) -> None:
        """A serve arrival's fate settled: :class:`AdmissionRecord` columns."""
        self.admissions.append(AdmissionRecord(*columns))

    # ------------------------------------------------------------------ #
    # the shutdown dump
    # ------------------------------------------------------------------ #

    def serialize(self) -> dict[str, Any]:
        """JSON-compatible dump (what CEDR writes at shutdown)."""
        def rows(table: Table) -> list[dict[str, Any]]:
            return [dict(zip(table.names, row)) for row in table.values()]

        return {
            "schema": SCHEMA_VERSION,
            "header": asdict(self.header),
            "tasks": rows(self.tasks),
            "apps": [asdict(a) for a in self.apps.values()],
            "rounds": [list(row) for row in self.rounds.values()],
            "releases": list(self.releases),
            "incidents": rows(self.incidents),
            "calls": rows(self.calls),
            "late_timers": list(self.late_timers),
            "charges": list(self.charges),
            "makespan": self.makespan,
            "closed": list(self.closed),
            "admissions": [asdict(a) for a in self.admissions],
            "in_system_hwm": self.in_system_hwm,
            "hold_hwm": dict(self.hold_hwm),
        }

    def save(self, path) -> str:
        """Write :meth:`serialize` as JSON to *path* (the shutdown dump)."""
        text = json.dumps(self.serialize(), indent=2, allow_nan=False)
        with atomic_write(path) as fh:
            fh.write(text)
        return str(path)

    @classmethod
    def from_dict(cls, dump: Any) -> "Logbook":
        """Rebuild a logbook from a :meth:`serialize` dump.

        Raises :class:`ValueError` naming the section, row and columns of
        the first thing that is not a dump of :data:`SCHEMA_VERSION`.
        """
        if not isinstance(dump, dict):
            raise ValueError("not a logbook dump: expected a JSON object, "
                             f"got {type(dump).__name__}")
        schema = dump.get("schema")
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported logbook schema {schema!r} "
                             f"(this build reads {SCHEMA_VERSION} only)")
        missing = [name for name in _SECTIONS if name not in dump]
        unknown = sorted(set(dump) - {"schema", *_SECTIONS})
        if missing or unknown:
            raise ValueError(f"missing sections {missing}, unknown sections {unknown}")
        for name in _ROW_SECTIONS:
            if not isinstance(dump[name], list):
                raise ValueError(f"{name}: expected a list of rows, "
                                 f"got {type(dump[name]).__name__}")
        book = cls()
        book.header = _load_header(dump["header"])
        for name, row_type in (("tasks", TaskRecord), ("incidents", Incident),
                               ("calls", CallRecord)):
            for i, row in enumerate(dump[name]):
                getattr(book, name).append(_load_record(row_type, f"{name}[{i}]", row))
        pes = set(book.header.pes)
        for i, pe in enumerate(zip(book.tasks.column("pe"), book.tasks.column("pe_kind"))):
            if pe not in pes:
                raise ValueError(f"tasks[{i}]: PE {pe[0]!r} of kind {pe[1]!r} is not a header PE")
        for i, kind in enumerate(book.incidents.column("kind")):
            if kind not in INCIDENT_KINDS:
                raise ValueError(f"incidents[{i}]: unknown kind {kind!r}")
        for i, row in enumerate(dump["apps"]):
            record = AppRecord(*_load_record(AppRecord, f"apps[{i}]", row))
            if record.app_id in book.apps:
                raise ValueError(f"apps[{i}]: app id {record.app_id} repeats an earlier row")
            book.apps[record.app_id] = record
        for i, row in enumerate(dump["rounds"]):
            book.rounds.append(_load_round(f"rounds[{i}]", row))
        for name in ("releases", "late_timers", "charges"):
            what = "a duration" if name == "charges" else "an instant"
            for i, t in enumerate(dump[name]):
                getattr(book, name).append(float(_typed(
                    f"{name}[{i}]", t, (int, float), what, nonnegative=name == "charges"
                )))
        book.closed = [_typed(f"closed[{i}]", app_id, (int,), "an app id")
                       for i, app_id in enumerate(dump["closed"])]
        seen: set[int] = set()  # an app terminates once, after it arrived
        for i, app_id in enumerate(book.closed):
            if app_id not in book.apps or app_id in seen:
                raise ValueError(f"closed[{i}]: expected an app still open, got {app_id}")
            seen.add(app_id)
        book.admissions = [
            AdmissionRecord(*_load_record(AdmissionRecord, f"admissions[{i}]", row))
            for i, row in enumerate(dump["admissions"])
        ]
        makespan = _typed("makespan", dump["makespan"], (int, float, type(None)),
                          "an instant or null", nonnegative=True)
        book.makespan = None if makespan is None else float(makespan)
        book.in_system_hwm = _typed("in_system_hwm", dump["in_system_hwm"], (int,),
                                    "an integer >= 0", nonnegative=True)
        holds = _typed("hold_hwm", dump["hold_hwm"], (dict,), "tenant -> integer")
        book.hold_hwm = {
            name: _typed(f"hold_hwm[{name!r}]", n, (int,), "an integer >= 0", nonnegative=True)
            for name, n in holds.items()
        }
        assigned = sum(book.rounds.column("depth"))
        if len(book.releases) != assigned:
            raise ValueError(f"releases: {len(book.releases)} instants for the {assigned} "
                             f"tasks the rounds assigned")
        return book

    @classmethod
    def load(cls, path) -> "Logbook":
        """Read a :meth:`save` dump back; inverse of the shutdown write."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def tasks_by_pe(self) -> dict[str, int]:
        """Per-PE executed-task histogram (quick load-balance view)."""
        return dict(Counter(self.tasks.column("pe")))

    def incident_counts(self) -> Counter:
        """Incidents per kind of :data:`INCIDENT_KINDS` (absent kinds read 0)."""
        return Counter(self.incidents.column("kind"))

    def ready_depths(self) -> tuple[int, float]:
        """``(max, mean)`` of the ready batches the scheduling rounds saw."""
        depths = self.rounds.column("depth")
        return max(depths, default=0), (sum(depths) / len(depths) if depths else 0.0)

    def mean_time_to_recovery(self) -> float:
        """Average first-failure -> completion interval of recovered tasks,
        in a plain loop: ``sum()`` is compensated from CPython 3.12."""
        total, n = 0.0, 0
        for kind, seconds in zip(self.incidents.column("kind"), self.incidents.column("seconds")):
            if kind == "recovery":
                total += seconds
                n += 1
        return total / n if n else 0.0
