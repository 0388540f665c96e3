"""The run record: the one book a CEDR run writes.

The real runtime keeps one execution log per run - per-task rows plus the
performance-counter readings - and writes it out when the shutdown IPC
command arrives "for later offline analysis by the user".  :class:`Logbook`
is that log: append-only tables, one row per *entity* (a completed task is
one :class:`TaskRecord` row carrying its four instants, not four events).
Its sections, who writes each, and every column's domain are declared
once, in :class:`Dump` and the record classes it lists.  The row tables -
``tasks``, ``rounds``, ``incidents`` and ``calls`` - are :class:`Table`
columns, not row objects.

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
reads one schema (:data:`SCHEMA_VERSION`), with every section and column,
and refuses a value outside its column's declared domain.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import starmap
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple, Optional, Union,
                    get_args, get_origin, get_type_hints)

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
    "HeaderPE",
    "Header",
    "Dump",
    "Round",
    "Table",
    "INCIDENT_KINDS",
    "Logbook",
    "SCHEMA_VERSION",
]

#: the one on-disk dump format this build writes and reads.
SCHEMA_VERSION = 7

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

#: A column's domain beyond its type, declared in its ``field(metadata=...)``
#: (a positional row's ``domains``): ``nonnegative``; ``choices``, the values
#: it may take; ``unique`` in its list; ``refers``, naming a row of that list
#: by the row's first column (first two, paired ``with`` a column) or ``none``.
_NONNEGATIVE = {"nonnegative": True}
_UNIQUE = {"unique": True}
_APP = {"refers": "apps"}


@dataclass(unsafe_hash=True)
class TaskRecord:
    """One completed task, flattened for offline analysis: the row
    ``Logbook.tasks`` yields (see :class:`Table`); compares and hashes by value."""

    tid: int
    app_id: int = field(metadata=_APP)
    api: str
    name: str
    pe: str = field(metadata={"refers": "header.pes", "with": "pe_kind"})
    pe_kind: str
    t_release: float
    t_scheduled: float
    t_start: float
    t_finish: float
    #: retry attempts the fault layer charged before this completion.
    attempts: int = field(default=0, metadata=_NONNEGATIVE)
    #: interned row of the run's :class:`repro.platforms.timing.CostTable`;
    #: ``-1`` = never interned.
    cost_row: int = -1
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

    app_id: int = field(metadata=_UNIQUE)
    name: str
    mode: str = field(metadata={"choices": ("api", "dag")})
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
    kind: str = field(metadata={"choices": INCIDENT_KINDS})
    #: fault kind (``fault``) or detection kind (``failure``: "transient",
    #: "hang", "failstop", "watchdog").
    detail: str = ""
    pe: str = field(default="", metadata={"refers": "header.pes", "none": ""})
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
    mode: str = field(metadata={"choices": ("blocking", "nonblocking")})
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
    app_id: int = field(metadata={**_APP, "none": -1})
    held: bool = False
    degraded: bool = False


@dataclass(frozen=True)
class CoreLoad:
    """Capacity accounting of one processor-sharing core as the run drained."""

    name: str = field(metadata=_UNIQUE)
    speed: float = field(metadata=_NONNEGATIVE)
    #: dedicated-core-seconds actually delivered to threads.
    delivered: float = field(metadata=_NONNEGATIVE)
    #: wall seconds the core had at least one runnable thread.
    busy_time: float = field(metadata=_NONNEGATIVE)


#: one PE as the header names it, a ``[name, kind]`` pair in the dump.
HeaderPE = NamedTuple("HeaderPE", [("name", str), ("kind", str)])
HeaderPE.domains = {"name": _UNIQUE}


@dataclass
class Header:
    """What the views read beside the rows: the names the daemon stamps as
    it is built, the core loads and cost-table size it stamps as it drains
    (or as a run stops short, so a book saved then audits too)."""

    platform: str = ""
    #: the PEs in index order, as ``(name, kind)``.
    pes: list[HeaderPE] = field(default_factory=list)
    scheduler: str = ""
    #: the worker cores, then the runtime core.
    cores: list[CoreLoad] = field(default_factory=list)
    #: the rows the run's cost table interned.
    cost_rows: int = field(default=0, metadata=_NONNEGATIVE)


#: one scheduling round (a ``Logbook.rounds`` row): the dispatch instant ``t``
#: (``t_begin`` plus the decision ``cost`` in seconds as the runtime core
#: delivered it) and the ready batch ``depth`` the heuristic saw.
Round = NamedTuple("Round", [("t", float), ("depth", int), ("cost", float), ("t_begin", float)])
Round.domains = {"cost": _NONNEGATIVE}


@dataclass
class Dump:
    """The dump's sections beside ``schema``, in the order they are written,
    and who writes them: the one declaration of the format.  A section of
    rows is a list of its record; each other section is a column here."""

    header: Header
    tasks: list[TaskRecord]             # the workers, one per completion
    apps: list[AppRecord]               # the daemon, opened then closed
    rounds: list[Round]                 # the daemon, one per scheduling round
    #: the ``t_release`` of each task a round assigned, in assignment order:
    #: round *k*'s ``depth`` entries follow round *k - 1*'s
    releases: list[float]
    incidents: list[Incident]           # the injector, the daemon and workers
    calls: list[CallRecord]             # the libCEDR client, as calls settle
    #: each ``call_at`` instant the engine clamped to now, copied at shutdown
    late_timers: list[float]
    #: each runtime-core bookkeeping charge's ``work``, then the idle-poll term
    charges: list[float] = field(metadata=_NONNEGATIVE)
    makespan: Optional[float] = field(metadata=_NONNEGATIVE)    # as the daemon drains
    #: app ids in termination order (``t_finish`` can tie); an app closes once
    closed: list[int] = field(metadata={**_APP, **_UNIQUE})
    admissions: list[AdmissionRecord]   # the serve driver, one per arrival
    #: the admission controller's high-water marks, stamped at seal
    in_system_hwm: int = field(metadata=_NONNEGATIVE)
    hold_hwm: dict[str, int] = field(metadata=_NONNEGATIVE)


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


@cache
def _columns(cls: type) -> tuple[tuple[str, Any, Any, Any, Optional[type]], ...]:
    """``(name, type, domain, origin, record)`` of each column of record
    class *cls*: the annotation's type and its generic origin, the declared
    domain, and the record class the column holds (one or a list), if any."""
    domains = {f.name: f.metadata for f in fields(cls)} if is_dataclass(cls) else cls.domains
    columns = []
    for name, kind in get_type_hints(cls).items():
        origin = get_origin(kind)
        record = get_args(kind)[0] if origin is list else kind
        record = record if is_dataclass(record) or hasattr(record, "_fields") else None
        columns.append((name, kind, domains.get(name, {}), origin, record))
    return tuple(columns)


def _fits(value: Any, kind: Any) -> bool:
    """Whether JSON *value* can fill a column of type *kind*: ``True`` is an
    ``int`` to ``isinstance``, so only a bool column takes a bool, and an
    integer must fit ``array('q')``."""
    if kind is float:
        return type(value) in (int, float)
    if kind is int:
        return type(value) is int and -(1 << 63) <= value < 1 << 63
    if kind in (str, bool, type(None)):
        return type(value) is kind
    args = get_args(kind)
    if get_origin(kind) is Union:
        return any(_fits(value, k) for k in args)
    if isinstance(value, (list, tuple)) and args[-1] is Ellipsis:
        args = args[:1] * len(value)
    return isinstance(value, (list, tuple)) and len(value) == len(args) and all(
        map(_fits, value, args))


def _check(where: str, cells: list, missing: Optional[list] = None) -> None:
    """Refuse, on one line naming *where* and the columns, a cell ``(name,
    value, type, domain)`` outside its type, finiteness, sign or ``choices``;
    a JSON object row's *missing* columns are named with the mistyped ones."""
    mistyped = [name for name, value, kind, _ in cells if not _fits(value, kind)]
    if missing or mistyped:
        head = "" if missing is None else f"missing columns {missing}, "
        raise ValueError(f"{where}: {head}mistyped columns {mistyped}")
    nonfinite = [n for n, v, _, _ in cells if type(v) is float and not math.isfinite(v)]
    negative = [n for n, v, _, d in cells if "nonnegative" in d and v is not None and v < 0]
    for problem, bad in (("non-finite", nonfinite), ("negative", negative)):
        if bad:
            raise ValueError(f"{where}: {problem} columns {bad}")
    for name, value, _, domain in cells:
        if "choices" in domain and value not in domain["choices"]:
            raise ValueError(f"{where}: unknown {name} {value!r}")


def _load_row(cls: type, where: str, row: Any, lists: dict) -> list:
    """The values, in field order, of the row of record class *cls* at
    *where* (``""``: the dump, whose columns are sections), checked against
    the declared domains.  A positional row (a :class:`~typing.NamedTuple`)
    is a JSON list, any other a JSON object; unknown columns (a *newer* dump:
    dropping them would let an audit pass on data it never saw) are refused.
    A list or object column's entries are named ``where.name[i]`` and kept
    in *lists* for :func:`_check_names`."""
    columns = _columns(cls)
    names = [name for name, *_ in columns]
    if hasattr(cls, "_fields"):
        if not isinstance(row, (list, tuple)) or len(row) != len(names):
            raise ValueError(f"{where}: expected [{', '.join(names)}], got {row!r}")
        row, missing = dict(zip(names, row)), None
    elif not isinstance(row, dict):
        raise ValueError(f"{where}: expected an object, got {type(row).__name__}")
    else:
        unknown = sorted(set(row) - set(names))
        missing = [name for name in names if name not in row]
        if not where and (missing or unknown):
            raise ValueError(f"missing sections {missing}, unknown sections {unknown}")
        if unknown:
            raise ValueError(f"{where}: {cls.__name__} dump carries unknown columns {unknown}; "
                             "refusing to audit a newer schema than this build understands")
    cells = [(name, row[name], kind, domain) for name, kind, domain, origin, record in columns
             if name in row and origin not in (list, dict) and not record]
    for at, group in [(where, cells)] if where else [(cell[0], [cell]) for cell in cells]:
        _check(at, group, missing if where else None)
    values = []
    for name, kind, domain, origin, record in columns:
        value, at = row[name], f"{where}.{name}" if where else name
        if record is kind:
            value = record(*_load_row(record, at, value, lists))
        elif origin in (list, dict):
            if not isinstance(value, origin):
                what = "a list of rows" if origin is list else "an object"
                raise ValueError(f"{at}: expected {what}, got {type(value).__name__}")
            if record:
                rows = [_load_row(record, f"{at}[{i}]", r, lists) for i, r in enumerate(value)]
                lists[at] = (_columns(record), rows)
                # the dump's own lists stay values, which a Table appends as they are
                value = [record(*r) for r in rows] if where else rows
            else:
                entries = list(value.items() if origin is dict else enumerate(value))
                for key, entry in entries:
                    _check(f"{at}[{key!r}]", [(name, entry, get_args(kind)[-1], domain)])
                lists[at] = (((name, kind, domain, origin, None),), [(e,) for _, e in entries])
                value = origin(value)
        elif type(value) is list:
            value = tuple(value)
        values.append(value)
    return values


def _check_names(lists: dict) -> None:
    """The domains that read other rows, once every section has loaded: a
    ``unique`` column repeats no earlier row of its list, and a ``refers``
    one names a row of the list it refers to, or is its ``none``."""
    for name, (columns, rows) in lists.items():
        for j, (column, _, domain, _, _) in enumerate(columns):
            pair, refers = domain.get("with"), domain.get("refers")
            if pair:
                k = [c for c, *_ in columns].index(pair)
                column, values = f"({column}, {pair})", [(row[j], row[k]) for row in rows]
            elif refers or "unique" in domain:
                values = [row[j] for row in rows]
            else:
                continue
            if refers:
                known = {tuple(row[:2]) if pair else row[0] for row in lists[refers][1]}
                known.update([domain["none"]] if "none" in domain else [])
            seen: set = set()
            for i, value in enumerate(values):
                if "unique" in domain and value in seen:
                    raise ValueError(f"{name}[{i}]: {column} {value!r} repeats an earlier row")
                if refers and value not in known:
                    raise ValueError(f"{name}[{i}]: {column} {value!r} names no {refers} row")
                seen.add(value)


class Logbook:
    """The run record: in-memory rows with shutdown-time serialization."""

    def __init__(self) -> None:
        self.header = Header()
        self.tasks = Table(TaskRecord)
        #: keyed by app id; insertion order is arrival order.
        self.apps: dict[int, AppRecord] = {}
        self.rounds = Table(Round)
        self.releases = array("d")
        self.incidents = Table(Incident)
        self.calls = Table(CallRecord)
        self.late_timers: list[float] = []
        self.charges: list[float] = []
        self.makespan: Optional[float] = None
        self.closed: list[int] = []
        self.admissions: list[AdmissionRecord] = []
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
        tasks.ints.fromlist([task.tid, task.app_id, task.attempts, task.cost_row])
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
        """JSON-compatible dump (what CEDR writes at shutdown): the sections
        of :class:`Dump`, in order."""
        dump: dict[str, Any] = {"schema": SCHEMA_VERSION}
        for name, _, _, _, record in _columns(Dump):
            value = getattr(self, name)
            if isinstance(value, Table):
                value = [list(row) if hasattr(value.row, "_fields")
                         else dict(zip(value.names, row)) for row in value.values()]
            elif is_dataclass(value):
                value = asdict(value)
            elif record:        # the admissions, and the apps keyed by app id
                value = [asdict(row) for row in (value.values() if name == "apps" else value)]
            elif isinstance(value, (list, array, dict)):
                value = dict(value) if isinstance(value, dict) else list(value)
            dump[name] = value
        return dump

    def save(self, path) -> str:
        """Write :meth:`serialize` as JSON to *path* (the shutdown dump)."""
        text = json.dumps(self.serialize(), indent=2, allow_nan=False)
        with atomic_write(path) as fh:
            fh.write(text)
        return str(path)

    @classmethod
    def from_dict(cls, dump: Any) -> "Logbook":
        """Rebuild a logbook from a :meth:`serialize` dump.

        Every section is checked against its declaration in :class:`Dump`:
        raises :class:`ValueError` naming the section, row and column of
        the first value outside its column's domain, or the first thing
        that is not a dump of :data:`SCHEMA_VERSION`.
        """
        if not isinstance(dump, dict):
            raise ValueError("not a logbook dump: expected a JSON object, "
                             f"got {type(dump).__name__}")
        schema = dump.get("schema")
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported logbook schema {schema!r} "
                             f"(this build reads {SCHEMA_VERSION} only)")
        book, lists = cls(), {}
        values = _load_row(Dump, "", {k: v for k, v in dump.items() if k != "schema"}, lists)
        _check_names(lists)
        for (name, _, _, _, record), value in zip(_columns(Dump), values):
            target = getattr(book, name)
            if isinstance(target, Table):
                value = Table(record, value)
            elif isinstance(target, array):
                value = array(target.typecode, value)
            elif isinstance(value, list) and record:    # the admissions; the apps by app id
                value = [record(*row) for row in value]
                value = {app.app_id: app for app in value} if name == "apps" else value
            setattr(book, name, value)
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
