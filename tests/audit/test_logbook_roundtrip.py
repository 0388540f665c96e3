"""Logbook serialize/save/load round-trip and on-disk schema stability.

``repro audit <logbook.json>`` replays the invariant catalog against a
dump written by another process (or another week), and the trace and the
Gantt chart read one too, so the dump format is a contract: it must
round-trip losslessly, carry everything a view reads, version itself, and
*refuse* any other schema.  ``golden_logbook_v7.json`` pins the schema
byte-for-byte on a faulty run (every incident kind present) - regenerate it
deliberately (``python tests/audit/test_logbook_roundtrip.py`` rewrites it
from ``_golden_run``) if the format ever changes, and bump
:data:`SCHEMA_VERSION` when you do.
"""

import copy
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.audit import audit_logbook
from repro.faults import FaultConfig, FaultKind
from repro.metrics import render_gantt
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, PerfCounters, RuntimeConfig, to_chrome_trace
from repro.runtime.logbook import (
    INCIDENT_KINDS,
    SCHEMA_VERSION,
    AppRecord,
    Dump,
    Logbook,
    TaskRecord,
    _columns,
)

GOLDEN = Path(__file__).parent / "golden_logbook_v7.json"
#: non-blocking calls, incidents and late timers, from another cell
FOLD_FIXTURE = Path(__file__).parents[1] / "telemetry" / "fold_fixture_logbook.json"


def _golden_run():
    """The exact deterministic run the golden file was generated from: three
    Pulse Doppler instances under a fault stream harsh enough to produce
    every incident kind and lose one application."""
    platform = zcu102(n_cpu=2, n_fft=1).build(seed=32)
    faults = FaultConfig(
        rate=40.0, max_retries=2,
        kinds=(FaultKind.TRANSIENT, FaultKind.HANG, FaultKind.SLOWDOWN),
    )
    config = RuntimeConfig(
        scheduler="etf", execute_kernels=False, audit=True, faults=faults
    )
    runtime = CedrRuntime(platform, config)
    runtime.start()
    rng = np.random.default_rng(32)
    pd = PulseDoppler(batch=32)
    runtime.submit(pd.make_instance("dag", rng), at=0.0)
    runtime.submit(pd.make_instance("api", rng), at=0.001)
    runtime.submit(pd.make_instance("api", rng), at=0.002)
    runtime.seal()
    runtime.run()
    return runtime


@pytest.fixture(scope="module")
def golden_runtime():
    return _golden_run()


@pytest.fixture(scope="module")
def block_dump(tmp_path_factory):
    """A fresh ``block``-policy serve dump: shed and held admission rows and
    both high-water marks, the sections the batch golden leaves empty."""
    from repro.cli import main

    path = tmp_path_factory.mktemp("serve") / "block.json"
    main(["serve", "--admission", "block", "--duration", "0.1", "--max-in-system", "2",
          "--queue-cap", "3", "--tenants", "2", "--logbook", str(path)])
    return path


@pytest.fixture(scope="module")
def real_dumps(block_dump):
    """The batch golden, the telemetry fold fixture and a block serve dump,
    by path: between them they fill every section."""
    return {path: json.loads(path.read_text(encoding="utf-8"))
            for path in (GOLDEN, FOLD_FIXTURE, block_dump)}


# --------------------------------------------------------------------- #
# the golden file: current schema, byte for byte
# --------------------------------------------------------------------- #

def test_golden_file_is_current_schema():
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert dump["schema"] == SCHEMA_VERSION == 7
    assert dump["tasks"] and dump["apps"] and dump["rounds"] and dump["incidents"]
    assert dump["calls"] and dump["late_timers"] == []
    # a batch run: charges and the stamped makespan, no admission rows
    assert dump["charges"] and dump["makespan"] >= max(t["t_finish"] for t in dump["tasks"])
    assert sorted(dump["closed"]) == sorted(a["app_id"] for a in dump["apps"])
    assert dump["admissions"] == [] and dump["in_system_hwm"] == 0 and dump["hold_hwm"] == {}
    assert len(dump["releases"]) == sum(depth for _, depth, _, _ in dump["rounds"])
    assert all(len(row) == 4 for row in dump["rounds"])
    assert {row["kind"] for row in dump["incidents"]} == set(INCIDENT_KINDS)
    header = dump["header"]
    assert header["platform"] == "zcu102-2c1f0m" and header["scheduler"] == "etf"
    assert header["pes"] == [["cpu0", "cpu"], ["cpu1", "cpu"], ["fft0", "fft"]]
    assert [core["name"] for core in header["cores"]] == ["core0", "core1", "core2",
                                                           "runtime-core"]
    assert {t["cost_row"] for t in dump["tasks"]} <= set(range(header["cost_rows"]))


def test_golden_file_round_trips_exactly(tmp_path, real_dumps):
    """load() then serialize() reproduces the on-disk dump structure, and
    save() the file byte for byte, on every section of a real dump."""
    for name, *_ in _columns(Dump):
        assert any(dump[name] for dump in real_dumps.values()), name
    for path, dump in real_dumps.items():
        book = Logbook.load(path)
        # JSON has no tuples: compare through a json round trip
        assert json.loads(json.dumps(book.serialize())) == dump
        assert Path(book.save(tmp_path / "again.json")).read_bytes() == path.read_bytes()


def test_golden_file_matches_a_fresh_simulation(golden_runtime):
    """The dump is a pure function of the run - its ids too, which the
    runtime issues from 0 - so re-simulating in this process, after any
    number of other runs, regenerates the file byte for byte.  A mismatch
    means either determinism broke or the schema changed without a
    golden-file regeneration + version bump."""
    text = json.dumps(golden_runtime.logbook.serialize(), indent=2, allow_nan=False)
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_golden_file_audits_clean_offline():
    report = audit_logbook(Logbook.load(GOLDEN))
    assert report.ok, report.summary()
    assert report.tasks == 59 and report.apps == 3


def test_offline_audit_checks_conservation_against_incident_rows():
    """The three cross-row ``task-conservation`` clauses run offline: each
    fires once the incident rows it leans on are taken out of the dump."""
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))

    def audit_without(kind):
        cut = dict(dump, incidents=[r for r in dump["incidents"] if r["kind"] != kind])
        report = audit_logbook(Logbook.from_dict(cut))
        assert report.codes == {"task-conservation"}, (kind, report.summary())
        return " ".join(str(v) for v in report.violations)

    assert "retry attempts" in audit_without("retry")      # sum(attempts) <= retries
    assert "marked failed" in audit_without("lost")        # lost == failed apps
    assert "ledger short" in audit_without("failure")      # failures >= retries
    # one row is enough: the run recovered every retried task but one
    retries = [r for r in dump["incidents"] if r["kind"] == "retry"]
    attempts = sum(t["attempts"] for t in dump["tasks"])
    keep = retries[: attempts - 1]
    cut = dict(dump, incidents=[
        r for r in dump["incidents"] if r["kind"] not in ("retry", "failure")
    ] + keep)
    assert "retry attempts" in str(audit_logbook(Logbook.from_dict(cut)).violations[0])


def test_offline_audit_checks_core_capacity_and_the_cost_table():
    """The header carries what only the live runtime used to know: a core
    that over-delivered, or a table that shrank, fails the offline audit."""
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    dump["header"]["cores"][0]["delivered"] = 2 * dump["makespan"]
    assert audit_logbook(Logbook.from_dict(dump)).codes == {"core-capacity"}
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    dump["header"]["cost_rows"] = 1
    report = audit_logbook(Logbook.from_dict(dump))
    assert report.codes == {"cost-row-fresh"}
    assert "of a 1-row table" in str(report.violations[0])


def test_a_book_saved_from_a_run_cut_short_audits_its_real_cost_table(tmp_path):
    """``run(until=...)`` stamps the table size and core loads too, so a
    book saved mid-run flags its unfinished app, not every task row."""
    runtime = CedrRuntime(zcu102().build(seed=0),
                          RuntimeConfig(scheduler="heft_rt", execute_kernels=False))
    runtime.start()
    runtime.submit(PulseDoppler().make_instance("api", np.random.default_rng(0)), at=0.0)
    runtime.seal()
    runtime.run(until=0.005)
    book = Logbook.load(runtime.logbook.save(tmp_path / "cut.json"))
    assert len(book.tasks) > 0 and book.makespan is None
    assert book.header.cost_rows == runtime.cost_table.n_rows
    codes = audit_logbook(book).codes
    assert "app-accounting" in codes and "cost-row-fresh" not in codes


# --------------------------------------------------------------------- #
# save()/load() inverse on fresh runs
# --------------------------------------------------------------------- #

def test_save_load_round_trip_preserves_every_record(golden_runtime, tmp_path):
    book = golden_runtime.logbook
    path = tmp_path / "dump.json"
    assert book.save(path) == str(path)
    loaded = Logbook.load(path)
    assert loaded.header == book.header
    assert list(loaded.tasks) == list(book.tasks)
    assert loaded.apps == book.apps
    assert list(loaded.rounds) == list(book.rounds)
    assert loaded.releases == book.releases and loaded.releases
    assert list(loaded.incidents) == list(book.incidents) and loaded.incidents
    assert list(loaded.calls) == list(book.calls) and loaded.calls
    assert loaded.late_timers == book.late_timers
    assert loaded.charges == book.charges and loaded.charges
    assert loaded.makespan == book.makespan is not None
    assert loaded.closed == book.closed and loaded.closed
    assert loaded.tasks_by_pe() == book.tasks_by_pe()


def test_the_header_is_what_the_live_runtime_knew(golden_runtime):
    platform, header = golden_runtime.platform, golden_runtime.logbook.header
    assert header.platform == platform.config.name
    assert header.scheduler == golden_runtime.scheduler.name
    assert header.pes == [(pe.name, pe.kind.value) for pe in platform.pes]
    cores = [*platform.worker_cores, platform.runtime_core]
    assert [(c.name, c.speed, c.delivered, c.busy_time) for c in header.cores] == [
        (c.name, c.speed, c.delivered, c.busy_time) for c in cores
    ]
    assert header.cost_rows == golden_runtime.cost_table.n_rows


def test_every_view_of_a_saved_dump_equals_the_live_one(golden_runtime, tmp_path):
    """The trace, the Gantt chart and the audit read the book alone, so a
    dump loaded in another process shows exactly what the live run did."""
    live = golden_runtime.logbook
    loaded = Logbook.load(live.save(tmp_path / "dump.json"))
    assert to_chrome_trace(loaded) == to_chrome_trace(live)
    assert render_gantt(loaded) == render_gantt(live)
    assert audit_logbook(loaded) == audit_logbook(live)
    assert audit_logbook(live).ok


def test_loaded_successors_are_tuples(golden_runtime, tmp_path):
    """JSON turns tuples into lists; load() must restore hashable rows."""
    path = tmp_path / "dump.json"
    golden_runtime.logbook.save(path)
    for rec in Logbook.load(path).tasks:
        assert isinstance(rec.successors, tuple)


# --------------------------------------------------------------------- #
# one schema: any other dump is refused
# --------------------------------------------------------------------- #

def test_unknown_task_column_is_rejected():
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    dump["tasks"][0]["energy_nj"] = 12.5
    with pytest.raises(ValueError, match="unknown columns.*energy_nj"):
        Logbook.from_dict(dump)


def test_unknown_app_column_is_rejected():
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    dump["apps"][0]["priority"] = 3
    with pytest.raises(ValueError, match="AppRecord.*unknown columns"):
        Logbook.from_dict(dump)


@pytest.mark.parametrize("schema", [1, 2, 3, 4, 5, 6, 8, 0, 7.0, True, "two", None])
def test_any_other_schema_is_refused_on_one_line(schema):
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    dump["schema"] = schema
    with pytest.raises(ValueError) as err:
        Logbook.from_dict(dump)
    assert str(err.value) == f"unsupported logbook schema {schema!r} (this build reads 7 only)"


def test_empty_dump_loads_as_empty_book():
    book = Logbook.from_dict(Logbook().serialize())
    assert not book.tasks and book.apps == {} and not book.rounds
    assert not book.incidents and book.header == Logbook().header


def dump_of(**sections):
    """A dump of an empty book run on one ``cpu0`` PE, *sections* replaced."""
    book = Logbook()
    book.header.pes = [("cpu0", "cpu")]
    return json.loads(json.dumps({**book.serialize(), **sections}, allow_nan=True))


def header_of(**columns):
    """The ``dump_of()`` header with *columns* replaced."""
    core = {"name": "core0", "speed": 1.0, "delivered": 0.0, "busy_time": 0.0}
    return {**dump_of()["header"], "cores": [core], **columns}


#: valid JSON that is not a dump -> the one-line ValueError naming where
_TASK = {"tid": 1, "app_id": 1, "api": "fft", "name": "t", "pe": "cpu0",
         "pe_kind": "cpu", "t_release": 0.0, "t_scheduled": 0.0,
         "t_start": 0.0, "t_finish": 0.1, "attempts": 0, "cost_row": 0,
         "successors": []}
_APP = {"app_id": 1, "name": "a", "mode": "api", "t_arrival": 0.0, "t_launch": 0.0,
        "t_finish": None, "n_tasks": 0, "cancelled": False, "failed": False}
_INCIDENT = {"t": 0.1, "kind": "fault", "detail": "", "pe": "", "tid": -1, "attempt": 0,
             "seconds": 0.0}
_ADMISSION = {"tenant": "a", "t_offered": 0.1, "t_admitted": 0.1, "app_id": 1,
              "held": False, "degraded": False}
_CORE = {"name": "core0", "speed": 1.0, "delivered": 0.0, "busy_time": 0.0}


def _without(row, *names):
    return {k: v for k, v in row.items() if k not in names}


MALFORMED = [
    pytest.param([1, 2], "expected a JSON object, got list", id="not-an-object"),
    pytest.param(_without(dump_of(), "releases"),
                 r"^missing sections \['releases'\], unknown sections \[\]$",
                 id="section-missing"),
    pytest.param(_without(dump_of(), "header", "admissions"),
                 r"^missing sections \['header', 'admissions'\]", id="sections-missing"),
    pytest.param(dump_of(energy=[]), r"unknown sections \['energy'\]", id="section-unknown"),
    pytest.param(dump_of(tasks={"tid": 1}),
                 "tasks: expected a list of rows, got dict", id="section-not-a-list"),
    pytest.param(dump_of(tasks=[{"tid": 1}]),
                 r"tasks\[0\]: missing columns \['app_id', 'api', .*'successors'\], mistyped",
                 id="task-missing-columns"),
    pytest.param(dump_of(tasks=[_TASK, [1, 2]]),
                 r"tasks\[1\]: expected an object, got list", id="task-row-not-an-object"),
    pytest.param(dump_of(tasks=[{**_TASK, "t_start": "noon", "tid": None}]),
                 r"tasks\[0\]: missing columns \[\], mistyped columns \['tid', 't_start'\]",
                 id="task-mistyped"),
    pytest.param(dump_of(tasks=[{**_TASK, "successors": "2,3"}]),
                 r"tasks\[0\]: .*mistyped columns \['successors'\]", id="successors-mistyped"),
    pytest.param(dump_of(tasks=[{**_TASK, "pe": "npu0", "pe_kind": "npu"}], apps=[_APP]),
                 r"tasks\[0\]: \(pe, pe_kind\) \('npu0', 'npu'\) names no header.pes row",
                 id="task-pe-not-in-header"),
    pytest.param(dump_of(tasks=[_TASK, {**_TASK, "tid": 2, "pe_kind": "fft"}], apps=[_APP]),
                 r"tasks\[1\]: \(pe, pe_kind\) \('cpu0', 'fft'\) names no header.pes row",
                 id="task-pe-kind-disagrees"),
    pytest.param(dump_of(apps=[_without(_APP, "t_arrival")]),
                 r"apps\[0\]: missing columns \['t_arrival'\]", id="app-missing-arrival"),
    pytest.param(dump_of(apps=[{**_APP, "failed": "no"}]),
                 r"apps\[0\]: .*mistyped columns \['failed'\]", id="app-mistyped"),
    pytest.param(dump_of(rounds=[[0.1, 1, 0.0, 0.1], [0.2, 1, 0.0]]),
                 r"rounds\[1\]: expected \[t, depth, cost, t_begin\]",
                 id="round-three-columns"),
    pytest.param(dump_of(rounds=[[0.1, 1]], releases=[0.0]),
                 r"rounds\[0\]: expected \[t, depth, cost, t_begin\]", id="round-two-columns"),
    pytest.param(dump_of(rounds=[[0.1, 1.5, 0.0, 0.1]]),
                 r"rounds\[0\]: mistyped columns \['depth'\]", id="round-fractional-depth"),
    pytest.param(dump_of(rounds=[{"t": 0.1}]),
                 r"rounds\[0\]: expected", id="round-not-a-list"),
    pytest.param(dump_of(rounds=[[0.1, 2, 0.0, 0.1]], releases=[0.0]),
                 r"releases: 1 instants for the 2 tasks the rounds assigned",
                 id="releases-misaligned"),
    pytest.param(dump_of(calls=[{"api": "fft", "mode": "blocking", "t_call": 0.0}]),
                 r"calls\[0\]: missing columns \['t_enter', 't_done'\]", id="call-missing-columns"),
    pytest.param(dump_of(late_timers=[0.1, "soon"]),
                 r"late_timers\[1\]: mistyped columns \['late_timers'\]",
                 id="late-timer-not-an-instant"),
    pytest.param(dump_of(charges=[1e-6, None]),
                 r"charges\[1\]: mistyped columns \['charges'\]", id="charge-not-a-duration"),
    pytest.param(dump_of(closed=[3, 4.0]),
                 r"closed\[1\]: mistyped columns \['closed'\]", id="closed-not-an-id"),
    pytest.param(dump_of(makespan="late"),
                 r"makespan: mistyped columns \['makespan'\]", id="makespan-mistyped"),
    pytest.param(dump_of(admissions=[_without(_ADMISSION, "t_admitted", "app_id")]),
                 r"admissions\[0\]: missing columns \['t_admitted', 'app_id'\]",
                 id="admission-missing-columns"),
    pytest.param(dump_of(in_system_hwm=2.5),
                 r"in_system_hwm: mistyped columns \['in_system_hwm'\]", id="hwm-mistyped"),
    pytest.param(dump_of(hold_hwm={"a": "3"}),
                 r"hold_hwm\['a'\]: mistyped columns \['hold_hwm'\]", id="hold-hwm-mistyped"),
    pytest.param(dump_of(incidents=[_without(_INCIDENT, "t")]),
                 r"incidents\[0\]: missing columns \['t'\]", id="incident-missing-t"),
    pytest.param(dump_of(incidents=[{**_INCIDENT, "tid": "7"}]),
                 r"incidents\[0\]: .*mistyped columns \['tid'\]", id="incident-mistyped"),
    pytest.param(dump_of(incidents=[{**_INCIDENT, "kind": "meltdown"}]),
                 r"incidents\[0\]: unknown kind 'meltdown'", id="incident-unknown-kind"),
    pytest.param(dump_of(incidents=[{**_INCIDENT, "severity": 9}]),
                 r"incidents\[0\]: Incident.*unknown columns \['severity'\]",
                 id="incident-unknown-column"),
    # the header: every column, typed, its names unique, its loads >= 0
    pytest.param(dump_of(header=_without(header_of(), "scheduler")),
                 r"header: missing columns \['scheduler'\]", id="header-missing-scheduler"),
    pytest.param(dump_of(header=[]), r"header: expected an object, got list",
                 id="header-not-an-object"),
    pytest.param(dump_of(header=header_of(pes=[["cpu0", "cpu"], ["fft0"]])),
                 r"header.pes\[1\]: expected \[name, kind\], got \['fft0'\]",
                 id="header-pe-not-a-pair"),
    pytest.param(dump_of(header=header_of(cost_rows="7")),
                 r"header: missing columns \[\], mistyped columns \['cost_rows'\]",
                 id="header-cost-rows-mistyped"),
    pytest.param(dump_of(header=header_of(pes=[["cpu0", "cpu"], ["cpu0", "cpu"]])),
                 r"header.pes\[1\]: name 'cpu0' repeats an earlier row", id="header-pe-repeated"),
    pytest.param(dump_of(header=header_of(cores=[_CORE, {**_CORE, "speed": 2.0}])),
                 r"header.cores\[1\]: name 'core0' repeats an earlier row",
                 id="header-core-repeated"),
    *(pytest.param(dump_of(header=header_of(cores=[{**_CORE, column: -0.5}])),
                   rf"header.cores\[0\]: negative columns \['{column}'\]",
                   id=f"header-core-negative-{column}")
      for column in ("speed", "delivered", "busy_time")),
    pytest.param(dump_of(header=header_of(cores=[_without(_CORE, "busy_time")])),
                 r"header.cores\[0\]: missing columns \['busy_time'\]",
                 id="header-core-missing-busy-time"),
    # rows that used to load and audit ok while the numbers lied
    *(pytest.param(dump_of(tasks=[{**_TASK, "successors": [2, entry]}]),
                   r"tasks\[0\]: missing columns \[\], mistyped columns \['successors'\]",
                   id=f"successor-{name}")
      for name, entry in (("string", "x"), ("null", None), ("float", 1.5), ("bool", True))),
    pytest.param(dump_of(tasks=[{**_TASK, "tid": True}]),
                 r"tasks\[0\]: missing columns \[\], mistyped columns \['tid'\]",
                 id="task-bool-tid"),
    pytest.param(dump_of(apps=[{**_APP, "t_arrival": False}]),
                 r"apps\[0\]: missing columns \[\], mistyped columns \['t_arrival'\]",
                 id="app-bool-arrival"),
    pytest.param(dump_of(apps=[_APP], closed=[1, 1]),
                 r"closed\[1\]: closed 1 repeats an earlier row", id="closed-twice"),
    pytest.param(dump_of(apps=[_APP], closed=[2]),
                 r"closed\[0\]: closed 2 names no apps row", id="closed-unknown-app"),
    pytest.param(dump_of(charges=[1e-6, -0.5]),
                 r"charges\[1\]: negative columns \['charges'\]", id="charge-negative"),
    pytest.param(dump_of(rounds=[[0.1, 1, -0.5, 0.1]], releases=[0.0]),
                 r"rounds\[0\]: negative columns \['cost'\]", id="round-negative-cost"),
    pytest.param(dump_of(makespan=-0.5),
                 r"makespan: negative columns \['makespan'\]", id="makespan-negative"),
    # references and value sets, each declared on its column
    pytest.param(dump_of(tasks=[_TASK], apps=[{**_APP, "app_id": 2}]),
                 r"tasks\[0\]: app_id 1 names no apps row", id="task-app-unknown"),
    pytest.param(dump_of(apps=[_APP], admissions=[{**_ADMISSION, "app_id": 7}]),
                 r"admissions\[0\]: app_id 7 names no apps row", id="admission-app-unknown"),
    pytest.param(dump_of(incidents=[{**_INCIDENT, "pe": "npu0"}]),
                 r"incidents\[0\]: pe 'npu0' names no header.pes row",
                 id="incident-pe-unknown"),
    pytest.param(dump_of(calls=[{"api": "fft", "mode": "async", "t_call": 0.0,
                                 "t_enter": 0.0, "t_done": 0.1}]),
                 r"calls\[0\]: unknown mode 'async'", id="call-mode-unknown"),
    pytest.param(dump_of(apps=[{**_APP, "mode": "batch"}]),
                 r"apps\[0\]: unknown mode 'batch'", id="app-mode-unknown"),
]

#: ``json.loads`` reads ``NaN`` / ``Infinity`` (and ``1e400``) as floats, so a
#: float column that type-checks can still hold no number at all
_NAN, _INF = float("nan"), float("inf")
NONFINITE = [
    pytest.param(dump_of(tasks=[{**_TASK, "t_finish": _NAN}]),
                 r"tasks\[0\]: non-finite columns \['t_finish'\]", id="task-nan-finish"),
    pytest.param(dump_of(tasks=[{**_TASK, "t_start": _INF, "t_finish": _INF}]),
                 r"tasks\[0\]: non-finite columns \['t_start', 't_finish'\]",
                 id="task-inf-instants"),
    pytest.param(dump_of(apps=[{**_APP, "t_finish": -_INF}]),
                 r"apps\[0\]: non-finite columns \['t_finish'\]", id="app-inf-finish"),
    pytest.param(dump_of(rounds=[[_NAN, 1, 0.0, 0.1]]),
                 r"rounds\[0\]: non-finite columns \['t'\]", id="round-nan-t"),
    pytest.param(dump_of(rounds=[[0.1, 1, 0.0, 0.1], [0.2, 1, _INF, 0.2]]),
                 r"rounds\[1\]: non-finite columns \['cost'\]", id="round-inf-cost"),
    pytest.param(dump_of(rounds=[[0.1, 1, 0.0, 0.1], [0.2, 1, 0.0, _NAN]]),
                 r"rounds\[1\]: non-finite columns \['t_begin'\]", id="round-nan-t-begin"),
    pytest.param(dump_of(rounds=[[0.1, 1, 0.0, 0.1]], releases=[_NAN]),
                 r"releases\[0\]: non-finite columns \['releases'\]", id="release-nan"),
    pytest.param(dump_of(late_timers=[0.1, _INF]),
                 r"late_timers\[1\]: non-finite columns \['late_timers'\]", id="late-timer-inf"),
    pytest.param(dump_of(charges=[_NAN]),
                 r"charges\[0\]: non-finite columns \['charges'\]", id="charge-nan"),
    pytest.param(dump_of(makespan=_INF),
                 r"makespan: non-finite columns \['makespan'\]", id="makespan-inf"),
    pytest.param(dump_of(incidents=[{**_INCIDENT, "kind": "recovery", "seconds": _NAN}]),
                 r"incidents\[0\]: non-finite columns \['seconds'\]", id="incident-nan-seconds"),
    pytest.param(dump_of(calls=[{"api": "fft", "mode": "blocking", "t_call": 0.0,
                                 "t_enter": 0.0, "t_done": _INF}]),
                 r"calls\[0\]: non-finite columns \['t_done'\]", id="call-inf-done"),
    pytest.param(dump_of(admissions=[{**_ADMISSION, "t_admitted": _NAN}]),
                 r"admissions\[0\]: non-finite columns \['t_admitted'\]",
                 id="admission-nan-admitted"),
    pytest.param(dump_of(header=header_of(cores=[{**_CORE, "delivered": _INF}])),
                 r"header.cores\[0\]: non-finite columns \['delivered'\]",
                 id="header-core-inf-delivered"),
]


@pytest.mark.parametrize("dump,message", MALFORMED + NONFINITE)
def test_malformed_dumps_are_rejected_by_name(dump, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=message):
        Logbook.from_dict(dump)
    # and the verb turns that into one line and a non-zero exit
    from repro.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["audit", str(path)])
    assert str(err.value).startswith(f"cannot load {str(path)!r}: ")
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("path,column", [
    pytest.param(("tasks", 3, "t_finish"), r"tasks\[3\]: non-finite columns \['t_finish'\]",
                 id="task-finish"),
    pytest.param(("charges", 0), r"charges\[0\]: non-finite columns \['charges'\]", id="charge"),
    pytest.param(("rounds", 0, 0), r"rounds\[0\]: non-finite columns \['t'\]", id="round-t"),
])
def test_a_nan_in_a_real_dump_is_refused_not_audited(path, column):
    """A NaN used to load, audit ``ok`` and fold to a ``nan`` overhead."""
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    *section, last = path
    row = dump
    for key in section:
        row = row[key]
    row[last] = float("nan")
    with pytest.raises(ValueError, match=column):
        Logbook.from_dict(dump)


@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda d: d["apps"].append(dict(d["apps"][1])),
                 r"apps\[3\]: app_id 1 repeats an earlier row", id="duplicate-app"),
    pytest.param(lambda d: d["incidents"][6].update(seconds=-1e-3),
                 r"incidents\[6\]: negative columns \['seconds'\]", id="negative-recovery"),
    pytest.param(lambda d: d.update(in_system_hwm=-1),
                 r"in_system_hwm: negative columns \['in_system_hwm'\]",
                 id="negative-in-system-hwm"),
    pytest.param(lambda d: d.update(hold_hwm={"radar": -2}),
                 r"hold_hwm\['radar'\]: negative columns \['hold_hwm'\]", id="negative-hold-hwm"),
    pytest.param(lambda d: d["tasks"][32].update(attempts=-1),
                 r"tasks\[32\]: negative columns \['attempts'\]", id="negative-attempts"),
])
def test_a_mutated_golden_is_refused_on_one_line(mutate, message, tmp_path):
    """Each used to load: a repeated app row overwrote the first, and a
    negative recovery made the ``--perf-json`` MTTR negative."""
    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mutate(dump)
    with pytest.raises(ValueError, match=message):
        Logbook.from_dict(dump)
    from repro.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(["audit", str(path)])
    assert "\n" not in str(err.value)


def _sites(cls=Dump, path=""):
    """``(path, record, column, type, domain)`` of every declared column of
    every dump section: *path* is ``""`` for the dump's own columns, a
    record's (``header``) or a list's (``tasks``, ``header.cores``), whose
    rows are *record* (``None`` for a list of plain entries)."""
    for column, kind, domain, origin, record in _columns(cls):
        at = f"{path}.{column}" if path else column
        if record is not None:
            yield from _sites(record, at)
        elif not path and origin in (list, dict):
            yield at, None, column, typing.get_args(kind)[-1], domain
        else:
            yield path, None if path in ("", "header") else cls, column, kind, domain


def _violations(kind, domain):
    """``(label, value)`` pairs outside the column's declared domain; a
    ``unique`` column gets a copy of its list's first row appended."""
    bases = set(typing.get_args(kind)) or {typing.get_origin(kind) or kind}
    cases = [("bool", True)] if bool not in bases else []
    cases += [("string", "x")] if str not in bases else []
    cases += [("nan", float("nan")), ("inf", float("inf"))] if float in bases else []
    cases += [("negative", -1)] if domain.get("nonnegative") else []
    if "refers" in domain:
        cases.append(("unknown-name", "no-such-name" if str in bases else 987654321))
    cases += [("unknown-choice", "no-such-choice")] if "choices" in domain else []
    return cases + ([("repeated", None)] if domain.get("unique") else [])


_SITES = [(path, record, column, label, value)
          for path, record, column, kind, domain in _sites()
          for label, value in _violations(kind, domain)]


@pytest.mark.parametrize("path,record,column,label,value", [
    pytest.param(path, record, column, label, value,
                 id=f"{path}.{column}-{label}" if path not in ("", column) else f"{column}-{label}")
    for path, record, column, label, value in _SITES
])
def test_every_declared_domain_is_refused_by_name(path, record, column, label, value,
                                                  real_dumps):
    """Walks the declaration, not a list of cases: for each property of each
    column's domain, one violating value planted in a real dump (the first
    whose section has a row) is refused on one line naming ``section[i]``
    and the column.  A column declared later is covered with no new line."""
    keys = path.split(".") if path else []

    def at(dump):
        for key in keys:
            dump = dump[key]
        return dump

    dump = copy.deepcopy(next(d for d in real_dumps.values() if at(d) or path in ("", "header")))
    if path in ("", "header"):       # a column of the dump, or of its header
        where, (holder, key) = path or column, (at(dump), column)
    else:
        rows = at(dump)
        first = next(iter(rows)) if isinstance(rows, dict) else 0
        where = f"{path}[{first!r}]"
        holder, key = (rows, first) if record is None else (rows[first], column)
        if hasattr(record, "_fields"):       # a positional row: a JSON list
            key = record._fields.index(column)
    if label == "repeated":
        rows.append(copy.deepcopy(rows[0]))
        where = f"{path}[{len(rows) - 1}]"
    else:
        holder[key] = value
    with pytest.raises(ValueError) as err:
        Logbook.from_dict(dump)
    message = str(err.value)
    assert "\n" not in message and message.startswith(f"{where}: ") and column in message


def test_save_refuses_a_non_finite_value(tmp_path):
    book = Logbook()
    book.charges.append(float("inf"))
    with pytest.raises(ValueError, match="Out of range float values"):
        book.save(tmp_path / "book.json")
    assert not (tmp_path / "book.json").exists()


# --------------------------------------------------------------------- #
# record dataclasses
# --------------------------------------------------------------------- #

def test_task_record_derived_times():
    rec = TaskRecord(tid=1, app_id=1, api="fft", name="t", pe="cpu0",
                     pe_kind="cpu", t_release=1.0, t_scheduled=1.5,
                     t_start=2.0, t_finish=3.5)
    assert rec.queue_wait == pytest.approx(0.5)
    assert rec.service_time == pytest.approx(1.5)


def test_app_record_execution_time_requires_finish():
    app = AppRecord(app_id=1, name="a", mode="api", t_arrival=0.5)
    with pytest.raises(ValueError, match="never finished"):
        _ = app.execution_time
    app.t_finish = 2.0
    assert app.execution_time == pytest.approx(1.5)


def test_mean_time_to_recovery_is_a_plain_loop():
    """``sum()`` is compensated from CPython 3.12: the fold must add the
    recovery intervals one by one on every interpreter."""
    book = Logbook()
    for seconds in [1.0] + [1e-16] * 10:
        book.record_incident(0.0, "recovery", seconds=seconds)
    plain = float.fromhex("0x1.745d1745d1746p-4")
    assert book.mean_time_to_recovery() == plain
    assert PerfCounters(book).snapshot()["faults"]["mean_time_to_recovery"] == plain


def test_offline_audit_reads_the_stamped_makespan(tmp_path, capsys):
    """A task that finished after the run ended is visible offline: the
    view takes the makespan the daemon stamped, not the last finish."""
    from repro.cli import main

    dump = json.loads(GOLDEN.read_text(encoding="utf-8"))
    last = max(dump["tasks"], key=lambda row: row["t_finish"])
    last["t_finish"] = dump["makespan"] + 0.5
    path = tmp_path / "late.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    assert main(["audit", str(path)]) == 1
    assert "[clock-monotonic]" in capsys.readouterr().out


if __name__ == "__main__":  # deliberate regeneration of the current golden
    _golden_run().logbook.save(GOLDEN)
    print(f"wrote {GOLDEN}")
