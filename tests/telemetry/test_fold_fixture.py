"""The fold reproduces the live feed it replaced, byte for byte.

``fold_fixture_metrics.json`` / ``.prom`` and the rows of
``fold_logbook``'s sections ``tasks``, ``apps``, ``rounds``, ``releases``,
``incidents``, ``calls`` and ``late_timers`` were recorded together from
one run of the last build whose registry was fed live (from the daemon, the
libCEDR client, ``Logbook.record_*`` and a timer sampler).  Those seven
sections are kept byte for byte (:data:`FOLD_ROWS_SHA256` pins them): a
re-run of the cell today differs from them by ulps.  The dump's
``makespan`` is the export's final sample instant; the ``header`` and the
``charges``, ``closed``, ``admissions`` and ``*_hwm`` sections come from a
re-run of the cell on the schema 6 build (its app ids equal the recorded
ones).  Schema 7 dropped the tasks' ``cost_token`` column and turned the
header's ``cost_table: [token, rows]`` into ``cost_rows``; the file was
rewritten by exactly that, so the rows pinned below are the recorded ones
less that column.  The cell, on ``zcu102(n_cpu=2,
n_fft=1).build(seed=32)`` under etf, timing-only, sampled every 20 ms:

* faults at 40/s/PE (transient, hang, slowdown), ``max_retries=1``, plus a
  scripted transient on ``cpu1`` at 0.02 s - exactly the first sample;
* Pulse Doppler (batch 32) non-blocking API at 0 s and DAG at 0.5 ms;
* at 0.04 s - exactly the second sample - a timer submits Wi-Fi TX
  (batch 8, blocking API) and Pulse Doppler (non-blocking API) with past
  arrival instants (0.039 s, 0.001 s), so both clamp as late timers, and
  seals the runtime.

It holds retries, lost tasks (two applications fail), stale dispatches,
recoveries, blocking and non-blocking calls, and rows stamped exactly at
a sample instant, which pin the tie rule: such a row counts in the sample.
"""

import hashlib
import json
from pathlib import Path

from repro.runtime import Logbook
from repro.telemetry import CedrTelemetry, TelemetryConfig, to_json_dict, to_prometheus_text

HERE = Path(__file__).parent
EXPORT = json.loads((HERE / "fold_fixture_metrics.json").read_text(encoding="utf-8"))
BOOK = Logbook.load(HERE / "fold_fixture_logbook.json")

#: the recorded rows, as ``json.dumps({section: rows}, sort_keys=True)``
FOLD_ROWS = ("tasks", "apps", "rounds", "releases", "incidents", "calls", "late_timers")
FOLD_ROWS_SHA256 = "6892ea3c9708c3a76e119a8784ed3c5ab2eabaf196ed9b22551dcb4a05b2b9e2"


def _fold() -> CedrTelemetry:
    return CedrTelemetry.fold(BOOK, TelemetryConfig(EXPORT["sample_interval_s"]))


def test_fixture_keeps_the_recorded_rows():
    dump = json.loads((HERE / "fold_fixture_logbook.json").read_text(encoding="utf-8"))
    rows = json.dumps({name: dump[name] for name in FOLD_ROWS}, sort_keys=True)
    assert hashlib.sha256(rows.encode()).hexdigest() == FOLD_ROWS_SHA256
    assert BOOK.makespan == EXPORT["samples"][-1]["t"]
    pes = [s["labels"]["pe"] for s in EXPORT["metrics"]["cedr_pe_dispatch_total"]["series"]]
    assert [name for name, _ in BOOK.header.pes] == pes


def test_fixture_covers_what_the_fold_must_read():
    kinds = BOOK.incident_counts()
    assert kinds["retry"] and kinds["lost"] and kinds["stale"] and kinds["recovery"]
    assert {call.mode for call in BOOK.calls} == {"blocking", "nonblocking"}
    assert any(row[1] > 1 for row in BOOK.rounds)
    assert len(BOOK.releases) == sum(row[1] for row in BOOK.rounds)
    instants = [s["t"] for s in EXPORT["samples"][:-1]]
    assert 0.02 in instants and 0.04 in instants
    assert BOOK.late_timers == [0.04, 0.04]
    assert any(i.t == 0.02 and i.kind == "fault" for i in BOOK.incidents)


def test_fold_reproduces_the_live_export_byte_for_byte():
    telemetry = _fold()
    text = json.dumps(to_json_dict(telemetry), indent=2, sort_keys=True, allow_nan=False)
    assert text == (HERE / "fold_fixture_metrics.json").read_text(encoding="utf-8")
    assert to_prometheus_text(telemetry.registry) == (
        HERE / "fold_fixture_metrics.prom"
    ).read_text(encoding="utf-8")
