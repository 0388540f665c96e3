"""Parity layer: cell outcomes, report schema, dominance, bit-identity."""

from pathlib import Path

import pytest

from repro.audit import CATALOG
from repro.corpus import (
    CorpusConfig,
    CorpusReport,
    generate_corpus,
    run_cell,
    run_corpus,
)
from repro.corpus.parity import REPORT_SCHEMA
from repro.scenario import load_scenario

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "corpus"


@pytest.fixture(scope="module")
def tiny_report():
    specs = generate_corpus(
        CorpusConfig(n=2, run_fraction=1.0, platforms=("zcu102",)), seed=0
    )
    return specs, run_corpus(specs, ["rr", "etf"], seed=0)


def test_cells_cover_the_grid_in_order(tiny_report):
    specs, report = tiny_report
    assert report.schedulers == ("rr", "etf")
    expected = [
        (spec.digest(), sched) for spec in specs for sched in ("rr", "etf")
    ]
    assert [(c.digest, c.scheduler) for c in report.cells] == expected
    assert all(c.status == "ok" for c in report.cells)
    assert all(dict(c.metrics).get("makespan", 0) > 0 for c in report.cells)


def test_report_rerun_is_bit_identical(tiny_report):
    specs, report = tiny_report
    again = run_corpus(specs, ["rr", "etf"], seed=0)
    assert again.to_json() == report.to_json()


def test_report_is_pool_invariant():
    """Serial and pooled corpus runs write the same report: cells run one
    per pool task through ``run_cells`` and come back in grid order."""
    specs = [load_scenario(EXAMPLES / f"corpus-0-{i:04d}.json") for i in (0, 3, 5)]
    assert {spec.kind for spec in specs} == {"run", "serve"}
    serial = run_corpus(specs, ["rr", "etf"], n_jobs=1, seed=0)
    pooled = run_corpus(specs, ["rr", "etf"], n_jobs=2, seed=0)
    assert pooled.to_json() == serial.to_json()


def test_report_json_round_trip(tiny_report):
    _, report = tiny_report
    doc = CorpusReport.from_json(report.to_json())
    assert doc.cells == report.cells
    assert doc.to_json() == report.to_json()


def test_report_schema_fields(tiny_report):
    _, report = tiny_report
    doc = report.to_json_dict()
    assert doc["schema"] == REPORT_SCHEMA
    assert set(doc) == {
        "schema", "seed", "anomaly_factor", "schedulers", "specs", "cells",
        "violations", "errors", "dominance", "mean_metrics", "anomalies",
    }
    # violation tallies are zero-filled from the full audit catalog, so
    # the schema is stable whether or not anything tripped
    assert set(doc["violations"]) == {inv.code for inv in CATALOG}
    assert all(
        set(counts) == set(report.schedulers)
        for counts in doc["violations"].values()
    )
    assert set(doc["dominance"]) == {"run", "serve"}


def test_dominance_is_antisymmetric(tiny_report):
    specs, report = tiny_report
    table = report.dominance()["run"]
    for a in report.schedulers:
        for b in report.schedulers:
            if a == b:
                continue
            # a beats b + b beats a <= number of compared specs
            assert table[a][b] + table[b][a] <= len(specs)


def test_serve_cells_report_serve_metrics():
    specs = generate_corpus(
        CorpusConfig(n=1, run_fraction=0.0, platforms=("zcu102",)), seed=0
    )
    out = run_cell(specs[0], "rr")
    assert out.status == "ok"
    metrics = dict(out.metrics)
    assert "goodput" in metrics and "p99_response_s" in metrics

def test_run_cell_records_violation(evil_scheduler, small_config):
    spec = generate_corpus(small_config, seed=0)[0]
    out = run_cell(spec, evil_scheduler)
    assert out.status == "violation"
    assert out.code == "queue-accounting"
    assert out.digest == spec.digest()


def test_shutdown_fold_failure_is_tallied_as_a_violation(small_config, monkeypatch):
    """A run that fails the catalog folded at shutdown (an ``AuditError``,
    not a round's ``AuditViolation``) counts under its first code."""
    from repro.runtime import Logbook

    original = Logbook.record_task

    def doctored(self, task):
        if self.tasks:
            return original(self, task)
        row, task.cost_row = task.cost_row, -1  # the first completion loses its cost row
        original(self, task)
        task.cost_row = row

    monkeypatch.setattr(Logbook, "record_task", doctored)
    spec = generate_corpus(small_config, seed=0)[0]
    out = run_cell(spec, "etf")
    assert out.status == "violation"
    assert out.code == "cost-row-fresh"
    assert "audit failed" in out.message


def test_violation_shows_up_in_report(evil_scheduler, small_config):
    specs = generate_corpus(small_config, seed=0)
    report = run_corpus(specs, ["rr", evil_scheduler])
    assert not report.ok
    failures = report.failures()
    assert {c.scheduler for c in failures} == {evil_scheduler}
    tally = report.violations()["queue-accounting"]
    assert tally[evil_scheduler] == len(specs)
    assert tally["rr"] == 0
    assert "queue-accounting" in report.summary()


def test_unknown_scheduler_dies_with_suggestion(small_config):
    specs = generate_corpus(small_config, seed=0)
    with pytest.raises(ValueError, match="did you mean"):
        run_corpus(specs, ["hefd_rt"])


def test_error_cells_are_reported():
    # an unsatisfiable spec: app park on a platform is fine, so force an
    # error by pointing at a scheduler that raises on construction
    from repro.corpus.parity import CellOutcome

    row = CellOutcome(
        digest="d", name="n", kind="run", scheduler="s",
        status="error", code="ValueError", message="boom",
    )
    report = CorpusReport(schedulers=("s",), cells=(row,))
    assert report.errors() == {"ValueError": 1}
    assert not report.ok
    assert "errors: ValueError=1" in report.summary()
