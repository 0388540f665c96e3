"""Tests of the benchmark harness itself, on ``--quick`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside the
tier-1 ``testpaths``).  They check the harness, not the simulator's speed:
the ledger document is complete, names are well-formed, span self-times
account for the whole rep, wrappers leave no trace, a missing target reads
``null`` and a wrong digest is a failed operation.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One quick ledger run over every workload, as a user would start it."""
    out = tmp_path_factory.mktemp("e2e") / "ledger.json"
    done = subprocess.run(
        RUN + ["--quick", "--out", str(out)], capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text(encoding="utf-8"))


def test_every_declared_metric_is_reported_or_null(ledger):
    for name in WORKLOADS:
        end_to_end = ledger["end_to_end"][name]
        assert set(end_to_end["metrics"]) == {m[0] for m in harness.END_TO_END}
        assert all(isinstance(v, float) and v > 0 for v in end_to_end["metrics"].values())
        assert end_to_end["failed_share"] == 0.0
        layers = ledger["per_layer"][name]["metrics"]
        assert set(layers) == {m[0] for m in harness.PER_LAYER}
        assert all(v is None or isinstance(v, (int, float)) for v in layers.values())
        assert layers["host.py_calls"] > 0


def test_names_and_units_are_well_formed():
    rows = [m[:2] for m in harness.END_TO_END] + [m[:2] for m in harness.PER_LAYER]
    names = [name for name, _ in rows] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", unit) for _, unit in rows)
    assert len(harness.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_manifest_matches_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == list(
        harness.PER_LAYER
    )


def test_span_shares_sum_to_the_root(ledger):
    for name in WORKLOADS:
        info = ledger["per_layer"][name]["info"]
        assert abs(info["span_share_sum"] - 1.0) <= 0.01, (name, info)
        assert info["missing_targets"] == []
        assert info["trace_overhead"] is not None


def test_each_layer_works_in_one_workload_and_rests_in_another(ledger):
    soak = ledger["per_layer"]["soak_engine"]["metrics"]
    for metric, value in soak.items():
        if metric.split(".")[0] in ("sched", "serve", "apps", "telemetry", "audit") and (
            ".probe." not in metric
        ):
            assert value is None, metric
    assert soak["simcore.engine_rest.share"] > 0.9
    api = ledger["per_layer"]["batch_api"]["metrics"]
    dag = ledger["per_layer"]["batch_dag"]["metrics"]
    assert api["sched.tasks_per_call"] < 1.5
    assert dag["sched.tasks_per_call"] >= 100
    assert dag["dag.build.calls"] > 0 and api["dag.build.calls"] is None
    assert ledger["per_layer"]["faulty_jetson"]["metrics"]["telemetry.samples"] > 0
    assert ledger["per_layer"]["faulty_jetson"]["metrics"]["faults.injected"] > 0
    assert ledger["per_layer"]["corpus_sweep"]["metrics"]["audit.online.calls"] > 0
    assert ledger["per_layer"]["serve_knee"]["metrics"]["serve.admission.calls"] > 0


def test_self_times_account_for_nested_spans():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap("inner", leaf)

    def outer():
        return inner() + inner()

    traced = tracer.wrap("outer", outer)
    with tracer.root():
        traced()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    total = sum(row["self_s"] for row in summary.values())
    root = summary[tracing.ROOT_SPAN]["inclusive_s"]
    assert abs(total - root) <= 0.01 * root
    assert summary["outer"]["inclusive_s"] >= summary["inner"]["inclusive_s"]
    assert [s["parent"] for s in tracer.spans()] == [-1, 0, 1, 1]


def _raw_attributes():
    found = {}
    for specs in tracing.TARGETS.values():
        for spec in specs:
            for owner, attr in tracing._resolve(spec):
                found[(id(owner), attr)] = (owner, attr, vars(owner).get(attr))
    return found


def test_wrappers_are_restored_after_a_traced_rep():
    before = _raw_attributes()
    assert len(before) > 40
    tracer = tracing.Tracer()
    with tracer, tracer.root():
        patched = len(tracer.patched)
        WORKLOADS["batch_api"].rep(0, True)
    assert patched == len(before)
    assert not tracer.patched
    after = _raw_attributes()
    assert all(after[key][2] is before[key][2] for key in before)
    assert len(tracer.span_starts) > 100


def test_a_missing_target_reads_null_not_a_crash(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "dag.build", ("repro.dag:DagBuilder.no_such_method",))
    monkeypatch.setitem(tracing.TARGETS, "corpus.cell", ("repro.no_such_module:run_cell",))
    detail = harness.measure_layers(WORKLOADS["batch_dag"], 0, 1.0, True, None)
    assert detail["failed"] == 0
    assert detail["metrics"]["dag.build.self_s"] is None
    assert detail["metrics"]["dag.build.calls"] is None
    assert "dag.build" in detail["info"]["missing_targets"]
    assert detail["metrics"]["apps.make_instance.calls"] > 0


def test_a_tampered_digest_is_a_failed_operation(tmp_path):
    pinned = json.loads(harness.EXPECTED_PATH.read_text(encoding="utf-8"))
    pinned["quick"]["soak_engine"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(pinned), encoding="utf-8")
    cmd = RUN + ["--workload", "soak_engine", "--quick", "--trace", "0", "--seed", "0"]
    bad = subprocess.run(
        cmd + ["--expected", str(tampered)], capture_output=True, text=True, check=False
    )
    result = json.loads(bad.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] > 0
    good = subprocess.run(cmd, capture_output=True, text=True, check=False)
    result = json.loads(good.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m[0] for m in harness.END_TO_END}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
