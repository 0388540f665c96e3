"""Run artifacts are replaced whole or not at all.

``Logbook.save``, ``write_chrome_trace``, ``write_metrics``, ``--perf-json``,
the sweep cache, ``ScenarioSpec.save``, corpus reports, minimizer artifacts
and DAG spec files all write through :func:`repro.atomic.atomic_write`: a
serialiser that raises part-way (or Ctrl-C) leaves the previous file byte
for byte and no temporary beside it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.atomic import atomic_write
from repro.cli import main
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, PerfCounters, RuntimeConfig, write_chrome_trace
from repro.telemetry import TelemetryConfig, write_metrics

PREVIOUS = '{"previous": "artifact"}\n'


@pytest.fixture(scope="module")
def runtime():
    rt = CedrRuntime(
        zcu102(n_cpu=2, n_fft=1).build(seed=1),
        RuntimeConfig(scheduler="rr", execute_kernels=False, telemetry=TelemetryConfig()),
    )
    rt.start()
    rt.submit(PulseDoppler(batch=32).make_instance("api", np.random.default_rng(1)), at=0.0)
    rt.seal()
    rt.run()
    return rt


def _boom(*args, **kwargs):
    raise RuntimeError("serialiser failed part-way")


def _assert_untouched(path):
    assert path.read_text(encoding="utf-8") == PREVIOUS
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_atomic_write_replaces_on_clean_exit_only(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_text(PREVIOUS, encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write('{"torn": ')
            raise KeyboardInterrupt
    _assert_untouched(path)
    with atomic_write(path) as fh:
        fh.write('{"new": 1}')
    assert path.read_text(encoding="utf-8") == '{"new": 1}'
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_atomic_write_creates_the_parent_directory(tmp_path):
    path = tmp_path / "out" / "perf.json"
    with atomic_write(path) as fh:
        fh.write("{}")
    assert path.read_text(encoding="utf-8") == "{}"


def test_logbook_save_survives_a_failing_serialiser(runtime, tmp_path, monkeypatch):
    path = tmp_path / "logbook.json"
    path.write_text(PREVIOUS, encoding="utf-8")
    monkeypatch.setattr(type(runtime.logbook), "serialize", _boom)
    with pytest.raises(RuntimeError, match="part-way"):
        runtime.logbook.save(path)
    _assert_untouched(path)


def test_chrome_trace_survives_a_failing_serialiser(runtime, tmp_path, monkeypatch):
    path = tmp_path / "run.trace.json"
    path.write_text(PREVIOUS, encoding="utf-8")
    monkeypatch.setattr(json, "dump", _boom)
    with pytest.raises(RuntimeError, match="part-way"):
        write_chrome_trace(str(path), runtime.logbook)
    _assert_untouched(path)


def test_metrics_export_survives_a_failing_serialiser(runtime, tmp_path, monkeypatch):
    path = tmp_path / "metrics.json"
    path.write_text(PREVIOUS, encoding="utf-8")
    monkeypatch.setattr(json, "dump", _boom)
    with pytest.raises(RuntimeError, match="part-way"):
        write_metrics(str(tmp_path / "metrics"), runtime.telemetry)
    _assert_untouched(path)


def _fail_rename_onto(monkeypatch, name):
    """Crash the final rename onto a file called *name*: an in-place write
    has already clobbered the target by then, an atomic one has not."""
    import repro.atomic

    real = repro.atomic.os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise RuntimeError("serialiser failed part-way")
        real(src, dst)

    monkeypatch.setattr(repro.atomic.os, "replace", replace)


def _previous(tmp_path, name):
    path = tmp_path / name
    path.write_text(PREVIOUS, encoding="utf-8")
    return path


def test_scenario_save_is_atomic(tmp_path, monkeypatch):
    from repro.scenario import ScenarioSpec

    path = _previous(tmp_path, "spec.json")
    _fail_rename_onto(monkeypatch, path.name)
    with pytest.raises(RuntimeError, match="part-way"):
        ScenarioSpec(name="atomic").save(path)
    _assert_untouched(path)


def test_corpus_report_save_is_atomic(tmp_path, monkeypatch):
    from repro.corpus import CorpusReport

    path = _previous(tmp_path, "corpus-report.json")
    _fail_rename_onto(monkeypatch, path.name)
    with pytest.raises(RuntimeError, match="part-way"):
        CorpusReport(schedulers=("etf",), cells=()).save(path)
    _assert_untouched(path)


def test_minimizer_recipe_is_atomic(tmp_path, monkeypatch):
    from repro.corpus.minimize import MinimizeResult, write_artifacts
    from repro.scenario import ScenarioSpec

    spec = ScenarioSpec(name="atomic")
    cell_dir = tmp_path / spec.digest()[:12]
    cell_dir.mkdir()
    path = _previous(cell_dir, "repro.txt")
    _fail_rename_onto(monkeypatch, path.name)
    result = MinimizeResult(spec=spec, original=spec, status="violation",
                            code="X", evaluations=1, steps=())
    with pytest.raises(RuntimeError, match="part-way"):
        write_artifacts(result, tmp_path)
    assert path.read_text(encoding="utf-8") == PREVIOUS
    assert sorted(p.name for p in cell_dir.iterdir()) == [
        "minimized.json", "original.json", "repro.txt",
    ]


def test_dag_spec_save_is_atomic(tmp_path, monkeypatch):
    from repro.dag.builder import DagBuilder
    from repro.dag.io import save_spec

    builder = DagBuilder("atomic")
    builder.kernel("k0", "fft", {"n": 128, "batch": 2}, ["in0"], "out0")
    spec, _ = builder.build_raw()
    path = _previous(tmp_path, "app.json")
    _fail_rename_onto(monkeypatch, path.name)
    with pytest.raises(RuntimeError, match="part-way"):
        save_spec(path, spec)
    _assert_untouched(path)


def test_perf_json_survives_a_failing_serialiser(tmp_path, monkeypatch):
    path = tmp_path / "perf.json"
    path.write_text(PREVIOUS, encoding="utf-8")
    monkeypatch.setattr(PerfCounters, "snapshot", _boom)
    with pytest.raises(RuntimeError, match="part-way"):
        main(["run", "--apps", "PD:1", "--timing-only", "--perf-json", str(path)])
    _assert_untouched(path)
