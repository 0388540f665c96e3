"""Run artifacts are replaced whole or not at all.

``Logbook.save``, ``write_chrome_trace``, ``write_metrics``, ``--perf-json``
and the sweep cache all write through :func:`repro.atomic.atomic_write`: a
serialiser that raises part-way (or Ctrl-C) leaves the previous file byte
for byte and no temporary beside it.
"""

import json

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.atomic import atomic_write
from repro.cli import main
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, PerfCounters, RuntimeConfig, write_chrome_trace
from repro.telemetry import write_metrics

PREVIOUS = '{"previous": "artifact"}\n'


@pytest.fixture(scope="module")
def runtime():
    rt = CedrRuntime(
        zcu102(n_cpu=2, n_fft=1).build(seed=1),
        RuntimeConfig(scheduler="rr", execute_kernels=False).with_telemetry(),
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
        write_chrome_trace(str(path), runtime)
    _assert_untouched(path)


def test_metrics_export_survives_a_failing_serialiser(runtime, tmp_path, monkeypatch):
    path = tmp_path / "metrics.json"
    path.write_text(PREVIOUS, encoding="utf-8")
    monkeypatch.setattr(json, "dump", _boom)
    with pytest.raises(RuntimeError, match="part-way"):
        write_metrics(str(tmp_path / "metrics"), runtime.telemetry)
    _assert_untouched(path)


def test_perf_json_survives_a_failing_serialiser(tmp_path, monkeypatch):
    path = tmp_path / "perf.json"
    path.write_text(PREVIOUS, encoding="utf-8")
    monkeypatch.setattr(PerfCounters, "snapshot", _boom)
    with pytest.raises(RuntimeError, match="part-way"):
        main(["run", "--apps", "PD:1", "--timing-only", "--perf-json", str(path)])
    _assert_untouched(path)
