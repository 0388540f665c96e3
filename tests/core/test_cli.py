"""CLI tests: argument parsing and end-to-end command execution."""

import json

import pytest

from repro.apps import available_apps
from repro.cli import _parse_apps, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "zcu102" in out and "jetson" in out
    for app in available_apps():
        assert app in out
    assert "heft_rt" in out


def test_parse_apps_variants():
    assert _parse_apps("PD:2,TX:3") == [("PD", 2), ("TX", 3)]
    assert _parse_apps("pd") == [("PD", 1)]
    assert _parse_apps(" LD:1 , TM:2 ") == [("LD", 1), ("TM", 2)]


def test_parse_apps_errors():
    with pytest.raises(SystemExit):
        _parse_apps("WARP:1")
    with pytest.raises(SystemExit):
        _parse_apps("PD:zero")
    with pytest.raises(SystemExit):
        _parse_apps("PD:0")
    with pytest.raises(SystemExit):
        _parse_apps("")


def test_parser_rejects_unknown_platform():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--platform", "tpu-pod"])


def test_run_command_timing_only(capsys):
    rc = main([
        "run", "--apps", "PD:1,TX:1", "--mode", "dag", "--scheduler", "rr",
        "--rate", "500", "--timing-only",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exec time" in out
    assert "2 completed" in out
    assert "placement" in out


def test_run_command_with_energy_and_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    rc = main([
        "run", "--apps", "TX:1", "--rate", "100", "--timing-only",
        "--energy", "--trace", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy" in out and "avg" in out
    trace = json.loads(trace_path.read_text())
    assert trace["otherData"]["apps"] == 1


def test_run_command_biglittle_platform(capsys):
    rc = main([
        "run", "--platform", "zcu102-biglittle", "--fft", "2", "--little", "2",
        "--apps", "PD:1", "--rate", "100", "--timing-only",
    ])
    assert rc == 0
    assert "zcu102bl" in capsys.readouterr().out


def test_run_command_executes_real_kernels(capsys):
    rc = main(["run", "--apps", "TM:1", "--rate", "100", "--mmult", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "TM" in out


def test_run_command_metrics_out(tmp_path, capsys):
    base = tmp_path / "metrics"
    rc = main([
        "run", "--apps", "PD:1", "--rate", "200", "--timing-only",
        "--metrics-out", str(base), "--metrics-interval", "0.005",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "metrics" in out
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["schema"] == "repro.telemetry/1"
    assert doc["samples"], "periodic sampling produced no snapshots"
    prom = (tmp_path / "metrics.prom").read_text()
    assert prom.startswith("# HELP ")
    assert "cedr_tasks_completed" in prom


def test_run_command_rejects_negative_metrics_interval(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "run", "--apps", "PD:1", "--timing-only",
            "--metrics-out", str(tmp_path / "m"), "--metrics-interval", "-1",
        ])


def test_telemetry_command(capsys):
    assert main(["telemetry"]) == 0
    out = capsys.readouterr().out
    assert "cedr_api_call_latency_seconds" in out
    assert "histogram" in out and "buckets:" in out


def test_telemetry_command_json(capsys):
    assert main(["telemetry", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in catalog}
    assert "cedr_pe_dispatch_total" in names
    assert all({"name", "type", "labels", "help"} <= set(e) for e in catalog)


def test_figure_command_fig5(capsys):
    rc = main(["figure", "fig5", "--rates", "3", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig5" in out
    assert "DAG-based" in out and "API-based" in out
    assert "reduction" in out


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])
