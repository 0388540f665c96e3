"""CLI tests: argument parsing and end-to-end command execution."""

import json

import pytest

from repro.apps import available_apps
from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "zcu102" in out and "jetson" in out
    for app in available_apps():
        assert app in out
    assert "heft_rt" in out


def test_parse_apps_variants(capsys):
    """``--apps`` spellings: NAME:COUNT lists, case-insensitive names with a
    default count of 1, padding around the separators."""
    for apps, completed in (("PD:2,TX:3", 5), ("pd", 1), (" LD:1 , TM:2 ", 3)):
        assert main(["run", "--apps", apps, "--timing-only"]) == 0
        assert f"{completed} completed" in capsys.readouterr().out


def _assert_one_line(exit_: SystemExit) -> str:
    """A bad flag ends in a non-zero exit carrying a one-line message."""
    assert exit_.code not in (None, 0)
    message = str(exit_.code)
    assert message.strip() and "\n" not in message and "Traceback" not in message
    return message


def test_parse_apps_errors():
    for apps in ("WARP:1", "PD:zero", "PD:0", ""):
        with pytest.raises(SystemExit) as err:
            main(["run", "--apps", apps, "--timing-only"])
        _assert_one_line(err.value)


#: flags the second construction route used to turn into tracebacks
#: (RegistryError, ValueError from workload/injection.py, SimTimeError);
#: lowered to a spec they get the spec's validation and did-you-mean
BAD_FLAG_LINES = [
    pytest.param(["run", "--scheduler", "heftrt"], "did you mean 'heft_rt'?",
                 id="run-scheduler"),
    pytest.param(["serve", "--scheduler", "heftrt"], "did you mean 'heft_rt'?",
                 id="serve-scheduler"),
    pytest.param(["run", "--rate", "0"], "rate_mbps", id="run-rate-0"),
    pytest.param(["run", "--rate", "nan"], "rate_mbps", id="run-rate-nan"),
    pytest.param(["serve", "--tenants", "0"], "tenants", id="serve-tenants-0"),
    pytest.param(["run", "--apps", "PD:0"], "count must be >= 1", id="run-apps-count-0"),
    pytest.param(["run", "--fft", "9"], "0-8 FFT", id="run-fft-range"),
    pytest.param(["serve", "--slo-ms", "-5"], "slo_ms", id="serve-slo-negative"),
    pytest.param(["serve", "--duration", "inf"], "duration", id="serve-duration-inf"),
    pytest.param(["audit", "diff", "--trials", "0"], "trials", id="audit-trials-0"),
]


@pytest.mark.parametrize("argv,needle", BAD_FLAG_LINES)
def test_bad_flag_exits_on_one_line(argv, needle):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert needle in _assert_one_line(err.value)


def test_cli_import_stays_light():
    """``import repro.cli`` is all of a command's ``setup_s``: it must not
    drag in networkx (181 of 489 ms when ``repro.dag`` imported it; no
    longer a dependency) nor the layers the verbs import on demand."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).parents[1])
    heavy = ["networkx", "repro.scenario", "repro.experiments", "repro.audit",
             "repro.corpus", "concurrent.futures"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
