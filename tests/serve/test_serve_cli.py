"""CLI surfaces of the service tier: serve and the saturation figure."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_serve_command_end_to_end(capsys):
    rc = main([
        "serve", "--duration", "0.15", "--arrival", "poisson:rate=150",
        "--tenants", "2", "--admission", "shed", "--slo-ms", "60",
        "--apps", "PD:1", "--audit",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "graceful" in out
    assert "tenant0" in out and "tenant1" in out
    assert "p99 response" in out


def test_serve_block_policy_reports_holds(capsys):
    rc = main([
        "serve", "--duration", "0.1", "--arrival", "poisson:rate=400",
        "--admission", "block", "--max-in-system", "4", "--queue-cap", "4",
        "--apps", "PD:1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "admission : block" in out


def test_serve_rejects_bad_arrival():
    with pytest.raises(SystemExit):
        main(["serve", "--arrival", "zipf:rate=1"])
    with pytest.raises(SystemExit):
        main(["serve", "--arrival", "poisson:150"])


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.duration == 0.5
    assert args.admission == "shed"
    assert args.tenants == 1
    assert args.audit is False


def test_figure_saturation(capsys):
    rc = main([
        "figure", "saturation", "--trials", "1", "--duration", "0.05",
        "--no-cache",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "saturation_throughput" in out
    assert "saturation_p99" in out
    assert "saturation knee" in out


def _fresh(tmp_path, body: str) -> str:
    """Run *body* in a fresh interpreter (app ids and cost-table tokens are
    per-process counters, so two runs in one process number differently)."""
    import repro

    src = str(Path(repro.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + body], capture_output=True, text=True, check=True,
                          cwd=tmp_path).stdout


def test_serve_logbook_dump_is_the_drivers_book(tmp_path):
    """``repro serve --logbook`` saves the run record the way ``repro run``
    does: the dump loads, audits clean offline, and is byte-identical to the
    book of the same service window driven by hand at the same seed."""
    from repro.runtime import Logbook

    argv = ["serve", "--duration", "0.1", "--arrival", "poisson:rate=150", "--apps", "PD:1,TX:1"]
    out = _fresh(tmp_path, f"from repro.cli import main\nmain({argv + ['--logbook', 'cli.json']!r})")
    assert "logbook   : wrote cli.json (audit offline with 'repro audit cli.json')" in out
    assert len(Logbook.load(tmp_path / "cli.json").tasks) > 0
    assert main(["audit", str(tmp_path / "cli.json")]) == 0
    _fresh(tmp_path, """
from repro.runtime import CedrRuntime
from repro.scenario import ScenarioSpec
from repro.serve import ServeDriver
spec = ScenarioSpec.from_mapping({
    "scenario": {"name": "by-hand", "kind": "serve"},
    "serve": {"duration": 0.1, "arrival": "poisson:rate=150", "apps": "PD:1,TX:1"},
})
serve = spec.build_serve()
runtime = CedrRuntime(spec.build_platform().build(seed=spec.seed),
                      spec.build_config().with_scheduler(serve.scheduler))
runtime.start()
driver = ServeDriver(runtime, serve, spec.seed)
driver.arm()
runtime.run()
driver.result()
runtime.logbook.save("by_hand.json")
""")
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "by_hand.json").read_bytes()
