"""CLI surfaces of the service tier: serve and the saturation figure."""

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


def test_serve_logbook_dump_is_the_drivers_book(tmp_path, capsys):
    """``repro serve --logbook`` saves the run record the way ``repro run``
    does: the dump loads, audits clean offline, and is byte-identical to the
    book of the same service window driven by hand at the same seed - in
    the same process, since the runtime issues every id a dump carries."""
    from repro.runtime import CedrRuntime, Logbook
    from repro.scenario import ScenarioSpec
    from repro.serve import ServeDriver

    cli = tmp_path / "cli.json"
    main(["serve", "--duration", "0.1", "--arrival", "poisson:rate=150", "--apps", "PD:1,TX:1",
          "--logbook", str(cli)])
    out = capsys.readouterr().out
    assert f"logbook   : wrote {cli} (audit offline with 'repro audit {cli}')" in out
    assert len(Logbook.load(cli).tasks) > 0
    assert main(["audit", str(cli)]) == 0
    spec = ScenarioSpec.from_mapping({
        "scenario": {"name": "by-hand", "kind": "serve"},
        "serve": {"duration": 0.1, "arrival": "poisson:rate=150", "apps": "PD:1,TX:1"},
    })
    serve = spec.build_serve()
    runtime = CedrRuntime(spec.build_platform().build(seed=spec.seed), spec.build_config())
    runtime.start()
    driver = ServeDriver(runtime, serve, spec.seed)
    driver.arm()
    runtime.run()
    driver.result()
    assert cli.read_bytes() == Path(runtime.logbook.save(tmp_path / "by_hand.json")).read_bytes()
