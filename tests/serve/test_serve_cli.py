"""CLI surfaces of the service tier: serve and the saturation figure."""

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
