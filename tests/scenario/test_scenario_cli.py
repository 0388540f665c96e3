"""The ``repro scenario`` verbs: validate, list, run."""

import pytest

from repro.cli import main

GOOD_TOML = """
[scenario]
name = "cli-smoke"
trials = 1

[scheduler]
name = "etf"

[workload]
apps = "PD:1,TX:1"

[run]
rate_mbps = 250.0
execute = false
"""

BAD_TOML = """
[scenario]
name = "broken"

[scheduler]
name = "no-such-scheduler"
"""


@pytest.fixture
def good_spec(tmp_path):
    path = tmp_path / "good.toml"
    path.write_text(GOOD_TOML)
    return path


@pytest.fixture
def bad_spec(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text(BAD_TOML)
    return path


def test_scenario_validate_ok(good_spec, capsys):
    assert main(["scenario", "validate", str(good_spec)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "cli-smoke" in out and "digest" in out


def test_scenario_validate_reports_failures(good_spec, bad_spec, capsys):
    rc = main(["scenario", "validate", str(good_spec), str(bad_spec)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" in out
    assert "no-such-scheduler" in out


def test_scenario_list_directory(good_spec, bad_spec, capsys):
    rc = main(["scenario", "list", str(good_spec.parent)])
    assert rc == 1  # the broken spec flips the exit code
    out = capsys.readouterr().out
    assert "cli-smoke" in out and "INVALID" in out


def test_scenario_list_checked_in_examples(repo_root, capsys):
    assert main(["scenario", "list", str(repo_root / "examples/scenarios")]) == 0
    out = capsys.readouterr().out
    assert "[run]" in out and "[serve]" in out
    assert "fig5-cell-api-200mbps" in out


def test_scenario_list_empty_dir(tmp_path, capsys):
    assert main(["scenario", "list", str(tmp_path)]) == 1
    assert "no scenario documents found" in capsys.readouterr().out


def test_scenario_run_reports(good_spec, capsys):
    assert main(["scenario", "run", str(good_spec), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cli-smoke [run]" in out
    assert "scheduler=etf" in out
    assert "apps      : 2 completed, " in out
    assert "cache" not in out  # --no-cache silences the cache line


def test_scenario_run_trial_and_seed_overrides(good_spec, capsys):
    rc = main([
        "scenario", "run", str(good_spec),
        "--trials", "2", "--seed", "9", "--no-cache",
    ])
    assert rc == 0
    assert "trials    : 2 (base seed 9)" in capsys.readouterr().out


def test_scenario_run_names_a_collapsed_trial_axis(good_spec, tmp_path, capsys):
    """A periodic timing-only cell says its trials run once; a Poisson one,
    and a single trial, print the line as before."""
    assert main(["scenario", "run", str(good_spec), "--trials", "2", "--no-cache"]) == 0
    assert ("trials    : 2 (base seed 0); the cell cannot read its seed and runs once\n"
            in capsys.readouterr().out)
    assert main(["scenario", "run", str(good_spec), "--no-cache"]) == 0
    assert "trials    : 1 (base seed 0)\n" in capsys.readouterr().out
    poisson = tmp_path / "poisson.toml"
    poisson.write_text(GOOD_TOML.replace("[workload]", '[workload]\narrival = "poisson"'))
    assert main(["scenario", "run", str(poisson), "--trials", "2", "--no-cache"]) == 0
    assert "trials    : 2 (base seed 0)\n" in capsys.readouterr().out


def test_scenario_run_audited(good_spec, capsys):
    rc = main(["scenario", "run", str(good_spec), "--audit", "--no-cache"])
    assert rc == 0
    assert "audited" in capsys.readouterr().out


def test_scenario_run_cold_then_warm_cache(good_spec, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["scenario", "run", str(good_spec), "--cache-dir", cache_dir]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "0 hits, 1 misses" in cold and "1 stored" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "1 hits, 0 misses" in warm


@pytest.fixture(params=["run", "serve"])
def pooled_spec(request, tmp_path, repo_root):
    """A document whose trials are distinct cells (each reads its seed), so
    ``--trials 2 --jobs 2`` runs them in a process pool."""
    if request.param == "serve":
        return repo_root / "examples/scenarios/serve_poisson.toml"
    path = tmp_path / "poisson.toml"
    path.write_text(GOOD_TOML.replace("[workload]", '[workload]\narrival = "poisson"'))
    return path


def _report(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_scenario_run_report_is_pool_invariant(pooled_spec, capsys):
    """The printed report of a pooled run is byte-identical to the serial one."""
    args = ["scenario", "run", str(pooled_spec), "--trials", "2", "--no-cache"]
    serial = _report(args + ["--jobs", "1"], capsys)
    assert "trials    : 2 (base seed 0)\n" in serial
    assert _report(args + ["--jobs", "2"], capsys) == serial


def test_scenario_run_report_is_cache_invariant(pooled_spec, tmp_path, capsys):
    """A cold and a warm cached run print the uncached report plus a cache line."""
    args = ["scenario", "run", str(pooled_spec), "--trials", "2"]
    uncached = _report(args + ["--no-cache"], capsys)
    cached = args + ["--cache-dir", str(tmp_path / "cache")]
    cold, warm = _report(cached, capsys), _report(cached, capsys)
    assert "0 hits, 2 misses" in cold and "2 hits, 0 misses" in warm
    for out in (cold, warm):
        lines = [line for line in out.splitlines() if not line.startswith("cache ")]
        assert lines == uncached.splitlines()


def test_scenario_run_cache_flag_conflict(good_spec, tmp_path):
    with pytest.raises(SystemExit, match="conflicts"):
        main([
            "scenario", "run", str(good_spec),
            "--no-cache", "--cache-dir", str(tmp_path),
        ])


def test_scenario_run_invalid_spec_exits(bad_spec):
    with pytest.raises(SystemExit, match="no-such-scheduler"):
        main(["scenario", "run", str(bad_spec)])


def test_scenario_run_serve_kind(tmp_path, capsys):
    path = tmp_path / "serve.toml"
    path.write_text(
        """
        [scenario]
        name = "cli-serve"
        kind = "serve"
        trials = 1

        [serve]
        duration = 0.15
        arrival = "poisson:rate=100"
        apps = "PD:1"
        """
    )
    assert main(["scenario", "run", str(path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cli-serve [serve]" in out
    assert "poisson:rate=100" in out
    assert "slo" in out
