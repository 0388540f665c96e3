"""run_scenario: the builders against hand-built library objects (what the
retired ``scenario`` oracle variant proved end to end), cache sharing."""

import pytest

from repro.apps import APPS
from repro.experiments import SweepCache, run_trials
from repro.metrics import assert_identical
from repro.runtime import RuntimeConfig
from repro.scenario import AppCount, ScenarioSpec, ServeSection, run_scenario
from repro.serve import (
    AdmissionConfig,
    ArrivalSpec,
    ServeConfig,
    TenantSpec,
    serve_trials,
)
from repro.workload import WorkloadEntry, WorkloadSpec

RATE = 200.0
TRIALS = 2


def _flag_objects():
    """Hand-built library objects for PD:1,TX:1 on the zcu102."""
    from repro.platforms import make_platform

    platform = make_platform("zcu102", cpu=3, fft=1)
    workload = WorkloadSpec(
        name="cli",
        entries=(
            WorkloadEntry(APPS.get("PD").factory(), 1),
            WorkloadEntry(APPS.get("TX").factory(), 1),
        ),
    )
    config = RuntimeConfig(scheduler="etf", execute_kernels=False)
    return platform, workload, config


def _spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="parity",
        trials=TRIALS,
        platform="zcu102",
        platform_params=(("cpu", 3), ("fft", 1)),
        scheduler="etf",
        apps=(AppCount("PD"), AppCount("TX")),
        rate_mbps=RATE,
        execute=False,
    )


def test_run_scenario_bit_identical_to_flag_path():
    platform, workload, config = _flag_objects()
    flag_results = run_trials(platform, workload, "api", RATE, config, trials=TRIALS)
    scenario_results = run_scenario(_spec())
    assert_identical(
        [flag_results, scenario_results], ["flags", "scenario"]
    )


@pytest.mark.no_auto_audit
def test_run_scenario_audit_armed_bit_identical():
    """A scenario with [engine] audit = true reproduces the unaudited run
    exactly - the scenario-kind leg of the audit's observe-only proof."""
    import dataclasses

    plain = run_scenario(_spec())
    audited = run_scenario(dataclasses.replace(_spec(), audit=True))
    assert_identical([plain, audited], ["plain", "audited"])


def test_run_scenario_shares_cache_with_flag_path(tmp_path):
    # the scenario builds equal cell tuples, so a flag-driven sweep warms
    # the cache for the declarative one - content addressing is free
    platform, workload, config = _flag_objects()
    cache = SweepCache(tmp_path)
    run_trials(platform, workload, "api", RATE, config, trials=TRIALS, cache=cache)
    assert cache.stats.stores == TRIALS
    warm = SweepCache(tmp_path)
    results = run_scenario(_spec(), cache=warm)
    assert warm.stats.hits == TRIALS and warm.stats.misses == 0
    assert len(results) == TRIALS


def test_run_scenario_warm_rerun_hits(tmp_path):
    cold = SweepCache(tmp_path)
    first = run_scenario(_spec(), cache=cold)
    assert cold.stats.misses == TRIALS
    warm = SweepCache(tmp_path)
    second = run_scenario(_spec(), cache=warm)
    assert warm.stats.hits == TRIALS and warm.stats.misses == 0
    assert first == second


def test_run_scenario_trial_and_seed_overrides():
    spec = _spec()
    results = run_scenario(spec, trials=1, base_seed=5000)
    (only,) = results
    # seed 5000 is trial index 5 of the base-0 grid: same cell, same bits
    grid = run_scenario(spec, trials=6, base_seed=0)
    assert only == grid[5]


def test_serve_scenario_bit_identical_to_flag_path():
    from repro.platforms import make_platform

    arrival = ArrivalSpec.parse("poisson:rate=120")
    apps = (APPS.get("PD").factory(), APPS.get("TX").factory())
    serve = ServeConfig(
        tenants=(TenantSpec("tenant", arrival, apps=apps, slo_s=0.05),),
        duration=0.2,
        admission=AdmissionConfig(policy="block"),
        mode="api",
    )
    platform = make_platform("zcu102", cpu=3, fft=1)
    config = RuntimeConfig(scheduler="heft_rt", execute_kernels=False)
    flag_results = serve_trials(platform, serve, config, trials=TRIALS)
    spec = ScenarioSpec(
        name="parity-serve",
        kind="serve",
        trials=TRIALS,
        platform="zcu102",
        platform_params=(("cpu", 3), ("fft", 1)),
        scheduler="heft_rt",
        serve=ServeSection(
            duration=0.2,
            arrival="poisson:rate=120",
            tenants=1,
            slo_ms=50.0,
            apps=(AppCount("PD"), AppCount("TX")),
            admission=AdmissionConfig(policy="block"),
        ),
    )
    scenario_results = run_scenario(spec)
    assert scenario_results == flag_results


def test_faulty_scenario_runs(repo_root):
    results = run_scenario(
        repo_root / "examples" / "scenarios" / "jetson_faults.toml",
        trials=1,
    )
    (result,) = results
    assert result.faults_injected > 0
    assert result.telemetry is not None  # [telemetry] section armed it
