"""Differential-oracle tests: paired configurations agree bit-for-bit.

``diff_results``/``assert_identical`` are the helpers the suite's
bit-identity tests now build on; ``diff_run`` is the full paired-run
driver behind ``repro audit diff``.  The small end-to-end grids here pin
the real property on both platforms: serial, pooled, cached, telemetry-on,
and audit-on sweeps all produce the same RunResults.
"""

import dataclasses

import pytest

from repro.audit import (
    DEFAULT_VARIANTS,
    OracleReport,
    VariantOutcome,
    assert_identical,
    diff_results,
    diff_run,
)
from repro.experiments import run_once
from repro.platforms import jetson, zcu102
from repro.runtime import RuntimeConfig
from repro.workload import radar_comms_workload

TINY = radar_comms_workload(n_pd=1, n_tx=1)


@pytest.fixture(scope="module")
def result_pair():
    a = run_once(zcu102(n_cpu=3, n_fft=1), TINY, "api", 200.0, "eft", seed=2)
    b = run_once(zcu102(n_cpu=3, n_fft=1), TINY, "api", 200.0, "eft", seed=2)
    return a, b


# --------------------------------------------------------------------- #
# diff_results / assert_identical
# --------------------------------------------------------------------- #

def test_diff_results_empty_on_identical_runs(result_pair):
    a, b = result_pair
    assert diff_results(a, b) == []


def test_diff_results_names_the_drifted_fields(result_pair):
    a, b = result_pair
    drifted = dataclasses.replace(b, makespan=b.makespan * 2.0,
                                  sched_rounds=b.sched_rounds + 1)
    # names come back in RunResult declaration order
    assert diff_results(a, drifted) == ["sched_rounds", "makespan"]


def test_diff_results_ignore_excludes_by_design_fields(result_pair):
    a, b = result_pair
    drifted = dataclasses.replace(b, telemetry={"cedr_up": 1.0})
    assert diff_results(a, drifted) == ["telemetry"]
    assert diff_results(a, drifted, ignore=("telemetry",)) == []


def test_diff_results_rejects_unknown_ignore_names(result_pair):
    a, b = result_pair
    with pytest.raises(KeyError, match="unknown RunResult fields"):
        diff_results(a, b, ignore=("no_such_field",))


def test_diff_results_descends_into_a_serve_results_run(pd_small, zcu_small):
    """One differ serves both result kinds: a ``ServeResult``'s embedded
    ``RunResult`` is diffed field by field, named under ``run.``."""
    from repro.serve import ArrivalSpec, ServeConfig, TenantSpec, serve_once

    serve = ServeConfig(
        tenants=(
            TenantSpec("a", ArrivalSpec.make("poisson", rate=100.0), (pd_small,)),
            TenantSpec("b", ArrivalSpec.make("poisson", rate=50.0), (pd_small,)),
        ),
        duration=0.05,
    )
    a = serve_once(zcu_small, serve, seed=1)
    assert diff_results(a, serve_once(zcu_small, serve, seed=1)) == []
    first, *rest = a.tenants
    drifted = dataclasses.replace(
        a,
        tenants=(dataclasses.replace(first, shed=first.shed + 1), *rest),
        run=dataclasses.replace(a.run, makespan=a.run.makespan * 2.0),
    )
    assert diff_results(a, drifted) == ["tenants", "run.makespan"]
    with pytest.raises(AssertionError, match=r"run\.makespan: "):
        assert_identical([[a], [drifted]], ["serial", "pooled"])


def test_assert_identical_passes_and_fails_with_context(result_pair):
    a, b = result_pair
    assert_identical([[a], [b]], ["serial", "pooled"])
    drifted = dataclasses.replace(b, makespan=b.makespan + 1.0)
    with pytest.raises(AssertionError, match="pooled drifted .* makespan"):
        assert_identical([[a], [drifted]], ["serial", "pooled"])


def test_assert_identical_reports_length_mismatch(result_pair):
    a, b = result_pair
    with pytest.raises(AssertionError, match="1 results"):
        assert_identical([[a, b], [a]], ["serial", "cached"])


# --------------------------------------------------------------------- #
# report rendering
# --------------------------------------------------------------------- #

def test_variant_outcome_describe_both_ways():
    ok = VariantOutcome(variant="jobs", cells=4)
    assert ok.ok and "ok (4 cells" in ok.describe()
    bad = VariantOutcome(
        variant="cache", cells=4,
        mismatches=((1, ("makespan",)),), notes=("cold pass short",),
    )
    assert not bad.ok
    assert "FAIL" in bad.describe()
    assert "cell 1: makespan" in bad.describe()
    assert "cold pass short" in bad.describe()


def test_oracle_report_summary_lists_every_variant():
    report = OracleReport(
        label="zcu102/tiny/api/etf", cells=4,
        outcomes=(VariantOutcome("jobs", 4), VariantOutcome("cache", 4)),
    )
    assert report.ok
    text = report.summary()
    assert "4 cells x 2 variants" in text
    assert "jobs" in text and "cache" in text


# --------------------------------------------------------------------- #
# diff_run end to end
# --------------------------------------------------------------------- #

def test_diff_run_rejects_unknown_variants():
    with pytest.raises(KeyError, match="unknown oracle variant"):
        diff_run(zcu102(n_cpu=3, n_fft=1), TINY, "api", [200.0], "etf",
                 variants=("jobs", "warp"))


@pytest.mark.parametrize("platform", [
    pytest.param(zcu102(n_cpu=3, n_fft=1), id="zcu102"),
    pytest.param(jetson(n_cpu=3, n_gpu=1), id="jetson"),
])
def test_diff_run_all_variants_bit_identical(platform):
    """The acceptance grid: every paired configuration reproduces the
    serial baseline exactly, on both platforms."""
    report = diff_run(
        platform, TINY, "api", [150.0, 400.0], "etf",
        trials=2, base_seed=1, jobs=2, variants=DEFAULT_VARIANTS,
    )
    assert report.cells == 4
    assert set(o.variant for o in report.outcomes) == set(DEFAULT_VARIANTS)
    assert report.ok, report.summary()


def test_audit_flip_matches_baseline_bit_for_bit(result_pair):
    """An audited run reproduces the unaudited one exactly (the audit
    only observes)."""
    plain, _ = result_pair
    audited = run_once(
        zcu102(n_cpu=3, n_fft=1), TINY, "api", 200.0, "eft", seed=2,
        config=RuntimeConfig(scheduler="eft", execute_kernels=False).with_audit(),
    )
    assert_identical([[plain], [audited]], ["plain", "audited"])
