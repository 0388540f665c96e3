"""The result differ: ``diff_results`` / ``assert_identical`` (``repro.metrics``).

They are the helpers the suite's bit-identity tests build on: they name
the drifted fields, which a bare ``a == b`` never reports.  The serial /
pooled and uncached / cold / warm grids that use them live in
``tests/experiments/test_parallel_sweeps.py`` and ``test_sweep_cache.py``;
here an audited run must also reproduce the unaudited one.
"""

import dataclasses

import pytest

from repro.experiments import run_once
from repro.metrics import assert_identical, diff_results
from repro.platforms import zcu102
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


def test_audit_flip_matches_baseline_bit_for_bit(result_pair):
    """An audited run reproduces the unaudited one exactly (the audit
    only observes)."""
    plain, _ = result_pair
    audited = run_once(
        zcu102(n_cpu=3, n_fft=1), TINY, "api", 200.0, "eft", seed=2,
        config=RuntimeConfig(scheduler="eft", execute_kernels=False).with_audit(),
    )
    assert_identical([[plain], [audited]], ["plain", "audited"])
