"""Determinism of the process-pool sweep path.

A run is a pure function of its cell tuple, and ``run_cells`` collects
results in grid order, so a parallel sweep must be *indistinguishable* from
a serial one - not statistically close: identical.  These tests pin that
property (the whole point of ``n_jobs``: speed without changing a single
figure value) plus the ``n_jobs`` resolution rules.
"""

import pytest

from repro.audit import assert_identical
from repro.experiments import resolve_jobs, run_cells, run_trials
from repro.experiments.common import JOBS_ENV, trial_seeds
from repro.platforms import zcu102
from repro.workload import radar_comms_workload


# --------------------------------------------------------------------- #
# n_jobs resolution
# --------------------------------------------------------------------- #

def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_reads_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "3")
    assert resolve_jobs(None) == 3


def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "3")
    assert resolve_jobs(2) == 2


def test_resolve_jobs_negative_means_all_cores():
    import os

    assert resolve_jobs(-1) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_zero():
    """0 is neither serial (1) nor all-cores (<= -1); silently coercing it
    to serial used to mask buggy worker-count arithmetic in callers."""
    with pytest.raises(ValueError, match="n_jobs"):
        resolve_jobs(0)


def test_resolve_jobs_rejects_zero_from_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "0")
    with pytest.raises(ValueError, match="n_jobs"):
        resolve_jobs(None)


def test_resolve_jobs_all_negative_mean_all_cores():
    import os

    assert resolve_jobs(-4) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "abc")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs(None)


# --------------------------------------------------------------------- #
# parallel == serial, exactly
# --------------------------------------------------------------------- #

def test_parallel_sweep_identical_to_serial():
    """run_cells(n_jobs=4) equals the serial run of a fig5-workload grid.

    Equality is exact (frozen-dataclass ``==`` over every RunResult of the
    (rate, trial) grid), not approximate - floating-point results must come
    from the same operations in the same order regardless of sharding.
    """
    platform = zcu102(n_cpu=3, n_fft=1)
    workload = radar_comms_workload()
    cells = [
        (platform, workload, "api", rate, "rr", seed, False, None)
        for rate in (10.0, 100.0, 300.0)
        for seed in trial_seeds(2, 7)
    ]
    serial = run_cells(cells, n_jobs=1)
    parallel = run_cells(cells, n_jobs=4)
    assert len(parallel) == len(serial) == 6
    assert parallel == serial
    # belt and braces: the rendered representation is byte-identical too
    assert repr(parallel) == repr(serial)


def test_parallel_trials_identical_to_serial():
    """run_trials returns the same RunResult list under sharding.

    assert_identical (repro.audit.oracle) diffs cell by cell and names the
    drifted fields on failure - the part a bare ``parallel == serial``
    never reported."""
    platform = zcu102(n_cpu=3, n_fft=1)
    workload = radar_comms_workload()
    serial = run_trials(
        platform, workload, "dag", 200.0, "heft_rt", trials=3, base_seed=0, n_jobs=1
    )
    parallel = run_trials(
        platform, workload, "dag", 200.0, "heft_rt", trials=3, base_seed=0, n_jobs=3
    )
    assert_identical([serial, parallel], ["serial", "jobs=3"])


def test_single_cell_grid_stays_serial():
    """A one-cell grid must not pay process-pool startup."""
    platform = zcu102(n_cpu=3, n_fft=1)
    workload = radar_comms_workload()
    with pytest.MonkeyPatch.context() as mp:
        # poison the pool: if run_cells ever builds one for a single cell,
        # this substitute (imported where the pool is built) blows up
        class _Boom:
            def __init__(self, *a, **k):
                raise AssertionError("process pool built for a single cell")

        mp.setattr("concurrent.futures.ProcessPoolExecutor", _Boom)
        result = run_trials(
            platform, workload, "api", 200.0, "rr", trials=1, n_jobs=8
        )
    assert len(result) == 1
