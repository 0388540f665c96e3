"""Determinism of the process-pool sweep path.

A run is a pure function of its cell tuple, and ``run_cells`` collects
results in grid order, so a parallel sweep must be *indistinguishable* from
a serial one - not statistically close: identical.  These tests pin that
property (the whole point of ``n_jobs``: speed without changing a single
figure value) plus the ``n_jobs`` resolution rules.
"""

import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.experiments import resolve_jobs, run_cells, run_trials
from repro.experiments.common import JOBS_ENV, trial_seeds
from repro.metrics import assert_identical
from repro.platforms import jetson, zcu102, zcu102_biglittle
from repro.runtime import RuntimeConfig
from repro.serve import (
    AdmissionConfig,
    ArrivalSpec,
    ServeConfig,
    TenantSpec,
    serve_trials,
)
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

    assert_identical (repro.metrics) diffs cell by cell and names the
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


class _Recorder:
    """A stand-in pool that runs ``map`` in-process and records the
    ``chunksize`` each call asked for."""

    chunksizes: list = []

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        _Recorder.chunksizes.append(chunksize)
        return map(fn, iterable)


def _double(cell: tuple) -> int:
    return 2 * cell[0]


def test_pool_takes_one_cell_per_task():
    """Cell costs differ by orders of magnitude (a corpus grid most of
    all), so no chunk of several cells may pin the slow ones to one worker."""
    cells = [(i,) for i in range(32)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Recorder, "chunksizes", [])
        mp.setattr("concurrent.futures.ProcessPoolExecutor", _Recorder)
        results = run_cells(cells, n_jobs=2, cache=False, worker=_double)
        assert _Recorder.chunksizes == [1]
    assert results == [2 * i for i in range(32)]


# --------------------------------------------------------------------- #
# the bit-identity grids: serial == n_jobs=2 on (rate x trial) grids over
# every registered platform, both modes and the RNG-drawing scheduler, and
# on serve cells over the arrival kinds and admission policies;
# test_sweep_cache.py runs the same grids uncached, cold and warm
# --------------------------------------------------------------------- #

TINY = radar_comms_workload(n_pd=1, n_tx=1)
_ZCU = zcu102(n_cpu=3, n_fft=1)
_JETSON = jetson(n_cpu=3, n_gpu=1)
_BIGLITTLE = zcu102_biglittle(n_big=3, n_little=4, n_fft=1)
#: (platform, mode, scheduler) of each rate x trial grid
GRID_CELLS = [
    pytest.param(_ZCU, "api", "etf", id="zcu102"),
    pytest.param(_JETSON, "api", "etf", id="jetson"),
    pytest.param(_BIGLITTLE, "api", "etf", id="zcu102-biglittle"),
    pytest.param(_ZCU, "dag", "etf", id="zcu102-dag"),
    pytest.param(_JETSON, "dag", "etf", id="jetson-dag"),
    pytest.param(_BIGLITTLE, "dag", "etf", id="zcu102-biglittle-dag"),
    # draws from the cell's RNG: a stream shared across a worker's cells
    # would show here first
    pytest.param(_ZCU, "api", "random", id="zcu102-random"),
    pytest.param(_ZCU, "api", "heft_rt", id="zcu102-heft_rt"),
]
#: (arrival kind, admission policy) of each serve cell
SERVE_CELLS = [
    pytest.param("poisson", "block", id="poisson-block"),
    pytest.param("periodic", "shed", id="periodic-shed"),
    pytest.param("bursty", "degrade", id="bursty-degrade"),
    pytest.param("diurnal", "block", id="diurnal-block"),
]
#: one diurnal envelope cycle per service window, not a tenth of one
_ARRIVAL_PARAMS = {"diurnal": {"cycle": 0.1}}


def rate_trial_grid(platform, mode: str = "api", scheduler: str = "etf",
                    n_jobs: int = 1, cache=False) -> list:
    """Two rates x two trials of PD:1,TX:1, one ``run_trials`` sweep per
    rate, in grid order."""
    config = RuntimeConfig(scheduler=scheduler, execute_kernels=False)
    return [
        result
        for rate in (150.0, 400.0)
        for result in run_trials(
            platform, TINY, mode, rate, scheduler, trials=2, base_seed=1,
            config=config, n_jobs=n_jobs, cache=cache,
        )
    ]


def serve_grid(arrival: str = "poisson", policy: str = "block",
               n_jobs: int = 1, cache=False) -> list:
    """Two trials of a two-tenant serve cell: both tenants arrive by the
    *arrival* kind and overload is handled by the *policy*."""
    params = _ARRIVAL_PARAMS.get(arrival, {})
    serve = ServeConfig(
        tenants=(
            TenantSpec("radar", ArrivalSpec.make(arrival, rate=200.0, **params),
                       apps=(PulseDoppler(batch=16),), weight=2.0, slo_s=0.05),
            TenantSpec("comms", ArrivalSpec.make(arrival, rate=100.0, **params),
                       apps=(WifiTx(n_packets=20, batch=4),), slo_s=0.05),
        ),
        duration=0.1,
        admission=AdmissionConfig(policy=policy, max_in_system=6, queue_cap=4),
    )
    config = RuntimeConfig(scheduler=serve.scheduler, execute_kernels=False)
    return serve_trials(zcu102(n_cpu=3, n_fft=1), serve, trials=2, config=config,
                        n_jobs=n_jobs, cache=cache)


@pytest.mark.parametrize("platform,mode,scheduler", GRID_CELLS)
def test_rate_trial_grid_pooled_is_bit_identical(platform, mode, scheduler):
    serial = rate_trial_grid(platform, mode, scheduler)
    assert len(serial) == 4
    assert_identical([serial, rate_trial_grid(platform, mode, scheduler, n_jobs=2)],
                     ["serial", "jobs=2"])


@pytest.mark.parametrize("arrival,policy", SERVE_CELLS)
def test_serve_cell_pooled_is_bit_identical(arrival, policy):
    serial = serve_grid(arrival, policy)
    assert len(serial) == 2
    assert_identical([serial, serve_grid(arrival, policy, n_jobs=2)],
                     ["serial", "jobs=2"])
