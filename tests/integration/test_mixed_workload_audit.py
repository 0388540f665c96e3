"""Audited mixed-workload integration: all five apps, both platforms.

The heaviest coexistence test in the suite: every ``repro.apps``
application runs *concurrently* in one workload at two injection rates on
both platforms, audited (the scheduler contract at every round, the
invariant catalog folded over the book at shutdown), and the
content-addressed sweep cache layered on top.
Cache bookkeeping is pinned exactly (cold pass = all misses + stores, warm
pass = all hits) and cached results must match the uncached sweep
bit-for-bit - the combination no single-app test exercises.
"""

import pytest

from repro.apps import (
    LaneDetection,
    PulseDoppler,
    TemporalMitigation,
    WifiRx,
    WifiTx,
)
from repro.experiments import SweepCache, run_trials
from repro.platforms import jetson, zcu102
from repro.runtime import RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec

RATES = (100.0, 400.0)  # one relaxed, one saturated injection point


def five_app_workload():
    """One instance of each paper application, mixed into one stream."""
    return WorkloadSpec(
        name="five-app-mix",
        entries=(
            WorkloadEntry(PulseDoppler(batch=16), 1),
            WorkloadEntry(WifiTx(n_packets=20, batch=4), 1),
            WorkloadEntry(WifiRx(n_packets=16, batch=2, snr_db=12.0), 1),
            WorkloadEntry(LaneDetection(height=96, width=128, batch=32), 1),
            WorkloadEntry(TemporalMitigation(n_blocks=12), 1),
        ),
    )


@pytest.mark.parametrize("platform", [
    pytest.param(zcu102(n_cpu=3, n_fft=1, n_mmult=1), id="zcu102"),
    pytest.param(jetson(n_cpu=3, n_gpu=1), id="jetson"),
])
def test_five_app_mix_audited_and_cached(platform, tmp_path):
    workload = five_app_workload()
    config = RuntimeConfig(scheduler="etf", execute_kernels=False, audit=True)

    def sweep(cache=False):
        out = []
        for rate in RATES:
            out.extend(run_trials(platform, workload, "dag", rate, config,
                                  trials=1, base_seed=3, cache=cache))
        return out

    uncached = sweep()
    n_cells = len(RATES)  # trials=1

    # every app actually shared the machine in every cell
    for result in uncached:
        assert set(result.exec_times_by_app) == {"PD", "TX", "RX", "LD", "TM"}
        assert result.n_apps == 5

    # cold pass: all misses, all stored; results identical to uncached
    cold_cache = SweepCache(tmp_path)
    cold = sweep(cache=cold_cache)
    assert cold_cache.stats.misses == n_cells
    assert cold_cache.stats.stores == n_cells
    assert cold_cache.stats.hits == 0
    assert cold == uncached

    # warm pass: pure hits, nothing simulated, still identical
    warm_cache = SweepCache(tmp_path)
    warm = sweep(cache=warm_cache)
    assert warm_cache.stats.hits == n_cells
    assert warm_cache.stats.misses == 0
    assert warm == uncached
