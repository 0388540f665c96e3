"""Content-addressed sweep-cache correctness.

The cache must be invisible except for speed: a hit returns the
bit-identical ``RunResult`` the simulation would have produced, every
observable cell field perturbs the digest, damaged entries degrade to
misses, and the serial / parallel / cached paths all agree exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest

from repro.apps import PulseDoppler
from repro.experiments import (
    CACHE_ENV,
    SweepCache,
    cell_digest,
    configure_cache,
    resolve_cache,
    run_cells,
    run_once,
)
from repro.experiments.cache import DEFAULT_CACHE_DIR, UncacheableCell
from repro.experiments.common import trial_seeds
from repro.metrics import assert_identical, diff_results
from repro.platforms import zcu102
from repro.runtime import RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec
from test_parallel_sweeps import GRID_CELLS, SERVE_CELLS, rate_trial_grid, serve_grid


def _workload(batch: int = 2, count: int = 1) -> WorkloadSpec:
    return WorkloadSpec(
        name="cache-test",
        entries=(WorkloadEntry(PulseDoppler(batch=batch), count),),
    )


def _cell(**overrides) -> tuple:
    base = {
        "platform": zcu102(n_cpu=2, n_fft=1),
        "workload": _workload(),
        "mode": "api",
        "rate": 200.0,
        "scheduler": "rr",
        "seed": 0,
        "execute": False,
        "config": None,
    }
    base.update(overrides)
    return (
        base["platform"], base["workload"], base["mode"], base["rate"],
        base["scheduler"], base["seed"], base["execute"], base["config"],
    )


# --------------------------------------------------------------------- #
# keying
# --------------------------------------------------------------------- #

def test_digest_is_stable():
    assert cell_digest(_cell())[0] == cell_digest(_cell())[0]


@pytest.mark.parametrize("field_name,overrides", [
    ("platform", {"platform": zcu102(n_cpu=3, n_fft=1)}),
    ("platform-timing", {"platform": dataclasses.replace(
        zcu102(n_cpu=2, n_fft=1),
        timing=dataclasses.replace(zcu102(n_cpu=2, n_fft=1).timing,
                                   fabric_setup_us=19.0))}),
    ("workload", {"workload": _workload(batch=4)}),
    ("workload-count", {"workload": _workload(count=2)}),
    ("mode", {"mode": "dag"}),
    ("rate", {"rate": 250.0}),
    ("scheduler", {"scheduler": "etf"}),
    ("seed", {"seed": 1}),
    ("execute", {"execute": True}),
    ("config", {"config": RuntimeConfig(scheduler="rr", sched_period_s=0.002)}),
])
def test_digest_sensitive_to_every_cell_field(field_name, overrides):
    """Any observable difference in any cell component changes the digest."""
    assert cell_digest(_cell())[0] != cell_digest(_cell(**overrides))[0], (
        f"digest ignored a change in {field_name}"
    )


def test_ndarray_app_state_is_cacheable_and_keyed():
    """Apps holding precomputed arrays (LaneDetection's Gaussian/Sobel
    kernels) must key on the array *contents* — fig10's run_trials cells
    were silently uncacheable before ndarray support."""
    from repro.apps import LaneDetection

    def ld_workload(height: int) -> WorkloadSpec:
        return WorkloadSpec(
            name="ld",
            entries=(WorkloadEntry(LaneDetection(height=height, width=64), 1),),
        )

    base = cell_digest(_cell(workload=ld_workload(64)))[0]
    assert base == cell_digest(_cell(workload=ld_workload(64)))[0]
    assert base != cell_digest(_cell(workload=ld_workload(128)))[0]
    # perturb one kernel coefficient: same shapes, different contents
    spec = ld_workload(64)
    spec.entries[0].app.kernels["blur"] = (
        spec.entries[0].app.kernels["blur"] * 1.001
    )
    assert base != cell_digest(_cell(workload=spec))[0]


def test_memo_state_does_not_perturb_digest():
    """Running a cell derives state from it - the app's parsed DagProgram and
    its node template; the cost-table rows and DAG plans die with the
    runtime - and all of it sits outside the key: the digest is untouched.
    (TimingModel carries no memo any more; see test_timing.py.)"""
    cell = _cell(mode="dag")
    before = cell_digest(cell)[0]
    run_once(*cell[:5], seed=0)
    program = cell[1].entries[0].app._dag_cache[1]
    assert program._template  # the derived state actually filled
    assert cell_digest(cell)[0] == before


def test_uncacheable_cell_raises_and_counts(tmp_path):
    cell = _cell(config=lambda: None)  # a callable cannot be keyed
    with pytest.raises(UncacheableCell):
        cell_digest(cell)
    cache = SweepCache(tmp_path)
    assert cache.get(cell) is None
    assert cache.stats.uncacheable == 1 and cache.stats.misses == 1
    result = run_once(*_cell()[:5], seed=0)
    assert cache.put(cell, result) is False
    assert cache.stats.uncacheable == 2 and cache.stats.stores == 0


# --------------------------------------------------------------------- #
# hit / miss / store round trip
# --------------------------------------------------------------------- #

def test_round_trip_hit_is_bit_identical(tmp_path):
    cache = SweepCache(tmp_path)
    cell = _cell()
    assert cache.get(cell) is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    result = run_once(*cell[:5], seed=0, execute=False, config=None)
    assert cache.put(cell, result) is True
    assert cache.stats.stores == 1
    loaded = cache.get(cell)
    # field-by-field diff (repro.metrics): names any drifted field
    assert diff_results(loaded, result) == []
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_telemetry_results_stay_uncached(tmp_path):
    cache = SweepCache(tmp_path)
    cell = _cell()
    result = run_once(*cell[:5], seed=0)
    tainted = dataclasses.replace(result, telemetry={"metrics": {}})
    assert cache.put(cell, tainted) is False
    assert cache.stats.uncacheable == 1
    assert cache.get(cell) is None


def test_corrupted_entry_recovers_to_miss(tmp_path):
    cache = SweepCache(tmp_path)
    cell = _cell()
    result = run_once(*cell[:5], seed=0)
    cache.put(cell, result)
    [entry] = list(tmp_path.glob("*.json"))
    entry.write_text("{ not json", encoding="utf-8")
    assert cache.get(cell) is None
    assert cache.stats.corrupt == 1
    assert not entry.exists(), "corrupted entry should be deleted"
    # the slot is usable again
    assert cache.put(cell, result) is True
    assert cache.get(cell) == result


def test_mismatched_key_degrades_to_miss(tmp_path):
    """A digest collision (or encoder bug) can never surface wrong data:
    the stored canonical key is re-checked on load."""
    cache = SweepCache(tmp_path)
    cell = _cell()
    cache.put(cell, run_once(*cell[:5], seed=0))
    [entry] = list(tmp_path.glob("*.json"))
    payload = json.loads(entry.read_text(encoding="utf-8"))
    payload["key"] = ["something", "else"]
    entry.write_text(json.dumps(payload), encoding="utf-8")
    assert cache.get(cell) is None
    assert cache.stats.corrupt == 1


# --------------------------------------------------------------------- #
# sweep integration
# --------------------------------------------------------------------- #

def _grid(platform, workload, rates, trials=2) -> list[tuple]:
    """The (rate, trial) cells of one api/rr sweep, rate-major."""
    return [
        (platform, workload, "api", rate, "rr", seed, False, None)
        for rate in rates
        for seed in trial_seeds(trials)
    ]


def test_warm_sweep_re_simulates_nothing_and_matches_serial(tmp_path):
    cells = _grid(zcu102(n_cpu=2, n_fft=1), _workload(), [100.0, 300.0])
    cold_cache = SweepCache(tmp_path)
    cold = run_cells(cells, cache=cold_cache)
    assert cold_cache.stats.misses == 4 and cold_cache.stats.stores == 4
    warm_cache = SweepCache(tmp_path)
    warm = run_cells(cells, cache=warm_cache)
    assert warm_cache.stats.hits == 4
    assert warm_cache.stats.misses == 0, "warm sweep re-simulated cells"
    uncached = run_cells(cells, cache=False)
    assert warm == cold == uncached
    assert repr(warm) == repr(uncached)


def test_grid_growth_costs_only_new_cells(tmp_path):
    """Adding a rate point to a cached grid only simulates the new column."""
    platform = zcu102(n_cpu=2, n_fft=1)
    workload = _workload()
    run_cells(_grid(platform, workload, [100.0]), cache=SweepCache(tmp_path))
    grown_cache = SweepCache(tmp_path)
    run_cells(_grid(platform, workload, [100.0, 300.0]), cache=grown_cache)
    assert grown_cache.stats.hits == 2 and grown_cache.stats.misses == 2


def test_cached_parallel_sweep_identical_to_cold_serial(tmp_path):
    """Cache + process pool together still reproduce the serial bits."""
    cells = _grid(zcu102(n_cpu=2, n_fft=1), _workload(), [100.0, 300.0])
    serial = run_cells(cells, n_jobs=1, cache=False)
    cached_parallel = run_cells(cells, n_jobs=3, cache=SweepCache(tmp_path))
    assert cached_parallel == serial
    # second parallel pass: all hits, still identical
    warm_cache = SweepCache(tmp_path)
    warm = run_cells(cells, n_jobs=3, cache=warm_cache)
    assert warm_cache.stats.misses == 0
    assert warm == serial


def _cache_passes(grid, tmp_path) -> None:
    """*grid* uncached, then through a cold and a warm cache over one
    directory: all three bit-identical, the cold pass missing and storing
    every cell, the warm pass hitting every cell and simulating none."""
    uncached = grid()
    n = len(uncached)
    cold, warm = SweepCache(tmp_path), SweepCache(tmp_path)
    assert_identical([uncached, grid(cache=cold), grid(cache=warm)],
                     ["uncached", "cold", "warm"])
    assert cold.stats.misses == cold.stats.stores == n, cold.stats
    assert warm.stats.hits == n and warm.stats.misses == 0, warm.stats


@pytest.mark.parametrize("platform,mode,scheduler", GRID_CELLS)
def test_rate_trial_grid_cold_and_warm_cache_are_bit_identical(
        platform, mode, scheduler, tmp_path):
    _cache_passes(functools.partial(rate_trial_grid, platform, mode, scheduler),
                  tmp_path)


@pytest.mark.parametrize("arrival,policy", SERVE_CELLS)
def test_serve_cell_cold_and_warm_cache_are_bit_identical(arrival, policy, tmp_path):
    _cache_passes(functools.partial(serve_grid, arrival, policy), tmp_path)


# --------------------------------------------------------------------- #
# resolution knobs
# --------------------------------------------------------------------- #

def test_resolve_cache_env_off_values(monkeypatch):
    for value in ("", "0", "false", "off", "no"):
        monkeypatch.setenv(CACHE_ENV, value)
        assert resolve_cache(None) is None


def test_resolve_cache_env_on_uses_default_dir(monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "1")
    cache = resolve_cache(None)
    assert isinstance(cache, SweepCache)
    assert str(cache.root) == DEFAULT_CACHE_DIR


def test_resolve_cache_env_path(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "mycache"))
    cache = resolve_cache(None)
    assert isinstance(cache, SweepCache)
    assert cache.root == tmp_path / "mycache"


def test_configure_cache_override_beats_env(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, "1")
    pinned = SweepCache(tmp_path)
    previous = configure_cache(pinned)
    try:
        assert resolve_cache(None) is pinned
        configure_cache(False)
        assert resolve_cache(None) is None
    finally:
        configure_cache(previous)


def test_explicit_argument_beats_override(tmp_path):
    mine = SweepCache(tmp_path)
    previous = configure_cache(False)
    try:
        assert resolve_cache(mine) is mine
        assert resolve_cache(False) is None
    finally:
        configure_cache(previous)


def test_resolve_cache_rejects_junk():
    with pytest.raises(TypeError, match="SweepCache"):
        resolve_cache("yes-please")
