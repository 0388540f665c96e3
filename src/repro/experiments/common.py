"""Shared experiment machinery: single runs, trials, and grids of cells.

Every figure funnels through :func:`run_once`: build the platform, start a
CEDR runtime with the cell's :class:`~repro.runtime.RuntimeConfig` (its
scheduler, kernel execution and audit), submit the workload in the requested
mode at the requested injection rate, run the simulation to completion, and
extract a :class:`~repro.metrics.RunResult`.  A figure is a list of such
cells (:mod:`repro.experiments.figures`) handed to :func:`run_cells`.

Figure sweeps run timing-only (``execute_kernels=False``): kernels are not
numerically evaluated, which changes nothing about queueing or contention
(all costs come from the timing model) but keeps full sweeps fast.
Integration tests run the same paths with ``execute_kernels=True`` to pin
the functional behaviour.

Parallel sweeps
---------------

A run is a pure function of its cell ``(platform, workload, mode, rate,
seed, config)``: every random stream is a ``child_rng`` of ``seed``,
and no state leaks between runs.  :func:`run_cells` (and :func:`run_trials` on
top of it) therefore accept ``n_jobs`` and shard cells across a
:class:`~concurrent.futures.ProcessPoolExecutor`, one cell per pool task -
results are collected in grid order, so the output is **bit-identical** to
the serial path (a property the determinism tests pin).  It is the one cell
runner: figures, the serve tier and the corpus (``run_corpus``) all go
through it.  ``n_jobs=None`` reads the
``REPRO_JOBS`` environment variable (default 1, i.e. serial); ``n_jobs<=-1``
means one worker per CPU.  This is what makes the paper's full 29-rate x
25-trial grids tractable - see EXPERIMENTS.md.

Incremental sweeps
------------------

The same purity that makes sweeps parallelizable makes them cacheable:
when a :class:`~repro.experiments.cache.SweepCache` is active, every grid
cell is looked up by content digest before any work is sharded to the
pool, and only the missing cells are simulated (then stored).  Enable it
with ``REPRO_CACHE=1`` (or a directory path), the ``--cache``/
``--cache-dir`` CLI flags, or by passing ``cache=SweepCache(...)`` to
:func:`run_cells`/:func:`run_trials`.  Hits return the bit-identical
``RunResult`` the simulation would have produced, so cached, parallel,
and serial sweeps all agree byte-for-byte.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Optional, Union

from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCodec, SweepCache
from repro.metrics import RunResult
from repro.platforms import PlatformConfig
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.serve.arrival import SEED_FREE_ARRIVALS
from repro.workload import WorkloadSpec

__all__ = [
    "run_to_completion",
    "run_once",
    "run_cells",
    "run_trials",
    "seed_invariant",
    "resolve_jobs",
    "configure_cache",
    "resolve_cache",
]

#: environment variable holding the default worker-process count
JOBS_ENV = "REPRO_JOBS"

#: environment variable enabling the sweep cache ("1"/"true" -> default
#: directory, any other non-empty value -> that directory, ""/"0" -> off)
CACHE_ENV = "REPRO_CACHE"

#: ``cache`` argument type shared by the sweep entry points: ``None`` defers
#: to :func:`configure_cache` / ``REPRO_CACHE``, ``False`` forces caching off,
#: a :class:`SweepCache` is used as-is.
CacheArg = Union[None, bool, SweepCache]

#: process-wide cache override installed by :func:`configure_cache`
#: (``None`` = defer to the environment, ``False`` = force off)
_cache_override: CacheArg = None


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Resolve an ``n_jobs`` argument to a concrete worker count.

    ``None`` defers to the ``REPRO_JOBS`` environment variable (absent or
    empty means serial); any value <= -1 means one worker per CPU.  Other
    non-positive counts (``0`` in particular) are rejected: silently
    coercing them to serial used to mask sweep-driver bugs.
    """
    if n_jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        try:
            n_jobs = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer worker count, got {raw!r}"
            ) from None
    if n_jobs <= -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(
            f"n_jobs must be >= 1 or <= -1 (all cores), got {n_jobs}"
        )
    return n_jobs


def configure_cache(cache: CacheArg) -> CacheArg:
    """Install a process-wide sweep-cache override; returns the previous one.

    ``None`` restores the default (defer to ``REPRO_CACHE``); ``False``
    forces caching off regardless of the environment; a
    :class:`SweepCache` instance is used by every sweep that does not pass
    its own ``cache`` argument (this is how the CLI threads one handle -
    and one set of hit/miss counters - through a whole figure).
    """
    global _cache_override
    previous = _cache_override
    _cache_override = cache
    return previous


def resolve_cache(cache: CacheArg = None) -> Optional[SweepCache]:
    """Resolve a ``cache`` argument to a live :class:`SweepCache` or None.

    Precedence: an explicit argument beats :func:`configure_cache`, which
    beats the ``REPRO_CACHE`` environment variable (""/"0"/"false"/"off" ->
    disabled, "1"/"true"/"on" -> the default ``.repro-cache/`` directory,
    anything else -> that directory).
    """
    if cache is False:
        return None
    if isinstance(cache, SweepCache):
        return cache
    if cache is not None:
        raise TypeError(
            f"cache must be None, False, or a SweepCache, got {cache!r}"
        )
    if _cache_override is not None:
        return _cache_override if isinstance(_cache_override, SweepCache) else None
    raw = os.environ.get(CACHE_ENV, "").strip()
    if not raw or raw.lower() in ("0", "false", "off", "no"):
        return None
    if raw.lower() in ("1", "true", "on", "yes"):
        return SweepCache(DEFAULT_CACHE_DIR)
    return SweepCache(raw)


def run_to_completion(
    platform: PlatformConfig,
    workload: WorkloadSpec,
    mode: str,
    rate_mbps: float,
    seed: int,
    config: RuntimeConfig,
    *,
    attribute_host_time: bool = False,
) -> CedrRuntime:
    """Build, submit and drain one batch run; returns the finished runtime.

    The one spelling of the batch submit loop.  :func:`run_once` reduces
    the runtime to its :class:`RunResult`; ``repro run`` keeps the live
    object because its trace/Gantt/logbook/metrics/perf outputs read it.
    ``attribute_host_time`` arms the per-role host-time split, which has to
    happen before ``start()``.  ``config`` names the scheduler, kernel
    execution and audit; nothing else does.
    """
    runtime = CedrRuntime(platform.build(seed=seed), config)
    if attribute_host_time:
        runtime.counters.attribute_host_time()
    runtime.start()
    for app, arrival in workload.instantiate(
        mode, rate_mbps, seed, timing_only=not config.execute_kernels
    ):
        runtime.submit(app, at=arrival)
    runtime.seal()
    runtime.run()
    return runtime


def run_once(
    platform: PlatformConfig,
    workload: WorkloadSpec,
    mode: str,
    rate_mbps: float,
    seed: int,
    config: RuntimeConfig,
) -> RunResult:
    """One complete simulated run; returns its measurements."""
    return RunResult.from_runtime(
        run_to_completion(platform, workload, mode, rate_mbps, seed, config))


def _run_cell(cell: tuple) -> RunResult:
    """Picklable worker entry: one ``(platform, workload, mode, rate, seed,
    config)`` grid cell - exactly :func:`run_once`'s arguments.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can ship it
    to worker processes under any start method.
    """
    return run_once(*cell)


def seed_invariant(workload: WorkloadSpec, config: RuntimeConfig) -> bool:
    """Whether a batch cell with these parts gives the same result at every seed.

    A seed reaches a batch run through four ``child_rng`` streams: arrivals,
    payloads, cost noise and unpinned faults (docs/INTERNALS.md
    "Determinism"; ``tests/experiments/test_seed_invariant.py`` pins them).
    A timing-only cell with ``SEED_FREE_ARRIVALS``, no cost noise and faults
    off or pinned draws from none of them.
    """
    if config.execute_kernels or workload.arrival_process not in SEED_FREE_ARRIVALS:
        return False
    faults = config.faults
    return config.cost_noise_sigma == 0 and (
        faults is None or faults.rate == 0 or faults.seed is not None
    )


def _stand_ins(cells: list[tuple]) -> list[int]:
    """For each batch cell, the index of the cell whose simulation it takes:
    its own, or the lowest-seed seed-invariant cell equal to it but for the
    seed.  Cells are bucketed on their hashable parts and the rest compared
    by ``==`` (platforms and configs hold dicts, so a cell does not hash)."""
    stand_in = list(range(len(cells)))
    buckets: dict[tuple, list[int]] = {}
    for i in sorted(stand_in, key=lambda i: cells[i][4]):
        cell = cells[i]
        if seed_invariant(cell[1], cell[5]):
            rest, bucket = cell[:4] + cell[5:], buckets.setdefault(cell[2:4], [])
            stand_in[i] = next((j for j in bucket if cells[j][:4] + cells[j][5:] == rest), i)
            if stand_in[i] == i:
                bucket.append(i)
    return stand_in


def run_cells(
    cells: list[tuple],
    n_jobs: Optional[int] = None,
    cache: CacheArg = None,
    *,
    worker: Callable[[tuple], Any] = _run_cell,
    codec: Optional[ResultCodec] = None,
) -> list:
    """Run grid cells, serially or across a process pool, in grid order.

    The one cached, sharded cell runner: batch sweeps use the defaults,
    the serve tier passes its own picklable ``worker`` and cache ``codec``,
    and the corpus its outcome worker with ``cache=False``.
    ``n_jobs`` / ``cache`` resolve as in :func:`resolve_jobs` /
    :func:`resolve_cache`.  With a cache, hits are satisfied in the parent
    before any sharding and only the missing cells reach the pool; the
    final list is reassembled in grid order either way, so caching never
    perturbs output ordering (or bits - a hit is the stored result,
    exactly).  Under the batch worker, the :func:`seed_invariant` cells
    to simulate that differ only in their seed are simulated once, at the
    lowest seed; each missing cell is still stored under its own key.
    """
    n_jobs = resolve_jobs(n_jobs)
    cache = resolve_cache(cache)
    if cache is None:
        return _simulate_unique(cells, n_jobs, worker)
    # each cell is keyed exactly once: get and put share the probe, so a
    # digest can never drift between lookup and store within one sweep
    probes = [cache.probe(cell) for cell in cells]
    results = [
        cache.get(cell, probe, codec=codec) for cell, probe in zip(cells, probes)
    ]
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        fresh = _simulate_unique([cells[i] for i in missing], n_jobs, worker)
        for i, result in zip(missing, fresh):
            cache.put(cells[i], result, probes[i], codec=codec)
            results[i] = result
    return results


def _simulate_unique(cells: list[tuple], n_jobs: int, worker) -> list:
    """:func:`_simulate_cells` over each group of seed-invariant batch cells
    once; every other slot of a group gets its own unpickled copy - the
    object a pool worker would have returned - so mutating one result's
    dicts never reaches a sibling."""
    if worker is not _run_cell:
        return _simulate_cells(cells, n_jobs, worker)
    stand_in = _stand_ins(cells)
    unique = sorted(set(stand_in))
    fresh = dict(zip(unique, _simulate_cells([cells[i] for i in unique], n_jobs, worker)))
    shared = {j for i, j in enumerate(stand_in) if i != j}
    blobs = {j: pickle.dumps(fresh[j], pickle.HIGHEST_PROTOCOL) for j in shared}
    return [fresh[j] if i == j else pickle.loads(blobs[j]) for i, j in enumerate(stand_in)]


def _simulate_cells(cells: list[tuple], n_jobs: int, worker) -> list:
    """The raw (cache-free) execution path behind :func:`run_cells`.

    The executor path uses ``map`` so results come back in submission order
    regardless of completion order - determinism does not depend on worker
    scheduling.  One cell goes per pool task: cell costs differ by orders of
    magnitude (a corpus grid most of all), and a chunk of several cells can
    leave one worker holding the slow ones while the others idle.
    """
    if n_jobs <= 1 or len(cells) <= 1:
        return [worker(c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_jobs, len(cells))) as pool:
        return list(pool.map(worker, cells, chunksize=1))


def trial_seeds(trials: int, base_seed: int = 0) -> list[int]:
    """The seed grid shared by the serial and parallel paths."""
    return [base_seed + 1000 * t for t in range(trials)]


def run_trials(
    platform: PlatformConfig,
    workload: WorkloadSpec,
    mode: str,
    rate_mbps: float,
    config: RuntimeConfig,
    trials: int = 3,
    base_seed: int = 0,
    n_jobs: Optional[int] = None,
    cache: CacheArg = None,
) -> list[RunResult]:
    """Repeat :func:`run_once` over ``trials`` seeds (paper: 25 trials).

    ``n_jobs`` > 1 fans the trials out over worker processes; results are
    returned in seed order either way.  ``cache`` enables the sweep cache
    (see :func:`resolve_cache` for the ``None``/``False``/instance forms).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    cells = [
        (platform, workload, mode, rate_mbps, seed, config)
        for seed in trial_seeds(trials, base_seed)
    ]
    return run_cells(cells, n_jobs, cache)
