"""Microbenchmarks of the scheduler decision loop itself.

The paper's headline mechanism (Fig. 7) is scheduler decision cost at
realistic queue depths, and full figure sweeps spend most of their
wall-clock inside ``Scheduler.schedule``.  These benchmarks time single
scheduling rounds over deep ready queues through the runtime's
:class:`~repro.platforms.timing.CostTable` - the exact configuration the
daemon uses - and assert against the recorded trajectory in
``baseline.json``: the ETF round (interned rows + equivalence-class pair
scan) must stay at least 3x the recorded pre-table rate (per-task dict
lookups and set rebuilds).  Set
``REPRO_PERF_CHECK=0`` to skip the ratio check on slower hosts.
"""

from __future__ import annotations

import numpy as np

from repro.platforms import zcu102
from repro.platforms.timing import CostTable
from repro.runtime.task import Task
from repro.sched import SCHEDULERS

#: ready-queue shapes drawn from the paper workloads (radar + comms mix):
#: a handful of distinct (api, params) rows, repeated across many tasks -
#: exactly the regime the cost table interns.
_SHAPES = (
    ("fft", {"n": 128, "batch": 1}),
    ("fft", {"n": 256, "batch": 1}),
    ("ifft", {"n": 128, "batch": 1}),
    ("ifft", {"n": 256, "batch": 1}),
    ("zip", {"n": 256}),
    ("cpu_op", {"work_1ghz": 1.28e-4}),
)


def _ready_batch(depth: int, seed: int = 0) -> list[Task]:
    """A deep ready queue with a deterministic mixture of kernel shapes."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(_SHAPES), size=depth)
    return [
        Task(api=_SHAPES[k][0], params=_SHAPES[k][1], app_id=i)
        for i, k in enumerate(picks)
    ]


def _round_harness(depth: int, scheduler_name: str):
    """(run callable, events per call) timing one full scheduling round."""
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    table = CostTable(platform.timing, platform.pes)
    scheduler = SCHEDULERS.create(scheduler_name)
    ready = _ready_batch(depth)
    pes = platform.pes

    def run():
        for pe in pes:
            pe.expected_free = 0.0
        return scheduler.schedule(ready, pes, 0.0, table)

    return run, depth


def test_etf_round_throughput(benchmark, check_throughput):
    """One ETF round at queue depth 256 (the paper's DAG-mode regime)."""
    run, depth = _round_harness(256, "etf")
    assignments = benchmark(run)
    assert len(assignments) == depth
    check_throughput("etf_round_throughput", benchmark, depth)


def test_etf_round_depth128(benchmark, check_throughput):
    """The acceptance depth: ETF rounds at queue depth 128."""
    run, depth = _round_harness(128, "etf")
    assignments = benchmark(run)
    assert len(assignments) == depth
    check_throughput("etf_round_throughput", benchmark, depth)


def test_eft_round_throughput(benchmark):
    """EFT (linear heuristic) round at depth 256 - no baseline entry, but
    pins that the shared greedy path stays fast."""
    run, depth = _round_harness(256, "eft")
    assignments = benchmark(run)
    assert len(assignments) == depth
