"""Random mapping: the statistical floor for scheduler comparisons.

Assigns every ready task to a uniformly random supporting PE.  The CEDR
ecosystem's scheduler studies use random mapping as the no-information
baseline; here it doubles as a stress generator for runtime tests (every
legal assignment path gets exercised eventually) and as the floor series in
scheduler-comparison ablations.

The stream is seeded per instance, so runs remain reproducible: the same
(seed, workload) pair yields the same "random" schedule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import EstimateFn, Scheduler, live_columns, register_scheduler, round_rows

__all__ = ["RandomScheduler"]


@register_scheduler
class RandomScheduler(Scheduler):
    """O(1) decisions from a seeded RNG."""

    name = "random"

    def __init__(self, seed: int = 0, cost_per_task_us: float = 0.15) -> None:
        self.rng = np.random.default_rng(seed)
        self.cost_per_task_us = cost_per_task_us

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        row_of, degraded = round_rows(pes, estimate)
        assignments = []
        for task in ready:
            est, cols = row_of(task)
            if degraded or task.banned_pes or not cols:
                cols = live_columns(task, cols, pes)
            j = cols[int(self.rng.integers(len(cols)))]
            pe = pes[j]
            pe.expected_free = max(pe.expected_free, now) + est[j]
            assignments.append((task, pe))
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return self.cost_per_task_us * 1e-6 * n_ready
