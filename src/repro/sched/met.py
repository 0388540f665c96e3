"""Minimum Execution Time: CEDR's simplest heterogeneity-aware heuristic.

MET maps each task to the PE *type* with the smallest execution estimate,
ignoring queue state entirely (Braun et al.'s classic baseline; part of the
scheduler repertoire of the CEDR ecosystem's HEFT_RT paper [12]).  Ties and
same-type replicas are broken round-robin so, e.g., eight FFT accelerators
all receive work.  Its pathology - piling every task of one API onto the
"fastest" PE class regardless of backlog - makes it a useful contrast
series for the Fig. 10 ablations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import (
    EstimateFn,
    Scheduler,
    register_scheduler,
    round_matrices,
    single_task_lane,
)

__all__ = ["MinimumExecutionTime"]


@register_scheduler
class MinimumExecutionTime(Scheduler):
    """O(PEs) per task; queue-state-blind."""

    name = "met"

    def __init__(self, cost_per_eval_us: float = 0.12) -> None:
        self.cost_per_eval_us = cost_per_eval_us
        self._cursor: dict[float, int] = {}

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        if not ready:
            return []
        lane = single_task_lane(ready, pes, estimate)
        if lane is not None:
            task, row, cols = lane
            best = min([row[j] for j in cols])
            band = best * (1 + 1e-12)
            j = self._rotate(best, [j for j in cols if row[j] <= band])
            pe = pes[j]
            pe.expected_free = max(pe.expected_free, now) + row[j]
            return [(task, pe)]
        _, est = round_matrices(ready, pes, estimate)
        assignments = []
        for i, task in enumerate(ready):
            row = est[i]
            best = float(row.min())
            # excluded cells are +inf, so the epsilon tie-band only ever
            # matches candidate PEs, in PE order like the old list filter
            j = int(self._rotate(best, np.flatnonzero(row <= best * (1 + 1e-12))))
            pe = pes[j]
            assignments.append((task, pe))
            pe.expected_free = max(pe.expected_free, now) + float(row[j])
        return assignments

    def _rotate(self, best: float, fastest) -> int:
        """Round-robin over the PEs tied at the estimate *best*."""
        cursor = self._cursor.get(best, 0)
        self._cursor[best] = cursor + 1
        return fastest[cursor % len(fastest)]

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return self.cost_per_eval_us * 1e-6 * n_ready * n_pes
