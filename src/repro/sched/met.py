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

from .base import EstimateFn, Scheduler, live_columns, register_scheduler, round_rows

__all__ = ["MinimumExecutionTime"]


@register_scheduler
class MinimumExecutionTime(Scheduler):
    """O(PEs) per task; queue-state-blind."""

    name = "met"

    def __init__(self, cost_per_eval_us: float = 0.12) -> None:
        self.cost_per_eval_us = cost_per_eval_us
        self._cursor: dict[float, int] = {}

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        row_of, degraded = round_rows(pes, estimate)
        assignments = []
        for task in ready:
            est, cols = row_of(task)
            if degraded or task.banned_pes or not cols:
                cols = live_columns(task, cols, pes)
            best = min([est[j] for j in cols])
            band = best * (1 + 1e-12)
            fastest = [j for j in cols if est[j] <= band]
            # round-robin over the PEs tied at the estimate *best*
            cursor = self._cursor.get(best, 0)
            self._cursor[best] = cursor + 1
            j = fastest[cursor % len(fastest)]
            pe = pes[j]
            pe.expected_free = max(pe.expected_free, now) + est[j]
            assignments.append((task, pe))
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return self.cost_per_eval_us * 1e-6 * n_ready * n_pes
