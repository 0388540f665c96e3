"""Round Robin: the paper's fairness baseline.

Assigns ready tasks to supporting PEs in cyclic order with no regard for
expected finish times.  The paper observes (Figs 9-10) that RR degrades as
heterogeneity grows because it "tries to use all of the PEs equally",
maximizing the number of active accelerator-management threads competing
for scarce CPU cores - behaviour this implementation reproduces verbatim.
"""

from __future__ import annotations

from typing import Sequence

from .base import (
    EstimateFn,
    Scheduler,
    candidate_mask,
    register_scheduler,
    single_task_lane,
)

__all__ = ["RoundRobin"]


@register_scheduler
class RoundRobin(Scheduler):
    """O(1)-per-task cyclic assignment."""

    name = "rr"

    def __init__(self, cost_per_task_us: float = 0.18) -> None:
        self._cursor = 0
        self.cost_per_task_us = cost_per_task_us

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        if not ready:
            return []
        n = len(pes)
        lane = single_task_lane(ready, pes, estimate)
        if lane is not None:
            task, est, cols = lane
            j = self._advance(cols.__contains__, n)
            pe = pes[j]
            pe.expected_free = max(pe.expected_free, now) + est[j]
            return [(task, pe)]
        # One candidate matrix per round replaces the old per-task
        # compatible() set rebuild; compatibility still composes the live
        # support matrix *and* the fault subsystem's availability/ban masks,
        # so a ZIP task skips over FFT accelerators and everything skips
        # quarantined or dead PEs exactly like CEDR's dispatch loop.
        mask = candidate_mask(ready, pes, estimate)
        assignments = []
        for i, task in enumerate(ready):
            pe = pes[self._advance(mask[i].__getitem__, n)]
            assignments.append((task, pe))
            pe.expected_free = max(pe.expected_free, now) + estimate(task, pe)
        return assignments

    def _advance(self, allowed, n: int) -> int:
        """Step the cursor until ``allowed(column)``; returns that column."""
        for _ in range(n):
            j = self._cursor % n
            self._cursor += 1
            if allowed(j):
                break
        return j

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return self.cost_per_task_us * 1e-6 * n_ready
