"""Round Robin: the paper's fairness baseline.

Assigns ready tasks to supporting PEs in cyclic order with no regard for
expected finish times.  The paper observes (Figs 9-10) that RR degrades as
heterogeneity grows because it "tries to use all of the PEs equally",
maximizing the number of active accelerator-management threads competing
for scarce CPU cores - behaviour this implementation reproduces verbatim.
"""

from __future__ import annotations

from typing import Sequence

from .base import EstimateFn, Scheduler, live_columns, register_scheduler, round_rows

__all__ = ["RoundRobin"]


@register_scheduler
class RoundRobin(Scheduler):
    """O(1)-per-task cyclic assignment."""

    name = "rr"

    def __init__(self, cost_per_task_us: float = 0.18) -> None:
        self._cursor = 0
        self.cost_per_task_us = cost_per_task_us

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        n = len(pes)
        row_of, degraded = round_rows(pes, estimate)
        assignments = []
        for task in ready:
            est, cols = row_of(task)
            if degraded or task.banned_pes or not cols:
                cols = live_columns(task, cols, pes)
            # step the cursor to the next column that may run the task: a
            # ZIP task skips over FFT accelerators and everything skips
            # quarantined or dead PEs exactly like CEDR's dispatch loop
            for _ in range(n):
                j = self._cursor % n
                self._cursor += 1
                if j in cols:
                    break
            pe = pes[j]
            free = pe.expected_free
            pe.expected_free = (now if now > free else free) + est[j]  # max(), minus the call
            assignments.append((task, pe))
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return self.cost_per_task_us * 1e-6 * n_ready
