"""HEFT_RT: the runtime variant of Heterogeneous Earliest Finish Time.

Classic HEFT is a static list scheduler: rank tasks by upward rank (critical
path to exit using mean execution costs), then assign in rank order with an
insertion-based EFT policy.  The runtime variant used by CEDR (Mack et al.,
TPDS 2022 [12]) applies the same recipe to whatever happens to be in the
ready queue at each scheduling round: sort the queue by precomputed rank,
then greedy-EFT each task in that order.  Per round it costs a sort plus a
linear scan - far cheaper than ETF's quadratic pair search while keeping
most of its mapping quality, matching the paper's finding that HEFT_RT
"narrowly achieves the best application execution time" in Fig. 10(a).

Task ranks are computed when applications are parsed/launched: upward ranks
over the DAG in DAG mode, mean execution estimates for API-mode calls (an
API call has no visible successors at enqueue time, so its rank reduces to
its expected cost - the natural degeneration of upward rank).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Sequence

from .base import EstimateFn, Scheduler, greedy_earliest_finish, register_scheduler

__all__ = ["HeftRT", "upward_ranks"]


def upward_ranks(tasks, mean_cost, successors=attrgetter("successors")) -> dict:
    """Upward rank of every task in a DAG: mean cost + max successor rank.

    ``tasks`` is any iterable of :class:`~repro.runtime.task.Task` wired via
    ``successors``; ``mean_cost(task)`` returns the task's mean execution
    estimate over supporting PEs.  Returns {task: rank}.  Communication
    costs are zero in CEDR's shared-memory model.  Other hashable nodes
    (a program's node indices) work with a matching ``successors(node)``.
    """
    ranks: dict = {}

    def resolve(task) -> bool:
        succs = successors(task)
        try:
            top = max([ranks[s] for s in succs]) if succs else 0.0
        except KeyError:  # a successor is not ranked yet
            return False
        ranks[task] = mean_cost(task) + top
        return True

    # One reverse pass resolves everything when ``tasks`` is topologically
    # ordered (what ``DagProgram.instantiate`` returns).  Whatever it leaves
    # goes to the fixpoint sweep: repeatedly resolve tasks whose successors
    # are all ranked.  A rank is ``mean + max(successor ranks)`` whatever
    # the visiting order, so both give the same floats.  DAG validity is
    # the caller's responsibility.
    pending = [task for task in reversed(list(tasks)) if not resolve(task)]
    while pending:
        left = [task for task in pending if not resolve(task)]
        if len(left) == len(pending):
            raise ValueError("cycle detected while computing upward ranks")
        pending = left
    return ranks


@register_scheduler
class HeftRT(Scheduler):
    """Rank-sorted greedy EFT; O(q log q + q x PEs) per round."""

    name = "heft_rt"

    def __init__(
        self,
        cost_per_sort_item_us: float = 0.06,
        cost_per_eval_us: float = 0.14,
    ) -> None:
        self.cost_per_sort_item_us = cost_per_sort_item_us
        self.cost_per_eval_us = cost_per_eval_us

    def schedule(self, ready, pes: Sequence, now: float, estimate: EstimateFn):
        if len(ready) > 1:
            ready = sorted(ready, key=lambda t: getattr(t, "rank", 0.0), reverse=True)
        return greedy_earliest_finish(ready, pes, now, estimate)

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        if n_ready == 0:
            return 0.0
        sort = self.cost_per_sort_item_us * 1e-6 * n_ready * max(1.0, math.log2(n_ready))
        scan = self.cost_per_eval_us * 1e-6 * n_ready * n_pes
        return sort + scan
