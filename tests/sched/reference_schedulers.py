"""Reference heuristics: the per-task implementations the schedulers began as.

Test-side only.  Each class is the heuristic as it was written before the
cost table existed: a :func:`compatible` list filter per task, one
``estimate(task, pe)`` call per candidate cell, and for ETF a flat argmin
over the full ``(task, PE)`` finish matrix.  They have their own loops and
share no code with ``src/repro/sched`` - which is the point: production
prices a round from interned row tuples, these price it cell by cell, and
the parity tests require identical placements, ``expected_free`` bits and
cursor state.

When handed the runtime's :class:`~repro.platforms.timing.CostTable` (the
whole-run checks register a reference class in ``SCHEDULERS`` and run it
through the daemon), a reference reads none of its rows: :func:`_per_cell`
swaps it for ``TimingModel.estimate`` on the table's timing model.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.sched import SchedulerError

__all__ = ["REFERENCE", "compatible", "per_cell"]


def compatible(task, pes: Sequence) -> list:
    """PEs able to execute *task* right now; raises if none exist.

    Three filters compose, in order:

    * **support** - the (API, PE kind) matrix; no supporting PE at all
      is a platform-composition error;
    * **availability** - the live mask maintained by the fault
      subsystem (quarantined or dead PEs drop out); the daemon parks
      tasks with no live candidate before scheduling, so an
      all-unavailable result raising here indicates a runtime bug
      rather than a transient condition;
    * **retry bans** - PEs the task already failed on are avoided,
      *unless* that would leave no candidate (better a suspect PE than
      an unrunnable task).

    Fault-free runs have every PE available and no bans, so the result
    is exactly the support-matrix filter of old.
    """
    options = [pe for pe in pes if pe.supports(task.api)]
    if not options:
        raise SchedulerError(
            f"no PE supports API {task.api!r} (task {task.tid}); "
            "check the platform's accelerator composition"
        )
    live = [pe for pe in options if pe.available]
    if not live:
        raise SchedulerError(
            f"no live PE for API {task.api!r} (task {task.tid}); "
            "the daemon should have parked this task until a PE revives"
        )
    if task.banned_pes:
        unbanned = [pe for pe in live if pe.index not in task.banned_pes]
        if unbanned:
            return unbanned
    return live


def per_cell(timing):
    """The reference's estimate provider: the timing model, cell by cell."""
    return lambda task, pe: timing.estimate(task.api, task.params, pe)


def _per_cell(estimate):
    """*estimate* as a per-cell callable that reads no table row."""
    timing = getattr(estimate, "timing", None)
    return estimate if timing is None else per_cell(timing)


def _earliest_finish(ordered, pes, now, estimate):
    assignments = []
    for task in ordered:
        best_pe = None
        best_finish = float("inf")
        for pe in compatible(task, pes):
            finish = max(pe.expected_free, now) + estimate(task, pe)
            if finish < best_finish:
                best_finish = finish
                best_pe = pe
        assignments.append((task, best_pe))
        best_pe.expected_free = best_finish
    return assignments


class ReferenceRoundRobin:
    name = "rr"

    def __init__(self) -> None:
        self._cursor = 0

    def schedule(self, ready, pes, now, estimate):
        estimate = _per_cell(estimate)
        assignments = []
        n = len(pes)
        for task in ready:
            allowed = {pe.index for pe in compatible(task, pes)}
            for _ in range(n):
                pe = pes[self._cursor % n]
                self._cursor += 1
                if pe.index in allowed:
                    break
            assignments.append((task, pe))
            pe.expected_free = max(pe.expected_free, now) + estimate(task, pe)
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return 0.18 * 1e-6 * n_ready


class ReferenceEFT:
    name = "eft"

    def schedule(self, ready, pes, now, estimate):
        return _earliest_finish(ready, pes, now, _per_cell(estimate))

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return 0.14 * 1e-6 * n_ready * n_pes


class ReferenceHeftRT:
    name = "heft_rt"

    def schedule(self, ready, pes, now, estimate):
        ordered = sorted(ready, key=lambda t: getattr(t, "rank", 0.0), reverse=True)
        return _earliest_finish(ordered, pes, now, _per_cell(estimate))

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        if n_ready == 0:
            return 0.0
        sort = 0.06 * 1e-6 * n_ready * max(1.0, math.log2(n_ready))
        scan = 0.14 * 1e-6 * n_ready * n_pes
        return sort + scan


class ReferenceETF:
    """Flat argmin over the whole finish matrix, one commit at a time."""

    name = "etf"

    def schedule(self, ready, pes, now, estimate):
        estimate = _per_cell(estimate)
        n, p = len(ready), len(pes)
        if n == 0:
            return []
        est = np.empty((n, p))
        for i, task in enumerate(ready):
            allowed = {pe.index for pe in compatible(task, pes)}
            for j, pe in enumerate(pes):
                est[i, j] = estimate(task, pe) if pe.index in allowed else np.inf
        free = np.array([max(pe.expected_free, now) for pe in pes])
        finish = free[None, :] + est  # (n, p); committed rows become +inf
        assignments = []
        for _ in range(n):
            i, j = divmod(int(np.argmin(finish)), p)
            best = finish[i, j]
            free[j] = best
            assignments.append((ready[i], pes[j]))
            pes[j].expected_free = float(best)
            est[i, :] = np.inf
            finish[i, :] = np.inf
            finish[:, j] = free[j] + est[:, j]  # column backlog grew
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return 0.09 * 1e-6 * (n_ready * (n_ready + 1) / 2 * n_pes)


class ReferenceMET:
    name = "met"

    def __init__(self) -> None:
        self._cursor: dict[float, int] = {}

    def schedule(self, ready, pes, now, estimate):
        estimate = _per_cell(estimate)
        assignments = []
        for task in ready:
            candidates = compatible(task, pes)
            best = min(estimate(task, pe) for pe in candidates)
            fastest = [pe for pe in candidates if estimate(task, pe) <= best * (1 + 1e-12)]
            cursor = self._cursor.get(best, 0)
            pe = fastest[cursor % len(fastest)]
            self._cursor[best] = cursor + 1
            assignments.append((task, pe))
            pe.expected_free = max(pe.expected_free, now) + estimate(task, pe)
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return 0.12 * 1e-6 * n_ready * n_pes


class ReferenceRandom:
    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    def schedule(self, ready, pes, now, estimate):
        estimate = _per_cell(estimate)
        assignments = []
        for task in ready:
            candidates = compatible(task, pes)
            pe = candidates[int(self.rng.integers(len(candidates)))]
            assignments.append((task, pe))
            pe.expected_free = max(pe.expected_free, now) + estimate(task, pe)
        return assignments

    def round_cost(self, n_ready: int, n_pes: int) -> float:
        return 0.15 * 1e-6 * n_ready


#: registered scheduler name -> its reference class
REFERENCE = {
    cls.name: cls
    for cls in (
        ReferenceRoundRobin,
        ReferenceEFT,
        ReferenceHeftRT,
        ReferenceETF,
        ReferenceMET,
        ReferenceRandom,
    )
}
