"""Scheduler interface and registry.

A CEDR scheduling heuristic runs inside the daemon's main loop on the
reserved runtime core.  Each *scheduling round* receives the current ready
queue and the PE list and returns an assignment for every ready task (CEDR
pushes work to per-worker queues; workers drain them in order).  Two things
matter for reproducing the paper:

* the *quality* of the mapping (which PE each task lands on), and
* the *cost* of deciding, charged to the runtime core via
  :meth:`Scheduler.round_cost`.  ETF's cost grows quadratically with the
  ready-queue length, which is the entire mechanism behind the paper's
  Fig. 7 (70 ms DAG-mode vs 1.15 ms API-mode ETF overhead).

Estimates come from the daemon as an ``estimate(task, pe)`` callable - in
production the runtime's :class:`~repro.platforms.timing.CostTable`, the
analogue of CEDR's offline profiling tables.

One lane
--------

Every in-tree heuristic prices a round the same way, at every ready depth:
one loop over ``ready`` that reads the task's *row* - ``est``, a tuple of
per-PE estimates, and ``cols``, the ascending indices of the PEs that can
run it - and picks among ``cols`` with plain float ``max`` / ``+`` / ``<``.
:func:`round_rows` is the one place rows are read: the table hands out its
interned tuples (``scalar_row``), and any other ``estimate(task, pe)``
callable is adapted to the same shape, so plug-in estimate providers and
plug-in schedulers (which may keep calling ``estimate(task, pe)``) need no
change.  Fault-free rounds use ``cols`` as interned; only when a PE is down
or the task carries retry bans does :func:`live_columns` filter them.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Sequence

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms import PE
    from repro.runtime.task import Task

__all__ = [
    "Scheduler",
    "SchedulerError",
    "SCHEDULERS",
    "round_rows",
    "live_columns",
    "greedy_earliest_finish",
    "register_scheduler",
    "available_schedulers",
]

EstimateFn = Callable[["Task", "PE"], float]
#: one task's ``(est, cols)``: per-PE estimates, runnable PE columns
Row = tuple[Sequence[float], Sequence[int]]


class SchedulerError(Exception):
    """Raised when no valid assignment exists (e.g. unsupported API)."""


class Scheduler(abc.ABC):
    """Base class for CEDR scheduling heuristics."""

    #: registry key and display name, e.g. "etf"
    name: str = "base"

    @abc.abstractmethod
    def schedule(
        self,
        ready: Sequence["Task"],
        pes: Sequence["PE"],
        now: float,
        estimate: EstimateFn,
    ) -> list[tuple["Task", "PE"]]:
        """Assign every ready task to a PE.

        Implementations must update ``pe.expected_free`` as they commit
        assignments so later decisions in the same round see the backlog,
        and must only ever pick PEs that can run the task and are available
        (:func:`round_rows` + :func:`live_columns`).
        """

    @abc.abstractmethod
    def round_cost(self, n_ready: int, n_pes: int) -> float:
        """Runtime-core seconds one round over ``n_ready`` tasks costs."""


def round_rows(
    pes: Sequence["PE"], estimate: EstimateFn
) -> tuple[Callable[["Task"], Row], bool]:
    """``(row_of, degraded)``: what a round fetches before its loop.

    ``row_of(task)`` is the task's ``(est, cols)`` row - the table's
    interned tuples when *estimate* has ``scalar_row``, else built from
    ``pe.supports`` and one ``estimate(task, pe)`` call per supporting PE.
    ``degraded`` says some PE is quarantined or dead, i.e. that every task
    of the round needs :func:`live_columns`.
    """
    row_of = getattr(estimate, "scalar_row", None)
    if row_of is None:

        def row_of(task: "Task") -> Row:
            est = [float("inf")] * len(pes)
            cols = [j for j, pe in enumerate(pes) if pe.supports(task.api)]
            for j in cols:
                est[j] = estimate(task, pes[j])
            return est, cols

    for pe in pes:
        if not pe.available:
            return row_of, True
    return row_of, False


def live_columns(
    task: "Task", cols: Sequence[int], pes: Sequence["PE"]
) -> Sequence[int]:
    """The columns of *cols* that may run *task* right now; raises if none.

    Three filters compose, in order:

    * **support** - *cols* itself; an empty row is a platform-composition
      error;
    * **availability** - the live mask maintained by the fault subsystem
      (quarantined or dead PEs drop out); the daemon parks tasks with no
      live candidate before scheduling, so an all-unavailable result
      raising here indicates a runtime bug rather than a transient
      condition;
    * **retry bans** - PEs the task already failed on are avoided, *unless*
      that would leave no candidate (better a suspect PE than an unrunnable
      task).

    Fault-free rounds have every PE available and no bans, and callers skip
    the call: the result would be *cols*.
    """
    if not cols:
        raise SchedulerError(
            f"no PE supports API {task.api!r} (task {task.tid}); "
            "check the platform's accelerator composition"
        )
    live = [j for j in cols if pes[j].available]
    if not live:
        raise SchedulerError(
            f"no live PE for API {task.api!r} (task {task.tid}); "
            "the daemon should have parked this task until a PE revives"
        )
    banned = task.banned_pes
    if banned:
        unbanned = [j for j in live if pes[j].index not in banned]
        if unbanned:
            return unbanned
    return live


def greedy_earliest_finish(
    ready: Sequence["Task"],
    pes: Sequence["PE"],
    now: float,
    estimate: EstimateFn,
) -> list[tuple["Task", "PE"]]:
    """Greedy earliest-finish assignment in the given task order.

    The EFT heuristic, shared with HEFT_RT (which is exactly this after a
    rank sort) and with ETF over a single task: the first minimum of
    ``max(pe.expected_free, now) + est`` over the task's columns, committed
    to ``pe.expected_free`` so later tasks see the backlog.
    """
    row_of, degraded = round_rows(pes, estimate)
    inf = float("inf")
    assignments = []
    for task in ready:
        est, cols = row_of(task)
        if degraded or task.banned_pes or not cols:
            cols = live_columns(task, cols, pes)
        best, pick = inf, cols[0]
        for j in cols:
            free = pes[j].expected_free
            finish = (free if free > now else now) + est[j]  # max(), minus the call
            if finish < best:
                best, pick = finish, j
        pe = pes[pick]
        pe.expected_free = best
        assignments.append((task, pe))
    return assignments


#: the scheduler registry: heuristic classes keyed by lowercase name.
#: Third-party distributions plug in via the ``repro.schedulers``
#: entry-point group; in-tree and test code uses :func:`register_scheduler`.
SCHEDULERS: Registry[type[Scheduler]] = Registry(
    "scheduler", entry_point_group="repro.schedulers"
)


def register_scheduler(cls: type[Scheduler]) -> type[Scheduler]:
    """Class decorator adding a heuristic to the runtime's registry."""
    SCHEDULERS.register(cls.name, cls)
    return cls


def available_schedulers() -> list[str]:
    """Names of all registered heuristics (sorted)."""
    return list(SCHEDULERS.names())
