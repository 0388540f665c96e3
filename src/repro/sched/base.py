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

Estimates come from the daemon as an ``estimate(task, pe)`` callable backed
by the platform timing model - the runtime analogue of CEDR's offline
profiling tables.  When that callable additionally exposes the *columnar*
interface of :class:`~repro.platforms.timing.CostTable`
(``estimate_rows(batch)`` / ``support_rows(batch)`` returning ``(n, p)``
ndarrays), the batched helpers below gather whole rounds as NumPy arrays
and the heuristics lose their per-task Python inner loops; a plain callable
falls back to the scalar reference path with identical results.

Two lanes, selected by the batch size the round observes
--------------------------------------------------------

Under CEDR-API the ready queue holds only in-flight libCEDR calls, so most
rounds carry exactly one task - and assembling NumPy columns for one row
costs several times the decision.  A round with ``len(ready) == 1`` whose
provider exposes ``scalar_row(task)`` (the table does; a plain callable or
the runtime's scalar-oracle wrapper does not) therefore takes
:func:`single_task_lane`: the same three :meth:`Scheduler.compatible`
filters over one row of plain Python floats, then each heuristic's pick with
float ``max`` / ``+`` / ``<`` - the very IEEE operations ``np.maximum``,
the vector add and first-``argmin`` perform, so placements, ``expected_free``
and cursor state are bit-identical to the batched kernels.  ``len(ready) >
1`` stays on the batched lane.  Nothing selects a lane but the batch size.
"""

from __future__ import annotations

import abc
import warnings
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms import PE
    from repro.runtime.task import Task

__all__ = [
    "Scheduler",
    "SchedulerError",
    "SCHEDULERS",
    "candidate_mask",
    "estimate_matrix",
    "round_matrices",
    "free_vector",
    "greedy_earliest_finish",
    "single_task_lane",
    "earliest_finish_one",
    "register_scheduler",
    "make_scheduler",
    "available_schedulers",
]

EstimateFn = Callable[["Task", "PE"], float]


class SchedulerError(Exception):
    """Raised when no valid assignment exists (e.g. unsupported API)."""


def _unsupported(task: "Task") -> SchedulerError:
    return SchedulerError(
        f"no PE supports API {task.api!r} (task {task.tid}); "
        "check the platform's accelerator composition"
    )


def _none_live(task: "Task") -> SchedulerError:
    return SchedulerError(
        f"no live PE for API {task.api!r} (task {task.tid}); "
        "the daemon should have parked this task until a PE revives"
    )


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
        and must only ever pick PEs for which ``pe.supports(task.api)``.
        """

    @abc.abstractmethod
    def round_cost(self, n_ready: int, n_pes: int) -> float:
        """Runtime-core seconds one round over ``n_ready`` tasks costs."""

    @staticmethod
    def compatible(task: "Task", pes: Sequence["PE"]) -> list["PE"]:
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
            raise _unsupported(task)
        live = [pe for pe in options if pe.available]
        if not live:
            raise _none_live(task)
        if task.banned_pes:
            unbanned = [pe for pe in live if pe.index not in task.banned_pes]
            if unbanned:
                return unbanned
        return live


def single_task_lane(
    ready: Sequence["Task"], pes: Sequence["PE"], estimate: EstimateFn
) -> Optional[tuple["Task", tuple[float, ...], Sequence[int]]]:
    """The scalar lane: ``(task, est, cols)`` for a one-task round, else ``None``.

    ``est`` is the task's estimate row as plain floats and ``cols`` its
    candidate PE columns in ascending order, filtered with
    :meth:`Scheduler.compatible` semantics - support, the live mask, retry
    bans with the keep-all fallback - raising the same two
    :class:`SchedulerError` cases.  ``None`` (more than one task, or a
    provider without ``scalar_row``) sends the round to the batched lane.
    """
    if len(ready) != 1:
        return None
    scalar_row = getattr(estimate, "scalar_row", None)
    if scalar_row is None:
        return None
    task = ready[0]
    est, cols = scalar_row(task)
    if not cols:
        raise _unsupported(task)
    live = cols
    for j in cols:
        if not pes[j].available:  # a quarantined or dead PE: fault runs only
            live = [j for j in cols if pes[j].available]
            if not live:
                raise _none_live(task)
            break
    banned = task.banned_pes
    if banned:
        unbanned = [j for j in live if pes[j].index not in banned]
        if unbanned:  # else: every candidate is banned - keep them all
            live = unbanned
    return task, est, live


def earliest_finish_one(
    lane: tuple["Task", Sequence[float], Sequence[int]],
    pes: Sequence["PE"],
    now: float,
) -> list[tuple["Task", "PE"]]:
    """Scalar-lane earliest finish: first minimum of ``max(free, now) + est``
    over the candidate columns, committed to ``pe.expected_free``.

    What one row of :func:`greedy_earliest_finish` - and ETF's pair scan
    over a single task - computes.
    """
    task, est, cols = lane
    best, pick = float("inf"), cols[0]
    for j in cols:
        free = pes[j].expected_free
        finish = (free if free > now else now) + est[j]  # max(), minus the call
        if finish < best:
            best, pick = finish, j
    pe = pes[pick]
    pe.expected_free = best
    return [(task, pe)]


def candidate_mask(
    ready: Sequence["Task"],
    pes: Sequence["PE"],
    estimate: EstimateFn,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(n, p) boolean candidate matrix with :meth:`Scheduler.compatible`
    semantics, built in one pass per round.

    Three filters compose exactly as in ``compatible`` - support matrix,
    fault-subsystem availability, retry bans with the better-a-suspect-PE
    fallback - and the same :class:`SchedulerError` cases are raised.  With
    a columnar estimate provider the support rows are one table gather;
    otherwise support vectors are memoized per API within the round, so the
    scalar fallback also stops paying a set rebuild per ready task.
    ``rows`` is the batch's row-id vector when the caller gathered it
    already (:func:`round_matrices`).
    """
    n, p = len(ready), len(pes)
    support_rows = getattr(estimate, "support_rows", None)
    if support_rows is not None:
        cand = support_rows(ready) if rows is None else support_rows(ready, rows)
    else:
        cand = np.empty((n, p), dtype=bool)
        by_api: dict[str, np.ndarray] = {}
        for i, task in enumerate(ready):
            row = by_api.get(task.api)
            if row is None:
                row = np.fromiter(
                    (pe.supports(task.api) for pe in pes), dtype=bool, count=p
                )
                by_api[task.api] = row
            cand[i] = row
    supported = cand.any(axis=1)
    if not supported.all():
        raise _unsupported(ready[int(np.argmin(supported))])
    live = np.fromiter((pe.available for pe in pes), dtype=bool, count=p)
    if not live.all():
        cand = cand & live
        alive = cand.any(axis=1)
        if not alive.all():
            raise _none_live(ready[int(np.argmin(alive))])
    banned_cols: Optional[dict] = None
    for i, task in enumerate(ready):
        if task.banned_pes:
            if banned_cols is None:
                banned_cols = {pe.index: j for j, pe in enumerate(pes)}
            row = cand[i].copy()
            for index in task.banned_pes:
                col = banned_cols.get(index)
                if col is not None:
                    row[col] = False
            if row.any():  # else: every candidate is banned - keep them all
                cand[i] = row
    return cand


def estimate_matrix(
    ready: Sequence["Task"],
    pes: Sequence["PE"],
    estimate: EstimateFn,
    mask: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(n, p) float64 estimates with ``+inf`` at every non-candidate cell.

    The columnar path gathers interned table rows (``rows`` as in
    :func:`candidate_mask`); the fallback calls the scalar ``estimate``
    exactly where the old per-task loops did (masked cells only), so both
    paths produce bit-identical matrices.
    """
    estimate_rows = getattr(estimate, "estimate_rows", None)
    if estimate_rows is not None:
        est = estimate_rows(ready) if rows is None else estimate_rows(ready, rows)
        return np.where(mask, est, np.inf)
    est = np.full((len(ready), len(pes)), np.inf)
    for i, task in enumerate(ready):
        for j in np.flatnonzero(mask[i]):
            est[i, j] = estimate(task, pes[j])
    return est


def round_matrices(
    ready: Sequence["Task"], pes: Sequence["PE"], estimate: EstimateFn
) -> tuple[np.ndarray, np.ndarray]:
    """``(mask, est)`` of one batched round off a single row-id gather.

    :func:`candidate_mask` + :func:`estimate_matrix`, with a columnar
    provider's ``rows_for(batch)`` vector taken once and indexed into both
    of its arrays.
    """
    rows_for = getattr(estimate, "rows_for", None)
    rows = rows_for(ready) if rows_for is not None else None
    mask = candidate_mask(ready, pes, estimate, rows)
    return mask, estimate_matrix(ready, pes, estimate, mask, rows)


def free_vector(pes: Sequence["PE"], now: float) -> np.ndarray:
    """(p,) vector of ``max(pe.expected_free, now)`` - round-start backlog."""
    free = np.fromiter(
        (pe.expected_free for pe in pes), dtype=np.float64, count=len(pes)
    )
    return np.maximum(free, now)


def greedy_earliest_finish(
    ready: Sequence["Task"],
    pes: Sequence["PE"],
    now: float,
    estimate: EstimateFn,
) -> list[tuple["Task", "PE"]]:
    """Greedy earliest-finish assignment in the given task order.

    The EFT heuristic, shared with HEFT_RT (which is exactly this after a
    rank sort).  The old per-task inner loop over candidate PEs is one
    vectorized add + argmin per row of the batched estimate matrix;
    excluded cells sit at ``+inf``, and argmin picks the first of equal
    minima exactly as the scalar ``<`` scan did.  Commits update
    ``pe.expected_free`` so later rows see the backlog.
    """
    if not ready:
        return []
    lane = single_task_lane(ready, pes, estimate)
    if lane is not None:
        return earliest_finish_one(lane, pes, now)
    _, est = round_matrices(ready, pes, estimate)
    free = free_vector(pes, now)
    assignments = []
    for i, task in enumerate(ready):
        finish = free + est[i]
        j = int(np.argmin(finish))
        best = float(finish[j])
        free[j] = best
        pe = pes[j]
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


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Deprecated: use ``SCHEDULERS.create(name, ...)``.

    Kept as a thin shim so pre-registry figure modules and user code keep
    working; the lookup (case-insensitive, unknown names raise a
    ``KeyError``-compatible error) is unchanged.
    """
    warnings.warn(
        "make_scheduler() is deprecated; use "
        "repro.sched.SCHEDULERS.create(name, ...)",
        DeprecationWarning,
        stacklevel=2,
    )
    return SCHEDULERS.create(name, **kwargs)


def available_schedulers() -> list[str]:
    """Names of all registered heuristics (sorted)."""
    return list(SCHEDULERS.names())
