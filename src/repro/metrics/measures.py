"""Run-level measurement extraction with the paper's metric definitions.

Three metrics drive every figure (Section III):

* **average execution time per application** - arrival to completion,
  including all scheduling decisions in between, averaged over the apps in
  the workload;
* **average scheduling overhead per application** - total time the runtime
  spent inside scheduling rounds, normalized by application count;
* **runtime overhead** (Fig. 5) - time spent receiving, managing, and
  terminating applications, *excluding* scheduling, normalized the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.daemon import CedrRuntime
    from repro.runtime.logbook import Logbook

__all__ = ["RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Everything one simulated run contributes to a figure."""

    n_apps: int
    n_cancelled: int
    exec_times: tuple[float, ...]          # arrival->finish seconds, arrival order
    exec_times_by_app: dict[str, tuple[float, ...]]
    runtime_overhead_s: float
    sched_overhead_s: float
    sched_rounds: int
    ready_depth_mean: float
    ready_depth_max: int
    makespan: float
    tasks_completed: int
    pe_task_histogram: dict[str, int] = field(default_factory=dict)

    # -- resilience metrics (repro.faults); all zero in fault-free runs --- #
    #: apps declared failed after a task exhausted its retry budget.
    n_failed: int = 0
    faults_injected: int = 0
    task_failures: int = 0
    retries: int = 0
    tasks_lost: int = 0
    #: average first-failure -> successful-completion interval (seconds).
    mean_time_to_recovery: float = 0.0

    #: telemetry export (repro.telemetry): ``{"metrics": ..., "samples": ...}``
    #: when the run collected metrics, ``None`` otherwise.  Carried here so
    #: process-pool sweeps ship snapshots back to the parent bit-identically
    #: to the serial path (pinned by the telemetry determinism tests).
    telemetry: Optional[dict] = None

    @classmethod
    def from_logbook(cls, book: "Logbook") -> "RunResult":
        """The result as a pure fold of the run record, ``telemetry`` aside:
        execution times in the book's arrival order, both overheads plain
        ``+=`` loops over their rows (``sum()`` is compensated from CPython
        3.12)."""
        finished = [a for a in book.apps.values() if a.t_finish is not None]
        # cancelled (the kill command) and failed (the fault subsystem) apps
        # count separately, outside the execution-time statistics
        apps = [a for a in finished if not a.cancelled and not a.failed]
        by_app: dict[str, list[float]] = {}
        for a in apps:
            by_app.setdefault(a.name, []).append(a.execution_time)
        runtime_overhead = sched_overhead = 0.0
        for work in book.charges:
            runtime_overhead += work
        for cost in book.rounds.column("cost"):
            sched_overhead += cost
        incidents, (depth_max, depth_mean) = book.incident_counts(), book.ready_depths()
        return cls(
            n_apps=len(apps),
            n_cancelled=sum(1 for a in finished if a.cancelled),
            exec_times=tuple(a.execution_time for a in apps),
            exec_times_by_app={k: tuple(v) for k, v in by_app.items()},
            runtime_overhead_s=runtime_overhead,
            sched_overhead_s=sched_overhead,
            sched_rounds=len(book.rounds),
            ready_depth_mean=depth_mean,
            ready_depth_max=depth_max,
            makespan=book.makespan or 0.0,
            tasks_completed=len(book.tasks),
            pe_task_histogram=book.tasks_by_pe(),
            n_failed=sum(1 for a in finished if a.failed and not a.cancelled),
            faults_injected=incidents["fault"],
            task_failures=incidents["failure"],
            retries=incidents["retry"],
            tasks_lost=incidents["lost"],
            mean_time_to_recovery=book.mean_time_to_recovery(),
        )

    @classmethod
    def from_runtime(cls, runtime: "CedrRuntime") -> "RunResult":
        """:meth:`from_logbook` of a drained runtime, plus its telemetry."""
        unfinished = [a for a in runtime.apps.values() if not a.finished]
        if unfinished:
            names = ", ".join(f"{a.name}#{a.app_id}" for a in unfinished[:8])
            raise RuntimeError(f"run ended with unfinished applications: {names}")
        result = cls.from_logbook(runtime.logbook)
        if runtime.telemetry is None:
            return result
        return replace(result, telemetry=runtime.telemetry.export_state())

    # -- the paper's normalized metrics ------------------------------------ #

    @property
    def mean_exec_time(self) -> float:
        """Average execution time per application (seconds)."""
        return float(np.mean(self.exec_times)) if self.exec_times else 0.0

    @property
    def runtime_overhead_per_app(self) -> float:
        return self.runtime_overhead_s / max(1, self.n_apps)

    @property
    def sched_overhead_per_app(self) -> float:
        return self.sched_overhead_s / max(1, self.n_apps)

    def mean_exec_time_of(self, app_name: str) -> float:
        """Average execution time of one application stream."""
        times = self.exec_times_by_app.get(app_name, ())
        return float(np.mean(times)) if times else 0.0

    @property
    def goodput(self) -> float:
        """Fraction of (non-cancelled) applications that completed
        successfully despite injected faults; 1.0 in a fault-free run."""
        total = self.n_apps + self.n_failed
        return self.n_apps / total if total else 1.0
