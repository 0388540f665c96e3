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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.daemon import CedrRuntime

__all__ = ["RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Everything one simulated run contributes to a figure."""

    n_apps: int
    n_cancelled: int
    exec_times: tuple[float, ...]          # per-app arrival->finish seconds
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
    def from_runtime(cls, runtime: "CedrRuntime") -> "RunResult":
        finished = [a for a in runtime.apps.values() if a.finished]
        unfinished = [a for a in runtime.apps.values() if not a.finished]
        if unfinished:
            names = ", ".join(f"{a.name}#{a.app_id}" for a in unfinished[:8])
            raise RuntimeError(f"run ended with unfinished applications: {names}")
        # cancelled apps terminated early by the kill command, failed apps
        # by the fault subsystem: both count separately and are excluded
        # from the execution-time statistics
        apps = [a for a in finished if not a.cancelled and not a.failed]
        by_app: dict[str, list[float]] = {}
        for a in apps:
            by_app.setdefault(a.name, []).append(a.execution_time)
        # every simulated tally is a read of the run record (the counters
        # are a view of the same logbook); one pass counts the incidents
        counters, logbook = runtime.counters, runtime.logbook
        incidents = logbook.incident_counts()
        return cls(
            n_apps=len(apps),
            n_cancelled=sum(1 for a in finished if a.cancelled),
            exec_times=tuple(a.execution_time for a in apps),
            exec_times_by_app={k: tuple(v) for k, v in by_app.items()},
            runtime_overhead_s=runtime.metrics.runtime_overhead_s,
            sched_overhead_s=runtime.metrics.sched_overhead_s,
            sched_rounds=counters.sched_rounds,
            ready_depth_mean=counters.ready_depth_mean,
            ready_depth_max=counters.ready_depth_max,
            makespan=runtime.metrics.makespan,
            tasks_completed=counters.tasks_completed,
            pe_task_histogram=logbook.tasks_by_pe(),
            n_failed=sum(1 for a in finished if a.failed and not a.cancelled),
            faults_injected=incidents["fault"],
            task_failures=incidents["failure"],
            retries=incidents["retry"],
            tasks_lost=incidents["lost"],
            mean_time_to_recovery=counters.mean_time_to_recovery,
            telemetry=(
                runtime.telemetry.export_state()
                if runtime.telemetry is not None
                else None
            ),
        )

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
