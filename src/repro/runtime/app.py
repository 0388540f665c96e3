"""Application instances as the runtime sees them.

An :class:`AppInstance` is one submission over the IPC channel: either a
DAG-based application (a parsed :class:`~repro.dag.DagProgram` plus its
initial state buffers) or an API-based application (a factory producing the
``main()`` generator that will run on its own application thread).  The
same record carries lifecycle bookkeeping used by the metrics layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - repro.dag builds on repro.runtime.task
    from repro.dag.app import DagProgram

__all__ = ["AppInstance", "TimingOnlyAppError", "DAG_MODE", "API_MODE"]

DAG_MODE = "dag"
API_MODE = "api"


class TimingOnlyAppError(ValueError):
    """A shape-only instance was submitted to a runtime that executes
    kernels; ``app_name`` names the offending application."""

    def __init__(self, app_name: str) -> None:
        super().__init__(
            f"app {app_name!r} carries shape-only inputs (timing_only=True) "
            f"and cannot run with execute_kernels=True"
        )
        self.app_name = app_name


@dataclass
class AppInstance:
    """One submitted application (a single frame's worth of work).

    Exactly one of ``dag`` or ``main_factory`` must be set, matching
    ``mode``.  ``frame_mb`` is the application's frame size in megabits,
    used by the workload injector to convert injection rate (Mbps) into an
    arrival period.
    """

    name: str
    mode: str
    frame_mb: float
    dag: Optional["DagProgram"] = None
    initial_state: Optional[dict[str, Any]] = None
    #: API mode: called with the app's CedrClient, returns the main generator.
    main_factory: Optional[Callable[[Any], Generator]] = None
    #: built from shape-only stand-ins: valid for ``execute_kernels=False``
    #: runs only (``CedrRuntime.submit`` enforces it)
    timing_only: bool = False

    # runtime-assigned lifecycle fields
    #: the submission index :meth:`CedrRuntime.submit` gives it; ``-1``
    #: until submitted
    app_id: int = -1
    t_arrival: float = 0.0
    t_launch: float = 0.0
    t_finish: Optional[float] = None
    tasks_total: int = 0
    tasks_done: int = 0
    state: dict[str, Any] = field(default_factory=dict)
    result: Any = None
    #: set by the kill IPC command (DAG mode); a cancelled app counts as
    #: finished but executed only the tasks already in flight.
    cancelled: bool = False
    #: set by the fault subsystem when one of the app's tasks exhausts its
    #: retry budget; the app terminates early and counts against goodput.
    failed: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (DAG_MODE, API_MODE):
            raise ValueError(f"unknown app mode {self.mode!r}")
        if self.mode == DAG_MODE and self.dag is None:
            raise ValueError(f"DAG-mode app {self.name!r} needs a DagProgram")
        if self.mode == API_MODE and self.main_factory is None:
            raise ValueError(f"API-mode app {self.name!r} needs a main_factory")

    @property
    def finished(self) -> bool:
        return self.t_finish is not None

    @property
    def execution_time(self) -> float:
        """Arrival-to-completion time (the paper's per-app metric)."""
        if self.t_finish is None:
            raise ValueError(f"app {self.app_id} ({self.name}) has not finished")
        return self.t_finish - self.t_arrival

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AppInstance {self.app_id} {self.name} ({self.mode})>"
