"""The CEDR runtime: daemon, workers, tasks, configuration, logging."""

from .app import API_MODE, DAG_MODE, AppInstance, TimingOnlyAppError
from .config import RuntimeConfig, RuntimeCosts
from .daemon import CedrRuntime, EventQueue
from .logbook import AppRecord, Incident, Logbook, TaskRecord
from .perf_counters import PerfCounters
from .task import CompletionHandle, Task, TaskState
from .trace import to_chrome_trace, write_chrome_trace
from .worker import SHUTDOWN, worker_body

__all__ = [
    "AppInstance",
    "TimingOnlyAppError",
    "DAG_MODE",
    "API_MODE",
    "RuntimeConfig",
    "RuntimeCosts",
    "CedrRuntime",
    "EventQueue",
    "Task",
    "TaskState",
    "CompletionHandle",
    "Logbook",
    "TaskRecord",
    "AppRecord",
    "Incident",
    "PerfCounters",
    "SHUTDOWN",
    "worker_body",
    "to_chrome_trace",
    "write_chrome_trace",
]
