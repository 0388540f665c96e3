"""The CEDR runtime: daemon, workers, tasks, configuration, logging."""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "app": ("AppInstance", "TimingOnlyAppError", "DAG_MODE", "API_MODE"),
    "config": ("RuntimeConfig", "RuntimeCosts"),
    "daemon": ("CedrRuntime", "EventQueue"),
    "task": ("Task", "TaskState", "CompletionHandle"),
    "logbook": ("Logbook", "TaskRecord", "AppRecord", "Incident"),
    "perf_counters": ("PerfCounters",),
    "worker": ("SHUTDOWN", "worker_body"),
    "trace": ("to_chrome_trace", "write_chrome_trace"),
}, eager=("app", "config", "daemon", "task", "logbook", "perf_counters", "worker"))
