"""The three cells ``test_one_book.py`` pins against the parent commit.

``record(name)`` reduces one finished run to JSON: the deterministic part
of ``counters.snapshot()`` (host wall-time fields popped) and the whole
``RunResult``.  ``golden_one_book.json`` is this function's output at the
last commit where ``PerfCounters`` still kept its own tallies (its
``jetson-etf-faulty`` entry re-recorded once telemetry sampling stopped
adding timers to the run); the test checks that the logbook-derived view
reproduces it value for value.
"""

import dataclasses
import json

from repro.apps import APPS
from repro.experiments import run_to_completion
from repro.faults import FaultConfig, FaultKind
from repro.metrics import RunResult
from repro.platforms import jetson, zcu102
from repro.runtime import RuntimeConfig
from repro.telemetry import TelemetryConfig
from repro.workload import WorkloadEntry, WorkloadSpec

PD, TX = APPS.get("PD").factory, APPS.get("TX").factory
WORKLOAD = WorkloadSpec(
    name="one-book", entries=(WorkloadEntry(PD(), 4), WorkloadEntry(TX(), 4))
)
ZCU = zcu102(n_cpu=3, n_fft=1, n_mmult=0)
FAULTS = FaultConfig(
    rate=200.0,
    kinds=(FaultKind.TRANSIENT, FaultKind.HANG, FaultKind.SLOWDOWN),
)

#: name -> (platform, mode, scheduler, seed, extra RuntimeConfig fields)
CELLS = {
    "zcu102-rr-api": (ZCU, "api", "rr", 1, {}),
    "zcu102-etf-dag": (ZCU, "dag", "etf", 2, {}),
    "jetson-etf-faulty": (
        jetson(n_cpu=5, n_gpu=1), "api", "etf", 7,
        {"faults": FAULTS, "telemetry": TelemetryConfig(sample_interval_s=0.01)},
    ),
}

HOST_TIME_KEYS = (
    "wall_seconds", "events_per_wall_sec", "host_ns_by_role", "resumes_by_role",
    "timer_ns_by_owner",
)


def run_cell(name, **overrides):
    """Run cell *name*; *overrides* replace its extra ``RuntimeConfig`` fields."""
    platform, mode, scheduler, seed, extra = CELLS[name]
    config = RuntimeConfig(
        scheduler=scheduler, execute_kernels=False, **{**extra, **overrides}
    )
    return run_to_completion(platform, WORKLOAD, mode, 200.0, seed, config)


def record(name, runtime=None):
    runtime = runtime or run_cell(name)
    snapshot = runtime.counters.snapshot()
    for key in HOST_TIME_KEYS:
        snapshot.pop(key)
    # counted since the golden was recorded (test_daemon pins its range)
    snapshot["event_core"].pop("instants")
    result = dataclasses.asdict(RunResult.from_runtime(runtime))
    # through JSON: tuples become lists on both sides of the comparison
    return json.loads(json.dumps({"counters": snapshot, "result": result}))
