"""The telemetry determinism contract (docs/INTERNALS.md).

Two pins:

* snapshots are bit-identical between serial and process-pool (``--jobs``)
  sweeps - the telemetry dict survives pickling through the pool unchanged;
* collecting telemetry never perturbs the run it measures: the registry and
  its periodic samples are a fold of the run record taken at shutdown, so
  every other :class:`RunResult` field of a sampled run is bit-identical to
  a run without telemetry - including the cells where the retired timer
  sampler used to split processor-sharing spans.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.experiments import run_once, run_trials
from repro.metrics import RunResult, assert_identical, diff_results
from repro.runtime import RuntimeConfig
from repro.telemetry import TelemetryConfig
from repro.workload import WorkloadEntry, WorkloadSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "runtime"))
from one_book_cells import run_cell  # noqa: E402

TINY = WorkloadSpec(
    "tiny",
    (WorkloadEntry(PulseDoppler(batch=8), 1), WorkloadEntry(WifiTx(batch=5), 1)),
)

PLAIN = RuntimeConfig(scheduler="eft", execute_kernels=False)
INSTRUMENTED = replace(PLAIN, telemetry=TelemetryConfig(sample_interval_s=0.005))


def _dump(result) -> str:
    return json.dumps(result.telemetry, sort_keys=True, allow_nan=False)


def test_snapshots_bit_identical_serial_vs_process_pool(zcu_small):
    serial = run_trials(zcu_small, TINY, "api", 200.0, INSTRUMENTED, trials=2, n_jobs=1)
    pooled = run_trials(zcu_small, TINY, "api", 200.0, INSTRUMENTED, trials=2, n_jobs=2)
    assert_identical([serial, pooled], ["serial", "pooled"])
    for s, p in zip(serial, pooled):
        assert s.telemetry is not None
        assert s.telemetry["samples"], "the fold took no periodic samples"
        assert _dump(s) == _dump(p)


def test_recording_never_perturbs_the_run(zcu_small):
    """Without periodic samples an instrumented run is bit-identical to a
    plain one in every non-telemetry field."""
    plain = run_once(zcu_small, TINY, "api", 200.0, 3, PLAIN)
    metered = run_once(zcu_small, TINY, "api", 200.0, 3,
                       replace(PLAIN, telemetry=TelemetryConfig(sample_interval_s=0.0)))
    assert plain.telemetry is None
    assert metered.telemetry is not None
    assert diff_results(plain, metered, ignore=("telemetry",)) == []


@pytest.mark.parametrize("cell", ["tiny", "jetson-etf-faulty"])
def test_sampling_never_perturbs_the_run(zcu_small, cell):
    """Periodic samples are taken by the shutdown fold, not by timers, so a
    sampled run is the unsampled run bit for bit.  The timer sampler moved
    the ``jetson-etf-faulty`` makespan by 7 ulp and added 32 timers."""
    if cell == "tiny":
        plain = run_once(zcu_small, TINY, "api", 200.0, 3, PLAIN)
        sampled = run_once(zcu_small, TINY, "api", 200.0, 3, INSTRUMENTED)
    else:  # the one-book cell: faults, 10 ms sampling
        plain = RunResult.from_runtime(run_cell(cell, telemetry=None))
        sampled = RunResult.from_runtime(run_cell(cell))
    assert len(sampled.telemetry["samples"]) > 1
    assert diff_results(plain, sampled, ignore=("telemetry",)) == []


def test_repeated_instrumented_runs_reproduce(zcu_small):
    a = run_once(zcu_small, TINY, "api", 200.0, 3, INSTRUMENTED)
    b = run_once(zcu_small, TINY, "api", 200.0, 3, INSTRUMENTED)
    assert _dump(a) == _dump(b)
