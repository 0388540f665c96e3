"""Benchmark configuration: grid sizes and shared helpers.

Each figure benchmark regenerates one evaluation artifact of the paper and
prints its data series, then asserts the figure's *shape* properties (who
wins, where the crossovers/saturation fall).  The paper sweeps 29 injection
rates x 25 trials on real hardware; bench defaults use a reduced grid that
preserves every trend and runs in minutes.  Environment overrides:

* ``REPRO_BENCH_RATES``  - number of injection-rate points (default 6)
* ``REPRO_BENCH_TRIALS`` - trials per point (default 2)
* ``REPRO_BENCH_LD_BATCH`` - Lane Detection rows per task in the ablation
  benches (default 64; 1 = the paper's exact task granularity, much
  slower); the Fig 9/10 rows of the figure table fix it at 64
* ``REPRO_PERF_CHECK`` - set to 0 to skip throughput-vs-baseline.json
  assertions (for CI or hosts slower than the recording machine)
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.workload import paper_injection_rates

BASELINE_PATH = Path(__file__).with_name("baseline.json")


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def perf_baseline():
    """The recorded performance trajectory (see baseline.json)."""
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


@pytest.fixture
def check_throughput(perf_baseline):
    """Assert a benchmark's event rate against the recorded baseline.

    ``check(name, benchmark, events)`` computes events per second from the
    benchmark's fastest round and requires it to beat the recorded *seed*
    rate by the entry's ``required_speedup`` - i.e. the optimization the
    baseline documents must not regress away.  No-op when pytest-benchmark
    is disabled (no timing data) or when ``REPRO_PERF_CHECK=0``.
    """

    def check(name: str, benchmark, events: int) -> None:
        if os.environ.get("REPRO_PERF_CHECK", "1") == "0":
            return
        meta = getattr(benchmark, "stats", None)
        stats = getattr(meta, "stats", None)
        if stats is None:  # --benchmark-disable: smoke-run only
            return
        rate = events / stats.min
        entry = perf_baseline[name]
        floor = entry["seed_events_per_sec"] * entry["required_speedup"]
        assert rate >= floor, (
            f"{name}: measured {rate:,.0f} events/s, below "
            f"{entry['required_speedup']:g}x the recorded seed rate "
            f"({entry['seed_events_per_sec']:,} events/s; see "
            f"benchmarks/baseline.json - re-record on a slower host or set "
            f"REPRO_PERF_CHECK=0)"
        )

    return check


@pytest.fixture(scope="session")
def bench_rates():
    return list(paper_injection_rates(n=_env_int("REPRO_BENCH_RATES", 6)))


@pytest.fixture(scope="session")
def bench_trials():
    return _env_int("REPRO_BENCH_TRIALS", 2)


@pytest.fixture(scope="session")
def ld_batch():
    return _env_int("REPRO_BENCH_LD_BATCH", 64)
