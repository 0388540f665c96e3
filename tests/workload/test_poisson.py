"""Poisson arrival-process tests."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PulseDoppler, WifiTx
from repro.serve import make_arrival_stream
from repro.workload import WorkloadEntry, WorkloadSpec
from repro.workload.injection import stream_spec


def take_poisson(frame_mb, rate, count, rng):
    stream = make_arrival_stream(stream_spec("poisson", frame_mb, rate), rng)
    return np.asarray(list(islice(stream, count)), dtype=np.float64)


@given(
    frame_mb=st.floats(0.5, 20.0, allow_nan=False),
    rate=st.floats(10.0, 2000.0, allow_nan=False),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_poisson_arrivals_are_sorted_positive(frame_mb, rate, seed):
    rng = np.random.default_rng(seed)
    arrivals = take_poisson(frame_mb, rate, 30, rng)
    assert len(arrivals) == 30
    assert (arrivals > 0).all()
    assert (np.diff(arrivals) >= 0).all()
    # sequential registry draws equal the vectorized exponential + cumsum
    ref = np.cumsum(np.random.default_rng(seed).exponential(frame_mb / rate, size=30))
    assert np.array_equal(arrivals, ref)


def test_poisson_mean_rate_matches_periodic():
    rng = np.random.default_rng(0)
    frame_mb, rate, n = 2.0, 100.0, 5000
    arrivals = take_poisson(frame_mb, rate, n, rng)
    mean_gap = arrivals[-1] / n
    assert mean_gap == pytest.approx(frame_mb / rate, rel=0.05)


def test_poisson_validation():
    with pytest.raises(ValueError):
        stream_spec("poisson", 0.0, 10.0)
    with pytest.raises(ValueError):
        stream_spec("poisson", 1.0, -1.0)


def test_workload_arrival_process_validation():
    with pytest.raises(ValueError, match="arrival process"):
        WorkloadSpec("bad", (WorkloadEntry(PulseDoppler(batch=32), 1),),
                     arrival_process="uniform")


def test_workload_poisson_instantiation_reproducible():
    wl = WorkloadSpec(
        "bursty",
        (WorkloadEntry(PulseDoppler(batch=32), 3), WorkloadEntry(WifiTx(batch=20), 3)),
        arrival_process="poisson",
    )
    a = [t for _, t in wl.instantiate("api", 100.0, seed=5)]
    b = [t for _, t in wl.instantiate("api", 100.0, seed=5)]
    c = [t for _, t in wl.instantiate("api", 100.0, seed=6)]
    assert a == b
    assert a != c
    assert a == sorted(a)


def test_poisson_payloads_match_periodic_payloads():
    """Arrival randomness must not perturb input-data synthesis."""
    periodic = WorkloadSpec(
        "p", (WorkloadEntry(PulseDoppler(batch=32), 2),), arrival_process="periodic"
    )
    poisson = WorkloadSpec(
        "p", (WorkloadEntry(PulseDoppler(batch=32), 2),), arrival_process="poisson"
    )
    inst_per = periodic.instantiate("dag", 100.0, seed=3)
    inst_poi = poisson.instantiate("dag", 100.0, seed=3)
    key = next(k for k in inst_per[0][0].initial_state if k.startswith("pulses"))
    assert np.array_equal(
        inst_per[0][0].initial_state[key], inst_poi[0][0].initial_state[key]
    )


def test_poisson_workload_runs_end_to_end():
    from repro.experiments import run_once
    from repro.platforms import zcu102
    from repro.runtime import RuntimeConfig

    wl = WorkloadSpec(
        "bursty",
        (WorkloadEntry(PulseDoppler(batch=32), 3), WorkloadEntry(WifiTx(batch=20), 3)),
        arrival_process="poisson",
    )
    result = run_once(zcu102(n_cpu=3, n_fft=1), wl, "api", 150.0, 2,
                      RuntimeConfig(scheduler="rr", execute_kernels=False))
    assert result.n_apps == 6
    assert result.mean_exec_time > 0
