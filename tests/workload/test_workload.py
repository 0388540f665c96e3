"""Workload and injection-rate machinery tests."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PulseDoppler, WifiTx
from repro.workload import (
    WorkloadEntry,
    autonomous_vehicle_workload,
    paper_injection_rates,
    radar_comms_workload,
)
from repro.serve import make_arrival_stream
from repro.workload.injection import stream_spec


def take_periodic(frame_mb, rate, count):
    stream = make_arrival_stream(
        stream_spec("periodic", frame_mb, rate), np.random.default_rng(0)
    )
    return np.asarray(list(islice(stream, count)), dtype=np.float64)


def test_paper_rates_match_section_iii():
    rates = paper_injection_rates()
    assert len(rates) == 29
    assert rates[0] == pytest.approx(10.0)
    assert rates[-1] == pytest.approx(2000.0)
    assert all(np.diff(rates) > 0)


def test_reduced_rates_span_same_range():
    rates = paper_injection_rates(n=8)
    assert rates[0] == pytest.approx(10.0)
    assert rates[-1] == pytest.approx(2000.0)
    assert len(rates) < 29


def test_rate_grid_validation():
    with pytest.raises(ValueError):
        paper_injection_rates(n=1)
    with pytest.raises(ValueError):
        paper_injection_rates(lo=100, hi=10)


@given(
    frame_mb=st.floats(0.1, 50.0, allow_nan=False),
    rate=st.floats(1.0, 5000.0, allow_nan=False),
    count=st.integers(0, 40),
)
@settings(max_examples=50, deadline=None)
def test_periodic_arrivals_properties(frame_mb, rate, count):
    arrivals = take_periodic(frame_mb, rate, count)
    assert len(arrivals) == count
    if count:
        assert arrivals[0] == 0.0
        assert np.allclose(np.diff(arrivals), frame_mb / rate)
    # the registry's periodic stream is the multiplicative schedule, bit for bit
    assert np.array_equal(arrivals, np.arange(count) * (frame_mb / rate))


def test_periodic_arrivals_validation():
    with pytest.raises(ValueError):
        stream_spec("periodic", 0.0, 10.0)
    with pytest.raises(ValueError):
        stream_spec("periodic", 1.0, 0.0)


def test_workload_entry_validation():
    with pytest.raises(ValueError):
        WorkloadEntry(PulseDoppler(batch=16), 0)


def test_radar_comms_composition():
    wl = radar_comms_workload()
    assert sum(e.count for e in wl.entries) == 10
    names = {e.app.name for e in wl.entries}
    assert names == {"PD", "TX"}


def test_av_workload_composition():
    wl = autonomous_vehicle_workload()
    assert sum(e.count for e in wl.entries) == 11
    assert {e.app.name for e in wl.entries} == {"LD", "PD", "TX"}


def test_instantiate_produces_sorted_arrivals():
    wl = radar_comms_workload(pd=PulseDoppler(batch=16), tx=WifiTx(batch=5))
    pairs = wl.instantiate("api", rate_mbps=100.0, seed=3)
    assert len(pairs) == 10
    times = [t for _, t in pairs]
    assert times == sorted(times)
    # periodic per stream: PD stream spacing = frame/rate
    pd_times = sorted(t for inst, t in pairs if inst.name == "PD")
    period = PulseDoppler(batch=16).frame_mb / 100.0
    assert np.allclose(np.diff(pd_times), period)


def test_higher_rate_compresses_arrivals():
    wl = radar_comms_workload(pd=PulseDoppler(batch=16), tx=WifiTx(batch=5))
    slow = max(t for _, t in wl.instantiate("api", 10.0, seed=0))
    fast = max(t for _, t in wl.instantiate("api", 1000.0, seed=0))
    assert fast < slow / 10


def test_instantiate_mode_controls_form():
    wl = radar_comms_workload(n_pd=1, n_tx=1, pd=PulseDoppler(batch=16),
                              tx=WifiTx(batch=5))
    dag_pairs = wl.instantiate("dag", 100.0, seed=0)
    api_pairs = wl.instantiate("api", 100.0, seed=0)
    assert all(inst.mode == "dag" for inst, _ in dag_pairs)
    assert all(inst.mode == "api" for inst, _ in api_pairs)


def test_same_seed_same_inputs_different_seed_differs():
    wl = radar_comms_workload(n_pd=1, n_tx=1, pd=PulseDoppler(batch=16),
                              tx=WifiTx(batch=5))
    a = wl.instantiate("dag", 100.0, seed=7)
    b = wl.instantiate("dag", 100.0, seed=7)
    c = wl.instantiate("dag", 100.0, seed=8)
    pd_a = next(inst for inst, _ in a if inst.name == "PD")
    pd_b = next(inst for inst, _ in b if inst.name == "PD")
    pd_c = next(inst for inst, _ in c if inst.name == "PD")
    key = next(k for k in pd_a.initial_state if k.startswith("pulses"))
    assert np.array_equal(pd_a.initial_state[key], pd_b.initial_state[key])
    assert not np.array_equal(pd_a.initial_state[key], pd_c.initial_state[key])
