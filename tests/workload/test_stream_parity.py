"""The random streams a run still builds draw what they drew.

``WorkloadSpec.instantiate`` and ``ServeDriver`` build an arrival stream only
for a process that can draw from it (not for ``SEED_FREE_ARRIVALS``) and a
payload stream only for a run that executes its kernels.  A stream that is
built must be the ``child_rng`` stream at its label, and one that is not must
have been unread: every arrival instant (by ``float.hex``) and every payload
array (values and dtype) equals one derived here with ``child_rng`` at the
same labels, for every builtin arrival kind, timing-only and executing.
"""

from itertools import cycle, islice

import numpy as np
import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.serve import ArrivalSpec, ServeConfig, ServeDriver, TenantSpec, make_arrival_stream
from repro.serve.arrival import ARRIVALS, SEED_FREE_ARRIVALS
from repro.simcore import child_rng
from repro.workload import WorkloadEntry, WorkloadSpec
from repro.workload.injection import stream_spec

SEED = 5
RATE = 200.0
#: every builtin kind, with the parameters it needs beyond a period / rate
KINDS = {
    "periodic": (),
    "poisson": (),
    "bursty": (("burst_len", 0.02), ("idle_len", 0.01)),
    "diurnal": (("cycle", 0.1),),
    "trace": (("loop", 0.06), ("times", "0.01;0.02;0.05")),
}
APPS = (PulseDoppler(batch=2), WifiTx(n_packets=2))


def test_every_builtin_kind_is_covered():
    assert set(KINDS) == {name for name, _ in ARRIVALS.items()}
    assert SEED_FREE_ARRIVALS < set(KINDS)


def _hex(instants) -> list[str]:
    return [float(t).hex() for t in instants]


def _assert_same_payload(state: dict, expected: dict) -> None:
    assert state.keys() == expected.keys()
    for key, array in expected.items():
        assert state[key].dtype == array.dtype, key
        assert np.array_equal(state[key], array), key


@pytest.mark.parametrize("execute", [False, True], ids=["timing-only", "execute"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_instantiate_draws_what_child_rng_draws(kind, execute):
    count = 3
    workload = WorkloadSpec(
        name="parity", entries=tuple(WorkloadEntry(app, count) for app in APPS),
        arrival_process=kind, arrival_params=KINDS[kind],
    )
    pairs = workload.instantiate("dag", RATE, SEED, timing_only=not execute)
    for app in APPS:
        spec = stream_spec(kind, app.frame_mb, RATE, extra=KINDS[kind])
        arrivals = make_arrival_stream(spec, child_rng(SEED, f"arrivals.parity.{app.name}"))
        payload_rng = child_rng(SEED, f"workload.parity.{app.name}")
        got = [(inst, t) for inst, t in pairs if inst.name == app.name]
        assert _hex(t for _, t in got) == _hex(islice(arrivals, count))
        for inst, _ in got:
            inputs = app.make_input(payload_rng) if execute else app.shape_inputs()
            _assert_same_payload(inst.initial_state, app.dag_state(inputs))


@pytest.mark.parametrize("execute", [False, True], ids=["timing-only", "execute"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_serve_tenant_draws_what_child_rng_draws(kind, execute):
    arrival = ArrivalSpec(kind, (("rate", 100.0), *KINDS[kind]))
    serve = ServeConfig(tenants=(TenantSpec("t", arrival, apps=APPS),), duration=0.1,
                        mode="dag")
    runtime = CedrRuntime(zcu102(n_cpu=2, n_fft=1).build(seed=SEED),
                          RuntimeConfig(scheduler="heft_rt", execute_kernels=execute))
    driver = ServeDriver(runtime, serve, SEED)
    expected = make_arrival_stream(arrival, child_rng(SEED, "serve.arrivals.t"))
    assert _hex(islice(driver._streams["t"], 8)) == _hex(islice(expected, 8))
    payload_rng = child_rng(SEED, "serve.apps.t")
    for app in islice(cycle(APPS), 4):
        inputs = app.make_input(payload_rng) if execute else app.shape_inputs()
        _assert_same_payload(driver._next_instance("t").initial_state, app.dag_state(inputs))


def test_a_plugin_process_still_receives_a_stream():
    """Only the builtins named seed-free go without: any other process, a
    plug-in included, is handed its ``child_rng`` stream."""
    seen = []

    def plugin(spec, rng):
        seen.append(rng)
        while True:
            yield rng.random()

    ARRIVALS.register("parity-plugin", plugin)
    try:
        workload = WorkloadSpec(name="parity", entries=(WorkloadEntry(APPS[0], 2),),
                                arrival_process="parity-plugin")
        pairs = workload.instantiate("dag", RATE, SEED, timing_only=True)
    finally:
        ARRIVALS.unregister("parity-plugin")
    assert isinstance(seen[0], np.random.Generator)
    expected = child_rng(SEED, f"arrivals.parity.{APPS[0].name}")
    assert _hex(t for _, t in pairs) == _hex(sorted(expected.random() for _ in range(2)))
