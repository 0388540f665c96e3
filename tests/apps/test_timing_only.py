"""Timing-only stand-ins and parsed-program reuse.

Two promises are pinned here.  A timing-only run (``execute_kernels=False``)
built from shape-only stand-ins is bit-identical to one that synthesized
every frame; and the functional path (``execute_kernels=True``) is exactly
what it was - same payload-RNG draws, same results, no stand-in in reach.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.apps import PulseDoppler, WifiTx, available_apps, make_app
from repro.cli import main
from repro.experiments.cache import cell_digest
from repro.experiments.common import run_once
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig, TimingOnlyAppError
from repro.serve import ArrivalSpec, ServeConfig, ServeDriver, TenantSpec, serve_once
from repro.simcore import child_rng
from repro.workload import WorkloadEntry, WorkloadSpec

APPS = available_apps()

#: SHA-256 of the first three frames each app synthesizes at seed 0 through
#: ``WorkloadSpec.instantiate`` (recorded before stand-ins existed): the
#: payload RNG's label and draw order are part of the functional contract.
INPUT_PINS = {
    "LD": [
        "397f4f583e65c27fe59adfd61e4ba5fab23a853e5f97d82cafa357b255dccccd",
        "c70bd0ed0aec846eb5a6bd7ece44786c711193889f8e5f0f9ac2d8d2ecb5ac99",
        "3ee70360ff5c0c5c917a87d13bcb3a6af69e7d663f4589740c297ac75b00de3e",
    ],
    "PD": [
        "dce50e950be1871859e5dd582f9da507ad66527cd80232393bb095b29696e939",
        "51688f2ab954e2cae6778dc3db5d5277bf352129c3a0d10f16214521b973cff0",
        "766955f5bb1d41c5cec580cd1fd1b50f403a7df420fe17710f7654397f2efc2f",
    ],
    "RX": [
        "a7df68c12b7d9180b895b3a753f33b061fafb041fe4f5f3e1179200073289cef",
        "04a48332c11643eaca2fe03950bc9630e4479d1714fe34ea08abeb2d78f68e81",
        "6686a8a043b02e22989b61d6882629c78609f26605dfb721a4451cf591752704",
    ],
    "TM": [
        "fbd67900a90281ff2199f72c9757d7e2f91ef106d52bbc16dd0e2bfe6e8076e0",
        "7008ea196842975e4f7f9c4a5e4a9de0309a92dc37be248ed9ba2f33492a4e1e",
        "c9e16623db31b29cd591a53f1b4da52fc61ae2bbf1873c6705d1c9110f19bcb0",
    ],
    "TX": [
        "60a67b83f786558ea9c1f3f9c004f31d882015e3c501629d097e9981f60cf93e",
        "5ea2084b564a3b978dda624285d9ee3a4c06998d9dfebe54a6ac5a41bdd3a5a1",
        "fb67a3dd730543800602a2c0e83260e99935f8e7d041b06f2f83f88a43c639fa",
    ],
}


def hexed(value):
    """*value* with every float spelled in ``float.hex()`` (bit-exact ==)."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def inputs_digest(inputs):
    h = hashlib.sha256()
    for key in sorted(inputs):
        arr = np.ascontiguousarray(inputs[key])
        h.update(f"{key}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def record_inputs(monkeypatch, target):
    """Spy on ``target.make_input``; returns the list the frames land in."""
    frames = []
    synth = target.make_input

    def spy(*args):
        frames.append(synth(*args))
        return frames[-1]

    monkeypatch.setattr(target, "make_input", spy)
    return frames


class SynthesizingWorkload(WorkloadSpec):
    """The pre-stand-in behaviour: every instance gets a synthesized frame."""

    def instantiate(self, mode, rate_mbps, seed, timing_only=False):
        return super().instantiate(mode, rate_mbps, seed)


# --------------------------------------------------------------------- #
# the declaration and the stand-ins
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", APPS)
def test_input_shapes_match_the_synthesizer(name, rng):
    app = make_app(name)
    inputs = app.make_input(rng)
    declared = app.input_shapes()
    assert set(declared) == set(inputs)
    for key, (shape, dtype) in declared.items():
        assert inputs[key].shape == shape, key
        assert inputs[key].dtype == np.dtype(dtype), key


@pytest.mark.parametrize("name", APPS)
def test_stand_ins_hold_one_element_and_refuse_writes(name):
    app = make_app(name)
    for key, arr in app.shape_inputs().items():
        shape, dtype = app.input_shapes()[key]
        assert arr.shape == shape and arr.dtype == np.dtype(dtype)
        assert not any(arr.strides) and arr.base.size == 1
        assert np.asarray(arr[..., :1]).shape[-1] == 1
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1


@pytest.mark.parametrize("mode", ["api", "dag"])
def test_timing_only_instances_never_synthesize(monkeypatch, rng, mode):
    app = PulseDoppler(batch=16)
    frames = record_inputs(monkeypatch, app)
    inst = app.make_instance(mode, rng, timing_only=True)
    assert inst.timing_only and not frames
    # explicit inputs win: the instance carries real data and may execute
    inst = app.make_instance(mode, rng, inputs=app.make_input(rng), timing_only=True)
    assert not inst.timing_only


@pytest.mark.parametrize("mode", ["api", "dag"])
def test_executing_runtime_rejects_a_timing_only_instance(zcu_small, rng, mode):
    runtime = CedrRuntime(zcu_small.build(seed=0), RuntimeConfig(scheduler="rr"))
    runtime.start()
    inst = WifiTx(n_packets=4).make_instance(mode, rng, timing_only=True)
    with pytest.raises(TimingOnlyAppError, match="'TX'") as err:
        runtime.submit(inst, at=0.0)
    assert err.value.app_name == "TX"
    assert not runtime.apps  # rejected before any bookkeeping


# --------------------------------------------------------------------- #
# parity: stand-ins vs synthesized frames, bit for bit
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("scheduler", ["rr", "etf"])
@pytest.mark.parametrize("mode", ["api", "dag"])
@pytest.mark.parametrize("name", APPS)
def test_run_once_parity(monkeypatch, name, mode, scheduler):
    app = make_app(name)
    platform = zcu102(n_cpu=3, n_fft=1, n_mmult=1)
    entries = (WorkloadEntry(app, 2),)
    frames = record_inputs(monkeypatch, app)
    config = RuntimeConfig(scheduler=scheduler, execute_kernels=False)
    lean = run_once(platform, WorkloadSpec("parity", entries), mode, 200.0, 3, config)
    assert not frames
    full = run_once(platform, SynthesizingWorkload("parity", entries), mode, 200.0, 3, config)
    assert len(frames) == 2
    assert hexed(lean) == hexed(full)


@pytest.mark.parametrize("mode", ["api", "dag"])
def test_serve_once_parity(monkeypatch, zcu_small, mode):
    apps = tuple(make_app(name) for name in APPS if name != "LD")
    serve = ServeConfig(
        tenants=(TenantSpec("mix", ArrivalSpec.make("poisson", rate=12.0), apps=apps),),
        duration=1.0,
        mode=mode,
    )
    config = RuntimeConfig(scheduler="heft_rt", execute_kernels=False)
    lean = serve_once(zcu_small, serve, 5, config)
    assert lean.completed > len(apps)

    # a timing-only driver builds no payload stream: draw from the one a
    # synthesizing driver would build, at the same label
    payload_rngs = {}

    def synthesizing(self, tenant):
        apps, _ = self._payloads[tenant]
        if tenant not in payload_rngs:
            payload_rngs[tenant] = child_rng(5, f"serve.apps.{tenant}")
        payload_rng = payload_rngs[tenant]
        app = next(apps)
        return app.make_instance(self.serve.mode, payload_rng, inputs=app.make_input(payload_rng))

    monkeypatch.setattr(ServeDriver, "_next_instance", synthesizing)
    assert hexed(serve_once(zcu_small, serve, 5, config)) == hexed(lean)


# --------------------------------------------------------------------- #
# one parsed program per application structure
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", APPS)
def test_dag_instances_share_the_program_not_the_state(name, rng):
    app = make_app(name)
    first = app.make_instance("dag", rng)
    second = app.make_instance("dag", rng, timing_only=True)
    assert first.dag is second.dag
    assert first.initial_state is not second.initial_state
    assert first.initial_state.keys() == second.initial_state.keys()


def test_dag_program_is_parsed_once_per_structure(monkeypatch, rng):
    from repro.dag import DagBuilder

    builds = []
    build = DagBuilder.build
    monkeypatch.setattr(DagBuilder, "build", lambda self: builds.append(self.name) or build(self))
    app = WifiTx(n_packets=8, batch=2)
    for _ in range(5):
        app.make_instance("dag", rng, timing_only=True)
    assert builds == ["TX"]


@pytest.mark.parametrize(
    "name,attr,value",
    [
        ("PD", "batch", 4),
        ("PD", "geom", dataclasses.replace(PulseDoppler().geom, n_pulses=64)),
        ("TX", "n_packets", 10),
        ("RX", "batch", 2),
        ("LD", "batch", 16),
        ("TM", "n_blocks", 8),
    ],
)
def test_structural_mutation_yields_a_fresh_program(name, attr, value, rng):
    app = make_app(name)
    before = app.make_instance("dag", rng, timing_only=True).dag
    setattr(app, attr, value)
    after = app.make_instance("dag", rng, timing_only=True)
    assert after.dag is not before
    assert after.dag.n_nodes != before.n_nodes
    # the fresh program matches what a fresh app of that structure builds
    twin = make_app(name)
    setattr(twin, attr, value)
    fresh = twin.make_instance("dag", rng, timing_only=True)
    assert fresh.dag.spec == after.dag.spec
    assert fresh.initial_state.keys() == after.initial_state.keys()


def test_mutated_app_still_computes_its_reference(zcu_small, rng):
    """A shared program holds no frame: after a structural change the next
    instance runs the new graph over its own data."""
    app = make_app("TM", n_blocks=6)
    app.make_instance("dag", rng, inputs=app.make_input(rng))
    app.n_blocks = 3
    inputs = app.make_input(rng)
    runtime = CedrRuntime(zcu_small.build(seed=2), RuntimeConfig(scheduler="eft"))
    runtime.start()
    inst = app.make_instance("dag", rng, inputs=inputs)
    runtime.submit(inst, at=0.0)
    runtime.seal()
    runtime.run()
    assert np.allclose(inst.state["result"].clean, app.reference(inputs).clean, atol=1e-9)


@pytest.mark.parametrize("name", APPS)
def test_cached_program_is_not_observable_app_state(name, rng):
    app = make_app(name)
    digest = cell_digest((app,))[0]
    before = dict(vars(app))
    app.make_instance("dag", rng, timing_only=True)
    assert vars(app).keys() == before.keys()
    assert cell_digest((app,))[0] == digest  # sweep-cache key unmoved
    clone = pickle.loads(pickle.dumps(app))  # pool workers get a bare app
    assert clone.make_instance("dag", rng, timing_only=True).dag is not None


# --------------------------------------------------------------------- #
# the functional path is untouched
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", APPS)
def test_payload_rng_order_is_pinned(monkeypatch, name):
    app = make_app(name)
    frames = record_inputs(monkeypatch, app)
    pairs = WorkloadSpec("pin", (WorkloadEntry(app, 3),)).instantiate("api", 100.0, 0)
    assert not any(inst.timing_only for inst, _ in pairs)
    assert [inputs_digest(f) for f in frames] == INPUT_PINS[name]


@pytest.mark.parametrize("mode", ["api", "dag"])
def test_repro_run_without_timing_only_matches_reference(monkeypatch, capsys, mode):
    pd_frames = record_inputs(monkeypatch, PulseDoppler)
    tx_frames = record_inputs(monkeypatch, WifiTx)
    runtimes = []
    run = CedrRuntime.run
    monkeypatch.setattr(CedrRuntime, "run", lambda self: runtimes.append(self) or run(self))

    assert main(["run", "--apps", "PD:2,TX:2", "--mode", mode, "--seed", "0"]) == 0
    capsys.readouterr()

    (runtime,) = runtimes
    apps = sorted(runtime.apps.values(), key=lambda a: a.app_id)
    pds = [a for a in apps if a.name == "PD"]
    txs = [a for a in apps if a.name == "TX"]
    assert len(pds) == len(pd_frames) == 2 and len(txs) == len(tx_frames) == 2
    for inst, frame in zip(pds, pd_frames):
        got = inst.result if mode == "api" else inst.state["detection"]
        ref = make_app("PD").reference(frame)
        assert (got.range_bin, got.doppler_bin) == (ref.range_bin, ref.doppler_bin)
    for inst, frame in zip(txs, tx_frames):
        got = inst.result if mode == "api" else inst.state["frame"]
        assert np.allclose(got, make_app("TX").reference(frame), atol=1e-8)


def test_repro_run_timing_only_synthesizes_nothing(monkeypatch, capsys):
    frames = record_inputs(monkeypatch, PulseDoppler)
    assert main(["run", "--apps", "PD:2", "--timing-only"]) == 0
    capsys.readouterr()
    assert not frames
