"""Property-based fuzzing of the runtime with random DAG topologies.

Hypothesis generates arbitrary layered DAGs of FFT/ZIP/IFFT kernels; every
one must run to completion on every scheduler with (a) all dependencies
respected in simulated time, (b) every task executed exactly once on a
supporting PE, and (c) a bit-identical result to a sequential NumPy
evaluation of the same graph.  This is the strongest general statement of
the runtime's correctness contract.

Two more fuzz surfaces ride on the audit layer (``repro.audit``): random
libCEDR call mixes (blocking/``_nb`` x ``wait_all``/``wait_any`` drain
orders) and random fault streams (rate x kind mix), each simulated
audited - a dispatch that breaks the scheduler contract aborts the run at
the offending round, and the invariant catalog is folded over the book at
shutdown.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import PulseDoppler
from repro.audit import audit_runtime
from repro.core import wait_all, wait_any
from repro.dag import DagBuilder
from repro.faults import FaultConfig
from repro.platforms import zcu102
from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig
from repro.telemetry import TelemetryConfig

N = 32  # vector length for all kernel payloads


@st.composite
def layered_dags(draw):
    """A random layered DAG description: layers of 1-3 unary kernel nodes,
    each consuming a randomly chosen output of the previous layer."""
    n_layers = draw(st.integers(1, 4))
    layers = []
    for li in range(n_layers):
        width = draw(st.integers(1, 3))
        layer = []
        for wi in range(width):
            api = draw(st.sampled_from(["fft", "ifft"]))
            src = 0 if li == 0 else draw(st.integers(0, len(layers[li - 1]) - 1))
            layer.append((api, src))
        layers.append(layer)
    return layers


def build_dag_from_layers(layers, data):
    b = DagBuilder("fuzz")
    b.cpu("init", lambda s: s.__setitem__("k0_0", data.copy()), 1e-6)
    prev_names = {0: "init"}
    prev_keys = {0: "k0_0"}
    for li, layer in enumerate(layers, start=1):
        names, keys = {}, {}
        for wi, (api, src) in enumerate(layer):
            key = f"k{li}_{wi}"
            name = b.kernel(
                f"n{li}_{wi}", api, {"n": N},
                [prev_keys[src]], key, after=[prev_names[src]],
            )
            names[wi], keys[wi] = name, key
        prev_names, prev_keys = names, keys
    return b.build(), prev_keys


def numpy_eval(layers, data):
    prev = {0: data.copy()}
    for layer in layers:
        cur = {}
        for wi, (api, src) in enumerate(layer):
            fn = np.fft.fft if api == "fft" else np.fft.ifft
            cur[wi] = fn(prev[src])
        prev = cur
    return prev


@given(layers=layered_dags(), seed=st.integers(0, 2**20),
       scheduler=st.sampled_from(["rr", "eft", "etf", "heft_rt", "met", "random"]))
@settings(max_examples=40, deadline=None)
def test_random_dags_run_correctly_on_every_scheduler(layers, seed, scheduler):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=N) + 1j * rng.normal(size=N)
    program, leaf_keys = build_dag_from_layers(layers, data)

    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler))
    runtime.start()
    app = AppInstance(name="fuzz", mode="dag", frame_mb=0.1, dag=program)
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()

    # (a) dependencies respected in time
    recs = {r.name: r for r in runtime.logbook.tasks}
    nodes = program.spec["nodes"]
    for name, node in nodes.items():
        for pred in node.get("after", []):
            assert recs[pred].t_finish <= recs[name].t_start + 1e-12

    # (b) exactly once, on supporting PEs
    assert len(recs) == program.n_nodes
    for rec in recs.values():
        if rec.api in ("fft", "ifft"):
            assert rec.pe_kind in ("cpu", "fft")
        else:
            assert rec.pe_kind == "cpu"

    # (c) numerics match a sequential evaluation
    expected = numpy_eval(layers, data)
    for wi, key in leaf_keys.items():
        assert np.allclose(app.state[key], expected[wi], atol=1e-8)


# --------------------------------------------------------------------- #
# fuzzing the libCEDR call surface: random blocking/_nb mixes and
# random synchronization (drain) orders, audited end to end
# --------------------------------------------------------------------- #

@st.composite
def api_call_plans(draw):
    """A random sequence of libCEDR calls: which API, blocking or ``_nb``,
    and how the in-flight window is drained at the end."""
    n_calls = draw(st.integers(1, 5))
    calls = [
        (
            draw(st.sampled_from(["fft", "ifft", "zip", "gemm"])),
            draw(st.booleans()),  # blocking?
        )
        for _ in range(n_calls)
    ]
    drain = draw(st.sampled_from(["wait_all", "wait_any"]))
    return calls, drain


def make_api_main(calls, drain, vec, a, b):
    """Application main exercising the drawn call plan.

    Results are keyed by call index so wait_any's completion-order drain
    still lets every call be verified against its own reference value.
    """
    def main(lib):
        results = {}
        pending, pending_idx = [], []
        for i, (api, blocking) in enumerate(calls):
            args = (vec,) if api in ("fft", "ifft") else (
                (vec, vec) if api == "zip" else (a, b)
            )
            if blocking:
                results[i] = yield from getattr(lib, api)(*args)
            else:
                req = yield from getattr(lib, api + "_nb")(*args)
                pending.append(req)
                pending_idx.append(i)
        if drain == "wait_all":
            outs = yield from wait_all(pending)
            results.update(zip(pending_idx, outs))
        else:
            while pending:
                k, out = yield from wait_any(pending)
                results[pending_idx[k]] = out
                pending.pop(k)
                pending_idx.pop(k)
        return results
    return main


@given(plan=api_call_plans(), seed=st.integers(0, 2**20),
       scheduler=st.sampled_from(["rr", "eft", "etf", "heft_rt"]))
@settings(max_examples=25, deadline=None)
def test_random_api_call_mixes_run_correctly_audited(plan, seed, scheduler):
    calls, drain = plan
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=N) + 1j * rng.normal(size=N)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(4, 5))

    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    config = RuntimeConfig(scheduler=scheduler, audit=True)
    runtime = CedrRuntime(platform, config)
    runtime.start()
    app = AppInstance(name="api-fuzz", mode=API_MODE, frame_mb=0.1,
                      main_factory=make_api_main(calls, drain, vec, a, b))
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()  # round contract + shutdown catalog fold raise on damage

    expected = {
        "fft": lambda: np.fft.fft(vec),
        "ifft": lambda: np.fft.ifft(vec),
        "zip": lambda: vec * vec,
        "gemm": lambda: a @ b,
    }
    assert set(app.result) == set(range(len(calls)))
    for i, (api, _) in enumerate(calls):
        assert np.allclose(app.result[i], expected[api](), atol=1e-8)
    assert runtime.logbook.rounds and runtime.logbook.tasks
    assert audit_runtime(runtime).ok


# --------------------------------------------------------------------- #
# fuzzing fault streams: random rate/kind mixes must never break the
# invariant catalog (conservation under retries, quarantine honesty, ...)
# --------------------------------------------------------------------- #

@given(rate=st.sampled_from([5.0, 20.0, 60.0]),
       kinds=st.sets(
           st.sampled_from(["transient", "hang", "slowdown", "failstop"]),
           min_size=1),
       seed=st.integers(0, 2**16),
       scheduler=st.sampled_from(["rr", "eft", "etf"]))
@settings(max_examples=15, deadline=None)
def test_random_fault_streams_hold_the_invariant_catalog(
        rate, kinds, seed, scheduler):
    faults = FaultConfig(
        rate=rate, seed=seed,
        kinds=FaultConfig.parse_kinds(",".join(sorted(kinds))),
    )
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    # telemetry on: the registry folded from the rows at shutdown still
    # counts every loss under every fault mix
    config = RuntimeConfig(scheduler=scheduler, execute_kernels=False,
                           audit=True, faults=faults,
                           telemetry=TelemetryConfig())
    runtime = CedrRuntime(platform, config)
    runtime.start()
    rng = np.random.default_rng(seed)
    pd = PulseDoppler(batch=16)
    runtime.submit(pd.make_instance("dag", rng), at=0.0)
    runtime.submit(pd.make_instance("api", rng), at=0.001)
    runtime.seal()
    runtime.run()  # every round held to the contract; the fold at shutdown

    report = audit_runtime(runtime)
    assert report.ok, report.summary()
    assert runtime.logbook.rounds
    # under faults the ledger still balances: losses == failed apps
    counters = runtime.counters
    failed = sum(1 for a in runtime.apps.values() if a.failed)
    assert counters.tasks_lost == failed
    assert runtime.telemetry.flat_values()["cedr_tasks_lost_total"] == failed
