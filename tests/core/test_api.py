"""libCEDR API tests: blocking/non-blocking calls, handles, standalone mode."""

import numpy as np
import pytest

from repro.core import (
    ImmediateRequest,
    ModuleSet,
    StandaloneCedr,
    build_api_map,
    run_standalone,
    wait_all,
)
from repro.core.modules import STANDARD_MODULES
from repro.platforms import PEKind, zcu102
from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig


def run_api_app(main_factory, scheduler="eft", seed=3, **cfg):
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler, **cfg))
    runtime.start()
    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main_factory)
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    return app, runtime


# --------------------------------------------------------------------- #
# blocking APIs
# --------------------------------------------------------------------- #

def test_each_call_interns_its_shape_once(rng, monkeypatch):
    """The submit path interns a call's (api, params) shape on the shape's
    first call only - later calls probe the interned row - and the row id
    rides on the task through the ready-queue push and the scheduling round."""
    from repro.platforms.timing import CostTable

    x = rng.normal(size=64) + 0j
    lookups = []
    row = CostTable.row
    monkeypatch.setattr(
        CostTable, "row", lambda self, api, params: lookups.append(api) or row(self, api, params)
    )

    def main(lib):
        for _ in range(4):
            spec = yield from lib.fft(x)
        reqs = []
        for _ in range(3):
            reqs.append((yield from lib.zip_nb(spec, spec)))
        yield from wait_all(reqs)

    _, runtime = run_api_app(main)
    assert runtime.counters.tasks_completed == 7
    # seven calls, two shapes: one interning per shape, and nothing after
    # the submit path (push, round, worker) looks a shape up again
    assert lookups == ["fft", "zip"]
    assert {rec.cost_row for rec in runtime.logbook.tasks} == {0, 1}


def test_every_blocking_api_roundtrips(rng):
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(4, 5))

    def main(lib):
        spec = yield from lib.fft(x)
        back = yield from lib.ifft(spec)
        prod = yield from lib.zip(x, x)
        mm = yield from lib.gemm(a, b)
        return back, prod, mm

    app, _ = run_api_app(main)
    back, prod, mm = app.result
    assert np.allclose(back, x, atol=1e-9)
    assert np.allclose(prod, x * x)
    assert np.allclose(mm, a @ b)


def test_blocking_call_returns_only_after_completion(rng):
    x = rng.normal(size=256) + 0j
    times = {}

    def main(lib):
        t0 = lib.engine.now
        yield from lib.fft(x)
        times["elapsed"] = lib.engine.now - t0
        return None

    run_api_app(main)
    # at least the CPU service time of a 256-pt FFT must have passed
    assert times["elapsed"] >= 1e-4


# --------------------------------------------------------------------- #
# non-blocking APIs
# --------------------------------------------------------------------- #

def test_nonblocking_overlaps_and_test_never_lies(rng):
    x = rng.normal(size=256) + 0j

    def main(lib):
        req = yield from lib.fft_nb(x)
        issued_done = req.test()  # just issued: must not be complete
        out = yield from req.wait()
        assert req.test()
        return issued_done, out

    app, _ = run_api_app(main)
    issued_done, out = app.result
    assert issued_done is False
    assert np.allclose(out, np.fft.fft(x), atol=1e-8)


def test_nonblocking_wait_idempotent(rng):
    x = rng.normal(size=64) + 0j

    def main(lib):
        req = yield from lib.fft_nb(x)
        a = yield from req.wait()
        b = yield from req.wait()
        return a, b

    app, _ = run_api_app(main)
    a, b = app.result
    assert np.allclose(a, b)


def test_result_before_completion_raises(rng):
    x = rng.normal(size=64) + 0j
    errors = []

    def main(lib):
        req = yield from lib.fft_nb(x)
        try:
            _ = req.result
        except RuntimeError as exc:
            errors.append(str(exc))
        yield from req.wait()
        return req.result

    app, _ = run_api_app(main)
    assert errors and "not ready" in errors[0]
    assert app.result is not None


def test_wait_all_preserves_order(rng):
    xs = [rng.normal(size=64) + 0j for _ in range(5)]

    def main(lib):
        reqs = []
        for x in xs:
            reqs.append((yield from lib.fft_nb(x)))
        return (yield from wait_all(reqs))

    app, _ = run_api_app(main)
    for out, x in zip(app.result, xs):
        assert np.allclose(out, np.fft.fft(x), atol=1e-8)


def test_nonblocking_faster_than_blocking_for_parallel_work(rng):
    """The paper's Section II-C claim in miniature."""
    xs = [rng.normal(size=1024) + 0j for _ in range(9)]

    def blocking(lib):
        outs = []
        for x in xs:
            outs.append((yield from lib.fft(x)))
        return outs

    def nonblocking(lib):
        reqs = []
        for x in xs:
            reqs.append((yield from lib.fft_nb(x)))
        return (yield from wait_all(reqs))

    app_b, _ = run_api_app(blocking, execute_kernels=False)
    app_nb, _ = run_api_app(nonblocking, execute_kernels=False)
    assert app_nb.execution_time < app_b.execution_time / 1.5


# --------------------------------------------------------------------- #
# standalone mode
# --------------------------------------------------------------------- #

def test_standalone_matches_runtime(rng):
    x = rng.normal(size=128) + 1j * rng.normal(size=128)

    def main(lib):
        spec = yield from lib.fft(x)
        req = yield from lib.zip_nb(spec, spec)
        prod = yield from req.wait()
        return (yield from lib.ifft(prod))

    standalone = run_standalone(main)
    app, _ = run_api_app(main)
    assert np.allclose(standalone, app.result, atol=1e-9)


def test_standalone_gemm_and_local_work(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    def main(lib):
        yield from lib.local_work(1e-6)
        req = yield from lib.gemm_nb(a, b)
        return (yield from req.wait())

    assert np.allclose(run_standalone(main), a @ b)


def test_standalone_rejects_negative_local_work():
    lib = StandaloneCedr()
    with pytest.raises(ValueError):
        next(lib.local_work(-1.0))


def test_immediate_request_contract():
    req = ImmediateRequest(123, api="fft")
    assert req.test()
    assert req.result == 123


# --------------------------------------------------------------------- #
# module system
# --------------------------------------------------------------------- #

def test_module_sets_for_platforms():
    z = ModuleSet.for_zcu102()
    assert set(z.names) == {"fft", "mmult"}
    j = ModuleSet.for_jetson()
    assert set(j.names) == {"cuda_fft", "cuda_zip"}


def test_unknown_module_rejected():
    with pytest.raises(KeyError, match="unknown libCEDR modules"):
        ModuleSet(("tpu",))


def test_api_map_always_has_cpu_paths():
    api_map = build_api_map(ModuleSet(()))  # no modules enabled
    kinds = {kind for _, kind in api_map}
    assert kinds == {PEKind.CPU}
    assert ("fft", PEKind.CPU) in api_map


def test_api_map_modules_add_accelerators():
    api_map = build_api_map(ModuleSet.for_zcu102())
    assert ("fft", PEKind.FFT) in api_map
    assert ("gemm", PEKind.MMULT) in api_map
    assert ("zip", PEKind.GPU) not in api_map
    jmap = build_api_map(ModuleSet.for_jetson())
    assert ("zip", PEKind.GPU) in jmap


def test_standard_modules_are_consistent():
    for module in STANDARD_MODULES.values():
        impls = module.implementations()
        assert set(impls) == set(module.provides)
