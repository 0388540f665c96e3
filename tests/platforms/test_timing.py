"""Timing-model tests: cost monotonicity, scaling, and error paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms import (
    PE,
    CostTable,
    PEDescriptor,
    PEKind,
    ShapeOutsideEnvelope,
    jetson_timing,
    zcu102,
    zcu102_timing,
)
from repro.runtime.task import Task
from repro.sched import SCHEDULERS, SchedulerError

pow2 = st.sampled_from([64, 128, 256, 512, 1024])


def make_pe(kind, name="pe"):
    return PE(index=0, desc=PEDescriptor(name=name, kind=kind, clock_ghz=1.0))


def test_replaced_model_prices_with_its_own_coefficients():
    """Regression: the model used to carry a memo as an ``init=True`` field,
    so ``dataclasses.replace`` handed the old model's
    cached costs to the new one - a 2.4 GHz copy priced at 1.2 GHz."""
    import dataclasses

    base = zcu102_timing()
    shape = ("fft", {"n": 1024, "batch": 4})
    slow = base.cpu_seconds(*shape)
    accel = base.accel_parts(*shape, PEKind.FFT)
    fast = dataclasses.replace(base, cpu_clock_ghz=2.4)
    assert fast.cpu_seconds(*shape) == slow / 2 == pytest.approx(0.0016384)
    assert dataclasses.replace(base, fabric_setup_us=36.0).accel_parts(
        *shape, PEKind.FFT
    ).setup == 2 * accel.setup
    assert not [f.name for f in dataclasses.fields(base) if not f.compare]  # no memo field


def test_cpu_fft_scales_with_n_log_n():
    t = zcu102_timing()
    c256 = t.cpu_seconds("fft", {"n": 256})
    c1024 = t.cpu_seconds("fft", {"n": 1024})
    assert c1024 / c256 == pytest.approx((1024 * 10) / (256 * 8))


@given(n=pow2, batch=st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_batch_scales_linearly(n, batch):
    t = zcu102_timing()
    single = t.cpu_seconds("fft", {"n": n, "batch": 1})
    batched = t.cpu_seconds("fft", {"n": n, "batch": batch})
    assert batched == pytest.approx(single * batch)


def test_faster_clock_is_cheaper():
    z, j = zcu102_timing(), jetson_timing()
    params = {"n": 1024}
    assert j.cpu_seconds("fft", params) < z.cpu_seconds("fft", params)
    assert j.cpu_seconds("fft", params) == pytest.approx(
        z.cpu_seconds("fft", params) * 1.2 / 2.3
    )


def test_cpu_op_uses_work_param():
    t = zcu102_timing()
    assert t.cpu_seconds("cpu_op", {"work_1ghz": 1.2e-3}) == pytest.approx(1e-3)


def test_unknown_api_raises():
    t = zcu102_timing()
    with pytest.raises(KeyError):
        t.cpu_seconds("dct", {"n": 8})
    with pytest.raises(KeyError):
        t.accel_parts("dct", {"n": 8}, PEKind.FFT)


def test_fft_ip_point_limit():
    t = zcu102_timing()
    t.accel_parts("fft", {"n": 2048}, PEKind.FFT)
    with pytest.raises(ValueError, match="2048-point"):
        t.accel_parts("fft", {"n": 4096}, PEKind.FFT)
    with pytest.raises(ShapeOutsideEnvelope):  # the dedicated type, a ValueError
        t.estimate("ifft", {"n": 4096, "batch": 2}, make_pe(PEKind.FFT))


def test_shape_outside_the_envelope_leaves_the_column_out_of_the_row():
    """Support is a property of the row: a 4096-point FFT keeps its CPU
    columns and drops the FFT accelerator, a 2048-point one keeps all."""
    instance = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    pes, timing = instance.pes, instance.timing
    table = CostTable(timing, pes)
    cpus = tuple(pe.index for pe in pes if pe.kind is PEKind.CPU)
    (fft0,) = (pe.index for pe in pes if pe.kind is PEKind.FFT)
    big = Task(api="fft", params={"n": 4096, "batch": 4}, app_id=0)
    fits = Task(api="fft", params={"n": 2048, "batch": 4}, app_id=0)
    est, cols = table.scalar_row(big)
    assert cols == cpus and est[fft0] == float("inf")
    assert table.means[big.cost_row] == timing.cpu_seconds("fft", big.params)
    assert table.scalar_row(fits)[1] == (*cpus, fft0)


@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS.names()))
def test_row_with_no_column_left_is_the_unsupported_api_error(sched_name):
    pes = [make_pe(PEKind.FFT, "fft0")]
    table = CostTable(zcu102_timing(), pes)
    task = Task(api="fft", params={"n": 4096, "batch": 1}, app_id=0)
    assert table.scalar_row(task)[1] == () and table.means[task.cost_row] is None
    with pytest.raises(SchedulerError, match="no PE supports API 'fft'"):
        SCHEDULERS.create(sched_name).schedule([task], pes, 0.0, table)


def test_accel_parts_all_positive():
    t = zcu102_timing()
    parts = t.accel_parts("fft", {"n": 1024, "batch": 4}, PEKind.FFT)
    assert parts.setup > 0 and parts.busy > 0 and parts.teardown > 0
    assert parts.total == pytest.approx(parts.setup + parts.busy + parts.teardown)


def test_fabric_parity_calibration():
    """DESIGN.md: the ZCU102 FFT IP is calibrated near CPU parity for the
    paper's sizes, so accelerators add threads, not free capacity."""
    t = zcu102_timing()
    for n in (256, 1024):
        cpu = t.cpu_seconds("fft", {"n": n})
        accel = t.accel_parts("fft", {"n": n}, PEKind.FFT).total
        assert 0.7 <= accel / cpu <= 1.6, f"parity broken at n={n}: {accel/cpu:.2f}"


def test_jetson_gpu_is_a_genuine_win():
    """The Jetson figures need a genuinely fast GPU path."""
    t = jetson_timing()
    cpu = t.cpu_seconds("fft", {"n": 1024, "batch": 8})
    gpu = t.accel_parts("fft", {"n": 1024, "batch": 8}, PEKind.GPU).total
    assert gpu < cpu / 3


def test_estimate_matches_paths():
    t = zcu102_timing()
    cpu_pe = make_pe(PEKind.CPU, "cpu0")
    fft_pe = make_pe(PEKind.FFT, "fft0")
    params = {"n": 512, "batch": 2}
    assert t.estimate("fft", params, cpu_pe) == pytest.approx(t.cpu_seconds("fft", params))
    assert t.estimate("fft", params, fft_pe) == pytest.approx(
        t.accel_parts("fft", params, PEKind.FFT).total
    )


def test_mmult_and_gpu_zip_models():
    z = zcu102_timing()
    parts = z.accel_parts("gemm", {"m": 64, "k": 64, "n": 64}, PEKind.MMULT)
    assert parts.total > 0
    j = jetson_timing()
    zp = j.accel_parts("zip", {"n": 4096}, PEKind.GPU)
    assert zp.setup > zp.busy  # memcpy/launch dominated


def test_noise_sampling():
    """A runtime's cost jitter is its ``sample_noise`` draw: log-normal
    around 1 at ``cost_noise_sigma > 0``, exactly 1.0 without noise."""
    from repro.runtime import CedrRuntime, RuntimeConfig

    def draws(sigma):
        platform = zcu102(n_cpu=3, n_fft=1).build(seed=2)
        runtime = CedrRuntime(platform, RuntimeConfig(cost_noise_sigma=sigma))
        return [runtime.sample_noise() for _ in range(200)]

    noisy = draws(0.1)
    assert all(d > 0 for d in noisy)
    assert 0.9 < float(np.median(noisy)) < 1.1
    assert len(set(noisy)) > 100  # actually random
    assert draws(0.0) == [1.0] * 200


def test_conv2d_cost_model():
    t = zcu102_timing()
    small = t.cpu_seconds("conv2d", {"h": 10, "w": 10, "kh": 3, "kw": 3})
    big = t.cpu_seconds("conv2d", {"h": 20, "w": 10, "kh": 3, "kw": 3})
    assert big == pytest.approx(2 * small)
