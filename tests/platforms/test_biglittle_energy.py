"""big.LITTLE platform extension and energy-model tests."""

import numpy as np
import pytest

from repro.platforms import (
    JETSON_POWER,
    ZCU102_POWER,
    PEKind,
    PlatformConfig,
    estimate_energy,
    jetson,
    zcu102,
    zcu102_biglittle,
    zcu102_timing,
)
from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig


def test_biglittle_factory_defaults():
    cfg = zcu102_biglittle()
    assert cfg.n_worker_cores == 3
    assert cfg.n_little_cores == 4
    assert cfg.little_speed == pytest.approx(0.45)
    assert len(cfg.accelerators) == 8


def test_biglittle_validation():
    with pytest.raises(ValueError, match="LITTLE core"):
        zcu102_biglittle(n_little=0)
    with pytest.raises(ValueError, match="little_speed"):
        PlatformConfig(
            name="bad", n_worker_cores=2, n_cpu_workers=2, accelerators=(),
            timing=zcu102_timing(), n_little_cores=1, little_speed=0.0,
        )


def test_management_threads_land_on_little_cores():
    cfg = zcu102_biglittle(n_big=3, n_little=2, n_fft=4)
    descs = cfg.describe_pes()
    fft_hosts = [d.host_core_index for d in descs if d.kind is PEKind.FFT]
    # LITTLE cores sit at indexes 3, 4; management threads round-robin there
    assert fft_hosts == [3, 4, 3, 4]


def test_build_creates_slow_little_cores():
    inst = zcu102_biglittle(n_big=3, n_little=4, n_fft=2).build()
    assert len(inst.big_cores) == 3
    assert len(inst.little_cores) == 4
    assert all(c.speed == pytest.approx(0.45) for c in inst.little_cores)
    assert all(c.speed == 1.0 for c in inst.big_cores)
    # floating application threads must stay off the LITTLE cores
    assert set(inst.engine.floating_pool) == set(inst.big_cores)
    # accelerator workers are hosted on LITTLEs
    for pe in inst.accel_pes:
        assert pe.host_core in inst.little_cores


def test_baseline_platforms_have_no_littles():
    assert zcu102().build().little_cores == []
    assert jetson().build().little_cores == []


def test_biglittle_runs_functionally(rng):
    data = rng.normal(size=256) + 1j * rng.normal(size=256)

    def main(lib):
        spec = yield from lib.fft(data)
        return (yield from lib.ifft(spec))

    platform = zcu102_biglittle(n_big=3, n_little=2, n_fft=2).build(seed=0)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="rr"))
    runtime.start()
    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main)
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    assert np.allclose(app.result, data, atol=1e-9)


def test_biglittle_relieves_management_contention():
    """The future-work hypothesis in miniature: with 8 FFT management
    threads, adding LITTLE hosts speeds up an accelerator-light workload."""
    from repro.experiments import run_once
    from repro.workload import radar_comms_workload

    wl = radar_comms_workload()
    config = RuntimeConfig(scheduler="rr", execute_kernels=False)
    base = run_once(zcu102(n_cpu=3, n_fft=8), wl, "api", 1000.0, 1, config)
    bl = run_once(zcu102_biglittle(n_big=3, n_little=4, n_fft=8), wl, "api", 1000.0, 1, config)
    assert bl.mean_exec_time < base.mean_exec_time


# --------------------------------------------------------------------- #
# energy model
# --------------------------------------------------------------------- #

def run_small(platform_cfg, rng):
    data = rng.normal(size=1024) + 0j

    def main(lib):
        for _ in range(20):
            data2 = yield from lib.fft(data)
        return None

    platform = platform_cfg.build(seed=0)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="rr",
                                                  execute_kernels=False))
    runtime.start()
    app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main)
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    return platform


def test_energy_breakdown_positive_and_consistent(rng):
    platform = run_small(zcu102(n_cpu=3, n_fft=2), rng)
    energy = estimate_energy(platform)
    assert energy.total_j > 0
    assert energy.total_j == pytest.approx(
        energy.cpu_j + energy.little_j + energy.accel_j + energy.static_j
    )
    assert energy.makespan_s == pytest.approx(platform.engine.now)
    assert energy.average_power_w > ZCU102_POWER.platform_static_w


def test_energy_default_model_selection(rng):
    zcu_platform = run_small(zcu102(n_cpu=3, n_fft=1), rng)
    jet_platform = run_small(jetson(n_cpu=3), rng)
    e_zcu = estimate_energy(zcu_platform)
    e_jet = estimate_energy(jet_platform)
    # the Jetson preset draws far more power per unit time
    assert e_jet.average_power_w > e_zcu.average_power_w


def test_energy_littles_cheaper_than_bigs(rng):
    platform = run_small(zcu102_biglittle(n_big=3, n_little=4, n_fft=2), rng)
    energy = estimate_energy(platform)
    assert energy.little_j > 0      # the management spinners drew power
    assert energy.little_j < energy.cpu_j


def test_energy_explicit_power_model(rng):
    platform = run_small(zcu102(n_cpu=3, n_fft=1), rng)
    energy = estimate_energy(platform, power=JETSON_POWER)
    assert energy.average_power_w > estimate_energy(platform).average_power_w


def test_energy_rejects_negative_makespan(rng):
    platform = run_small(zcu102(n_cpu=3, n_fft=1), rng)
    with pytest.raises(ValueError):
        estimate_energy(platform, makespan=-1.0)
