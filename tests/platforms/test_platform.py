"""Platform configuration and instantiation tests."""

import pytest

from repro.platforms import (
    PEKind,
    PlatformConfig,
    jetson,
    jetson_timing,
    zcu102,
    zcu102_timing,
)
from repro.platforms.pe import CPU_ONLY_API, PEDescriptor, SUPPORT_MATRIX


def test_zcu102_defaults():
    cfg = zcu102()
    assert cfg.n_worker_cores == 3
    assert cfg.n_cpu_workers == 3
    assert cfg.accelerators == (PEKind.FFT,)
    assert cfg.n_pes == 4
    assert cfg.timing.cpu_clock_ghz == 1.2


def test_zcu102_fft_range_enforced():
    zcu102(n_fft=0)
    zcu102(n_fft=8)
    with pytest.raises(ValueError):
        zcu102(n_fft=9)


def test_jetson_defaults():
    cfg = jetson()
    assert cfg.n_worker_cores == 7
    assert cfg.n_cpu_workers == 7
    assert cfg.accelerators == (PEKind.GPU,)
    assert cfg.timing.cpu_clock_ghz == 2.3


def test_jetson_cpu_range_enforced():
    with pytest.raises(ValueError):
        jetson(n_cpu=0)
    with pytest.raises(ValueError):
        jetson(n_cpu=8)


def test_cpu_worker_count_cannot_exceed_cores():
    with pytest.raises(ValueError, match="do not fit"):
        PlatformConfig(
            name="bad", n_worker_cores=2, n_cpu_workers=3,
            accelerators=(), timing=zcu102_timing(),
        )


def test_accelerator_kind_validated():
    with pytest.raises(ValueError, match="not an accelerator"):
        PlatformConfig(
            name="bad", n_worker_cores=2, n_cpu_workers=2,
            accelerators=(PEKind.CPU,), timing=zcu102_timing(),
        )


def test_accelerator_needs_clock():
    with pytest.raises(ValueError, match="lacks a clock"):
        PlatformConfig(
            name="bad", n_worker_cores=2, n_cpu_workers=2,
            accelerators=(PEKind.GPU,), timing=zcu102_timing(),
        )


@pytest.mark.parametrize("alpha", [float("nan"), -2.0, float("inf")], ids=["nan", "neg", "inf"])
def test_cs_alpha_validated(alpha):
    """Checked beside ``little_speed``: a NaN penalty used to stall every
    core's clock, and a negative one failed mid-run."""
    with pytest.raises(ValueError, match="cs_alpha must be finite and >= 0"):
        PlatformConfig(
            name="bad", n_worker_cores=2, n_cpu_workers=2,
            accelerators=(), timing=zcu102_timing(), cs_alpha=alpha,
        )


def test_describe_pes_placement_zcu():
    """FFT management threads round-robin over the three worker cores."""
    cfg = zcu102(n_cpu=3, n_fft=4)
    descs = cfg.describe_pes()
    cpu_hosts = [d.host_core_index for d in descs if d.kind is PEKind.CPU]
    fft_hosts = [d.host_core_index for d in descs if d.kind is PEKind.FFT]
    assert cpu_hosts == [0, 1, 2]
    assert fft_hosts == [0, 1, 2, 0]


def test_describe_pes_gpu_gets_spare_core_on_jetson():
    """With <7 CPU workers the GPU management thread sits on its own core,
    matching the paper's 'one is dedicated for GPU management'."""
    cfg = jetson(n_cpu=3, n_gpu=1)
    descs = cfg.describe_pes()
    gpu = [d for d in descs if d.kind is PEKind.GPU][0]
    assert gpu.host_core_index == 3  # past the CPU workers, a spare core


def test_build_creates_engine_cores_devices():
    inst = zcu102(n_cpu=3, n_fft=2, n_mmult=1).build(seed=5)
    assert len(inst.worker_cores) == 3
    assert inst.runtime_core.name == "runtime-core"
    assert len(inst.engine.cores) == 4
    devices = [pe.device for pe in inst.accel_pes]
    assert len({id(dev) for dev in devices}) == 3
    assert all(dev.engine is inst.engine for dev in devices)
    assert len(inst.pes) == 6
    assert sum(pe.kind is PEKind.CPU for pe in inst.pes) == 3
    assert len(inst.accel_pes) == 3
    # floating pool excludes the reserved runtime core
    assert inst.runtime_core not in inst.engine.floating_pool


def test_pes_supporting():
    inst = zcu102(n_cpu=3, n_fft=1, n_mmult=1).build()
    assert len(inst.pes_supporting("fft")) == 4   # 3 CPUs + FFT accel
    assert len(inst.pes_supporting("gemm")) == 4  # 3 CPUs + MMULT
    assert len(inst.pes_supporting("zip")) == 3   # CPUs only on the ZCU102
    assert len(inst.pes_supporting(CPU_ONLY_API)) == 3


def test_support_matrix_sanity():
    assert SUPPORT_MATRIX[PEKind.FFT] == frozenset({"fft", "ifft"})
    assert CPU_ONLY_API in SUPPORT_MATRIX[PEKind.CPU]
    assert not PEKind.CPU.is_accelerator
    assert PEKind.GPU.is_accelerator


def test_pe_descriptor_supports():
    d = PEDescriptor(name="fft0", kind=PEKind.FFT, clock_ghz=0.3)
    assert d.supports("fft") and d.supports("ifft")
    assert not d.supports("zip")


def test_cs_alpha_propagates_to_cores():
    inst = zcu102().build()
    assert all(c.cs_alpha == pytest.approx(0.06) for c in inst.worker_cores)


def test_timing_presets_distinct():
    z, j = zcu102_timing(), jetson_timing()
    assert z.cpu_clock_ghz < j.cpu_clock_ghz
    assert PEKind.FFT in z.accel_clock_ghz
    assert PEKind.GPU in j.accel_clock_ghz
