"""Tests for the extra CEDR-repertoire heuristics: MET and random."""

import pytest

from repro.platforms import PE, PEDescriptor, PEKind
from repro.runtime.task import Task
from repro.sched import SCHEDULERS, SchedulerError, extra_schedulers


def make_pes(*kinds):
    return [
        PE(index=i, desc=PEDescriptor(name=f"{kind.value}{i}", kind=kind, clock_ghz=1.0))
        for i, kind in enumerate(kinds)
    ]


def make_tasks(*apis):
    return [Task(api=api, params={"n": 64}, app_id=0, name=f"t{i}")
            for i, api in enumerate(apis)]


def accel_fast(task, pe):
    return 0.25 if pe.kind.is_accelerator else 1.0


def test_extra_schedulers_registered():
    for name in extra_schedulers():
        assert SCHEDULERS.create(name).name == name


def test_met_picks_fastest_pe_type():
    sched = SCHEDULERS.create("met")
    pes = make_pes(PEKind.CPU, PEKind.CPU, PEKind.FFT)
    out = sched.schedule(make_tasks("fft"), pes, 0.0, accel_fast)
    assert out[0][1].kind is PEKind.FFT


def test_met_is_queue_blind():
    """MET ignores backlog entirely - its defining (mis)feature."""
    sched = SCHEDULERS.create("met")
    pes = make_pes(PEKind.CPU, PEKind.FFT)
    pes[1].expected_free = 100.0  # hopelessly backlogged accelerator
    out = sched.schedule(make_tasks("fft"), pes, 0.0, accel_fast)
    assert out[0][1].kind is PEKind.FFT  # still the "fastest" type


def test_met_round_robins_over_equal_replicas():
    sched = SCHEDULERS.create("met")
    pes = make_pes(PEKind.CPU, PEKind.FFT, PEKind.FFT, PEKind.FFT)
    tasks = make_tasks("fft", "fft", "fft", "fft", "fft", "fft")
    out = sched.schedule(tasks, pes, 0.0, accel_fast)
    counts = {}
    for _, pe in out:
        counts[pe.name] = counts.get(pe.name, 0) + 1
    assert counts == {"fft1": 2, "fft2": 2, "fft3": 2}


def test_met_unsupported_api_raises():
    sched = SCHEDULERS.create("met")
    with pytest.raises(SchedulerError):
        sched.schedule(make_tasks("zip"), make_pes(PEKind.FFT), 0.0, accel_fast)


def test_random_only_picks_supporting_pes():
    sched = SCHEDULERS.create("random", seed=42)
    pes = make_pes(PEKind.CPU, PEKind.FFT, PEKind.MMULT)
    tasks = make_tasks(*(["zip"] * 20))
    out = sched.schedule(tasks, pes, 0.0, accel_fast)
    assert all(pe.kind is PEKind.CPU for _, pe in out)


def test_random_is_seed_reproducible():
    def run(seed):
        sched = SCHEDULERS.create("random", seed=seed)
        pes = make_pes(PEKind.CPU, PEKind.CPU, PEKind.FFT)
        return [pe.name for _, pe in
                sched.schedule(make_tasks(*(["fft"] * 10)), pes, 0.0, accel_fast)]

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_random_eventually_uses_every_pe():
    sched = SCHEDULERS.create("random", seed=0)
    pes = make_pes(PEKind.CPU, PEKind.CPU, PEKind.FFT)
    out = sched.schedule(make_tasks(*(["fft"] * 60)), pes, 0.0, accel_fast)
    assert {pe.name for _, pe in out} == {"cpu0", "cpu1", "fft2"}


def test_extra_schedulers_work_end_to_end(rng):
    """MET and random drive the real runtime to correct results."""
    import numpy as np

    from repro.platforms import zcu102
    from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig

    data = rng.normal(size=64) + 1j * rng.normal(size=64)

    def main(lib):
        spec = yield from lib.fft(data)
        return (yield from lib.ifft(spec))

    for name in extra_schedulers():
        platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
        runtime = CedrRuntime(platform, RuntimeConfig(scheduler=name))
        runtime.start()
        app = AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main)
        runtime.submit(app, at=0.0)
        runtime.seal()
        runtime.run()
        assert np.allclose(app.result, data, atol=1e-9), name
