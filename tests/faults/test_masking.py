"""Scheduler live-mask tests: the shared ``live_columns`` filter and
end-to-end masking."""

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.faults import FaultConfig, FaultKind, FaultSpec
from repro.metrics import RunResult
from repro.platforms import CostTable, zcu102, zcu102_timing
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.runtime.task import Task
from repro.sched import available_schedulers
from repro.sched.base import SchedulerError, live_columns


@pytest.fixture
def pes():
    return zcu102(n_cpu=3, n_fft=1).build(seed=0).pes


def compatible(task, pes):
    """The PEs a scheduling round may pick from: the task's interned row
    columns through the one filter every heuristic shares."""
    _, cols = CostTable(zcu102_timing(), pes).scalar_row(task)
    return [pes[j] for j in live_columns(task, cols, pes)]


def fft_task(**kwargs):
    task = Task(api="fft", params={"n": 128, "batch": 1}, app_id=0)
    for key, value in kwargs.items():
        setattr(task, key, value)
    return task


def test_compatible_defaults_to_support_filter(pes):
    got = compatible(fft_task(), pes)
    assert got == [pe for pe in pes if pe.supports("fft")]


def test_compatible_drops_unavailable_pes(pes):
    pes[0].available = False
    got = compatible(fft_task(), pes)
    assert pes[0] not in got
    assert all(pe.available for pe in got)


def test_compatible_raises_when_no_pe_supports(pes):
    with pytest.raises(SchedulerError, match="no PE supports"):
        compatible(Task(api="warp_drive", params={}, app_id=0), pes)


def test_compatible_raises_when_all_supporters_down(pes):
    for pe in pes:
        pe.available = False
    with pytest.raises(SchedulerError, match="no live PE"):
        compatible(fft_task(), pes)


def test_compatible_honors_retry_bans(pes):
    supporters = [pe for pe in pes if pe.supports("fft")]
    banned = frozenset({supporters[0].index})
    got = compatible(fft_task(banned_pes=banned), pes)
    assert supporters[0] not in got
    assert got


def test_compatible_ban_fallback_keeps_task_runnable(pes):
    # banning every live candidate must fall back to the live set rather
    # than leaving the task unschedulable
    supporters = [pe for pe in pes if pe.supports("fft")]
    banned = frozenset(pe.index for pe in supporters)
    got = compatible(fft_task(banned_pes=banned), pes)
    assert got == supporters


@pytest.mark.parametrize("scheduler", available_schedulers())
def test_dead_pe_receives_no_tasks(scheduler):
    cfg = FaultConfig(script=(FaultSpec(at=0.0, pe="fft0", kind=FaultKind.FAILSTOP),))
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=1)
    runtime = CedrRuntime(
        platform,
        RuntimeConfig(scheduler=scheduler, execute_kernels=False, faults=cfg),
    )
    runtime.start()
    rng = np.random.default_rng(1)
    for i in range(2):
        runtime.submit(PulseDoppler(batch=4).make_instance("api", rng), at=i * 1e-3)
    runtime.seal()
    runtime.run()
    result = RunResult.from_runtime(runtime)
    assert result.pe_task_histogram.get("fft0", 0) == 0
    assert result.n_apps == 2 and result.n_failed == 0
