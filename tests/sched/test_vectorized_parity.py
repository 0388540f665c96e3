"""Vectorized-vs-scalar scheduler parity.

Every heuristic must produce *bit-identical* decisions whether its
``estimate`` argument is the runtime's columnar
:class:`~repro.platforms.timing.CostTable` (the batched fast path) or a
plain scalar callable (the reference path) - same assignments in the same
order, and the same ``expected_free`` floats, with fault masks active or
not.  The table computes each row once through the very same
``TimingModel.estimate`` calls the scalar path makes, so equality here is
exact (``==`` on floats), not approximate.
"""

from __future__ import annotations

import pytest

from repro.platforms import PE, PEDescriptor, PEKind, jetson, zcu102
from repro.platforms.timing import CostTable, zcu102_timing
from repro.runtime.task import Task
from repro.sched import SCHEDULERS, SchedulerError

#: this file alone used to raise 120 of tier-1's 170 DeprecationWarnings
#: (``make_scheduler()``); any deprecated call here is now an error
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

SCHEDULER_NAMES = ("rr", "eft", "etf", "met", "heft_rt", "random")

PLATFORMS = {
    "zcu102": lambda: zcu102(n_cpu=3, n_fft=1, n_mmult=1),
    "jetson": lambda: jetson(n_cpu=4),
}

#: (api, params) mixture covering CPU-only, fabric, and GPU-eligible shapes
_SHAPES = (
    ("fft", {"n": 128, "batch": 1}),
    ("fft", {"n": 256, "batch": 1}),
    ("ifft", {"n": 128, "batch": 1}),
    ("zip", {"n": 256}),
    ("gemm", {"m": 8, "k": 8, "n": 8}),
    ("cpu_op", {"work_1ghz": 1.28e-4}),
)

SCENARIOS = ("clean", "quarantine", "bans", "quarantine+bans")


def _make_batch(n: int = 36) -> list[Task]:
    tasks = []
    for i in range(n):
        api, params = _SHAPES[i % len(_SHAPES)]
        task = Task(api=api, params=params, app_id=i, name=f"t{i}")
        # distinct, shuffled ranks so HEFT_RT's sort actually reorders
        task.rank = float((i * 7) % n)
        tasks.append(task)
    return tasks


def _apply_scenario(scenario: str, tasks: list[Task], pes: list[PE]) -> None:
    if "quarantine" in scenario:
        # knock out one accelerator and one CPU; every API keeps at least
        # one live CPU so no task needs parking
        pes[-1].available = False
        pes[1].available = False
    if "bans" in scenario:
        cpu_idx = [pe.index for pe in pes if pe.kind is PEKind.CPU]
        all_idx = [pe.index for pe in pes]
        tasks[0].banned_pes = frozenset(cpu_idx[:1])
        tasks[3].banned_pes = frozenset(cpu_idx)
        # every PE banned: the better-a-suspect-PE fallback must kick in
        tasks[5].banned_pes = frozenset(all_idx)
        tasks[7].banned_pes = frozenset(cpu_idx[1:])


def _run_path(sched_name: str, platform_key: str, scenario: str, columnar: bool):
    """One scheduling round; returns (assignment positions, expected_free)."""
    instance = PLATFORMS[platform_key]().build(seed=0)
    pes = instance.pes
    tasks = _make_batch()
    _apply_scenario(scenario, tasks, pes)
    if columnar:
        estimate = CostTable(instance.timing, pes)
    else:
        timing = instance.timing

        def estimate(task, pe):
            return timing.estimate(task.api, task.params, pe)

    scheduler = SCHEDULERS.create(sched_name)
    position = {id(t): i for i, t in enumerate(tasks)}
    out = scheduler.schedule(tasks, pes, now=0.5, estimate=estimate)
    order = [(position[id(task)], pe.index) for task, pe in out]
    return order, [pe.expected_free for pe in pes]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("platform_key", sorted(PLATFORMS))
@pytest.mark.parametrize("sched_name", SCHEDULER_NAMES)
def test_columnar_equals_scalar(sched_name, platform_key, scenario):
    columnar = _run_path(sched_name, platform_key, scenario, columnar=True)
    scalar = _run_path(sched_name, platform_key, scenario, columnar=False)
    assert columnar[0] == scalar[0], "assignment order/placement diverged"
    # expected_free must match to the bit, not within a tolerance
    assert columnar[1] == scalar[1], "PE backlog accounting diverged"


def _fft_only_pes():
    desc = PEDescriptor(name="fft0", kind=PEKind.FFT, clock_ghz=0.3)
    return [PE(index=0, desc=desc)]


@pytest.mark.parametrize("columnar", (False, True), ids=("scalar", "columnar"))
@pytest.mark.parametrize("sched_name", SCHEDULER_NAMES)
def test_unsupported_api_error_parity(sched_name, columnar):
    """No supporting PE raises the same SchedulerError through both paths."""
    pes = _fft_only_pes()
    tasks = [Task(api="zip", params={"n": 64}, app_id=0)]
    estimate = (
        CostTable(zcu102_timing(), pes) if columnar else (lambda t, p: 1.0)
    )
    with pytest.raises(SchedulerError, match="no PE supports"):
        SCHEDULERS.create(sched_name).schedule(tasks, pes, 0.0, estimate)


@pytest.mark.parametrize("columnar", (False, True), ids=("scalar", "columnar"))
@pytest.mark.parametrize("sched_name", SCHEDULER_NAMES)
def test_no_live_pe_error_parity(sched_name, columnar):
    """All-quarantined candidates raise identically through both paths."""
    instance = zcu102(n_cpu=2, n_fft=1).build(seed=0)
    pes = instance.pes
    for pe in pes:
        if pe.kind is PEKind.CPU:
            pe.available = False
    tasks = [Task(api="zip", params={"n": 64}, app_id=0)]  # CPU-only API
    timing = instance.timing
    estimate = (
        CostTable(timing, pes)
        if columnar
        else (lambda t, p: timing.estimate(t.api, t.params, p))
    )
    with pytest.raises(SchedulerError, match="no live PE"):
        SCHEDULERS.create(sched_name).schedule(tasks, pes, 0.0, estimate)


def test_cost_table_requires_aligned_indices():
    """Column j of every row is pes[j]; misaligned PE lists are rejected."""
    desc = PEDescriptor(name="cpu9", kind=PEKind.CPU, clock_ghz=1.0)
    with pytest.raises(ValueError, match="index-aligned"):
        CostTable(zcu102_timing(), [PE(index=9, desc=desc)])


def test_stale_row_from_another_table_reinterned():
    """A task interned by one runtime's table is re-interned by another's
    (the per-table token guards against trusting foreign row ids)."""
    instance_a = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    instance_b = jetson(n_cpu=4).build(seed=0)
    table_a = CostTable(instance_a.timing, instance_a.pes)
    table_b = CostTable(instance_b.timing, instance_b.pes)
    task = Task(api="fft", params={"n": 128, "batch": 1}, app_id=0)
    # intern a few extra rows in A so the row ids cannot happen to coincide
    table_a.row("zip", {"n": 64})
    table_a.row("zip", {"n": 128})
    row_a = table_a.task_row(task)
    est_a = table_a.lookup(task, 0)
    row_b = table_b.task_row(task)
    est_b = table_b.lookup(task, 0)
    assert task.cost_token == table_b.token
    assert est_a == instance_a.timing.estimate("fft", {"n": 128, "batch": 1},
                                               instance_a.pes[0])
    assert est_b == instance_b.timing.estimate("fft", {"n": 128, "batch": 1},
                                               instance_b.pes[0])
    # and going back to A re-interns again rather than trusting B's stamp
    assert table_a.task_row(task) == row_a
    assert row_b == 0
