"""Production-vs-reference scheduler parity at every ready depth.

Every registered heuristic must produce *bit-identical* decisions to its
per-task reference (``reference_schedulers.py``: a ``compatible()`` list
filter and one ``TimingModel.estimate`` call per cell, no code shared with
``src/``) - same assignments in the same order, the same ``expected_free``
floats and the same rr/met cursors, over consecutive rounds with state
carried, with fault masks active or not.  Production is fed twice: the
runtime's :class:`~repro.platforms.timing.CostTable` (interned row tuples)
and a plain ``estimate(task, pe)`` callable (rows adapted per task); the
table prices each row once through the very ``TimingModel.estimate`` calls
the reference makes, so equality is exact (``==`` on floats, compared by
``hex()``), not approximate.  Depth 1 is ``test_scalar_lane.py``'s.

One whole run per heuristic closes the loop end to end: the reference
class, registered under a test-local name, drives the daemon through the
same workload as the production class and must return the same
``RunResult`` - what the removed ``scalar`` oracle pairing used to prove.
"""

from __future__ import annotations

import pytest

from reference_schedulers import REFERENCE, per_cell
from repro.experiments import run_once
from repro.metrics import diff_results
from repro.platforms import PE, PEDescriptor, PEKind, jetson, zcu102
from repro.platforms.timing import CostTable, zcu102_timing
from repro.runtime.task import Task
from repro.sched import SCHEDULERS, SchedulerError
from repro.workload import radar_comms_workload

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

SCENARIOS = ("clean", "quarantine", "bans", "all-banned", "quarantine+bans")

#: ready depths: an API-mode burst, a small DAG frontier, the old one-round
#: batch, and the paper's DAG-mode regime
DEPTHS = (2, 5, 36, 300)
ROUNDS = 18


def _make_batch(n: int, round_no: int) -> list[Task]:
    tasks = []
    for i in range(n):
        api, params = _SHAPES[(i + round_no) % len(_SHAPES)]
        task = Task(api=api, params=params, app_id=i, name=f"r{round_no}t{i}")
        # distinct, shuffled ranks so HEFT_RT's sort actually reorders
        task.rank = float((i * 7 + round_no) % n)
        tasks.append(task)
    return tasks


def _apply_bans(scenario: str, tasks: list[Task], pes: list[PE]) -> None:
    cpu_idx = [pe.index for pe in pes if pe.kind is PEKind.CPU]
    all_idx = [pe.index for pe in pes]
    if scenario == "all-banned":
        # every PE banned: the better-a-suspect-PE fallback must kick in
        for task in tasks:
            task.banned_pes = frozenset(all_idx)
    elif "bans" in scenario:
        patterns = (cpu_idx[:1], cpu_idx, all_idx, cpu_idx[1:])
        for i, task in enumerate(tasks[::2]):
            task.banned_pes = frozenset(patterns[i % 4])


class _Side:
    """One scheduler instance over its own PEs, rounds fed one at a time."""

    def __init__(self, platform_key: str, scenario: str, factory, provider: str) -> None:
        instance = PLATFORMS[platform_key]().build(seed=0)
        self.pes = instance.pes
        if "quarantine" in scenario:
            # knock out one accelerator and one CPU; every API keeps at
            # least one live CPU so no task needs parking
            self.pes[-1].available = False
            self.pes[1].available = False
        timing = instance.timing
        self.estimate = CostTable(timing, self.pes) if provider == "table" else per_cell(timing)
        self.scheduler = factory()
        self.scenario = scenario

    def round(self, depth: int, round_no: int):
        """(assignment positions, expected_free bits, cursor) of one round."""
        tasks = _make_batch(depth, round_no)
        _apply_bans(self.scenario, tasks, self.pes)
        position = {id(t): i for i, t in enumerate(tasks)}
        now = 0.5 + 2e-4 * round_no
        out = self.scheduler.schedule(tasks, self.pes, now, self.estimate)
        return (
            [(position[id(task)], pe.index) for task, pe in out],
            [pe.expected_free.hex() for pe in self.pes],
            getattr(self.scheduler, "_cursor", None),
        )


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("platform_key", sorted(PLATFORMS))
@pytest.mark.parametrize("sched_name", SCHEDULER_NAMES)
def test_columnar_equals_scalar(sched_name, platform_key, scenario):
    production = lambda: SCHEDULERS.create(sched_name)  # noqa: E731
    for depth in DEPTHS:
        table = _Side(platform_key, scenario, production, "table")
        adapted = _Side(platform_key, scenario, production, "callable")
        reference = _Side(platform_key, scenario, REFERENCE[sched_name], "callable")
        # nothing reset between rounds: expected_free and the rr/met
        # cursors carry on all three sides
        for round_no in range(ROUNDS):
            want = reference.round(depth, round_no)
            for label, side in (("table rows", table), ("adapted callable", adapted)):
                got = side.round(depth, round_no)
                where = f"{label}, depth {depth}, round {round_no}"
                assert got[0] == want[0], f"{where}: assignment order/placement diverged"
                # expected_free must match to the bit, not within a tolerance
                assert got[1] == want[1], f"{where}: PE backlog accounting diverged"
                assert got[2] == want[2], f"{where}: cursor state diverged"


@pytest.mark.parametrize("mode", ("api", "dag"))
@pytest.mark.parametrize("sched_name", SCHEDULER_NAMES)
def test_whole_run_matches_the_reference_scheduler(sched_name, mode):
    """Same workload, production class vs reference class: same RunResult."""
    platform = zcu102(n_cpu=3, n_fft=1)
    workload = radar_comms_workload(n_pd=1, n_tx=1)
    production = run_once(platform, workload, mode, 200.0, sched_name, seed=2)
    local_name = f"reference-{sched_name}"
    SCHEDULERS.register(local_name, REFERENCE[sched_name])
    try:
        reference = run_once(platform, workload, mode, 200.0, local_name, seed=2)
    finally:
        SCHEDULERS.unregister(local_name)
    assert production.tasks_completed > 0
    assert diff_results(production, reference) == []


def _fft_only_pes():
    desc = PEDescriptor(name="fft0", kind=PEKind.FFT, clock_ghz=0.3)
    return [PE(index=0, desc=desc)]


@pytest.mark.parametrize("columnar", (False, True), ids=("scalar", "columnar"))
@pytest.mark.parametrize("sched_name", SCHEDULER_NAMES)
def test_unsupported_api_error_parity(sched_name, columnar):
    """No supporting PE raises the same SchedulerError whether rows come
    from the table or are adapted from a plain callable."""
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
    """All-quarantined candidates raise identically from both row sources."""
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
