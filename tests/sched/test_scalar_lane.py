"""The one lane at ready depth 1, and the rows it reads.

Every production heuristic prices a round from the cost table's interned
row tuples.  The partner here is ``reference_schedulers.py`` - per-task
``compatible()`` list filters and one ``TimingModel.estimate`` call per
cell, sharing no code with ``src/`` - and the two must agree on every
single-task round: the same ``(task, pe)``, bit-identical
``pe.expected_free`` on every PE and equal rr/met cursor state, round after
round with state carried across rounds, with fault masks active or not; and
they must raise the same two ``SchedulerError`` texts.  Deeper rounds are
``test_vectorized_parity.py``'s.

(Several test names predate the one-lane change, when the partner was the
batched NumPy lane; they are kept so test IDs stay comparable across PRs.)
"""

from __future__ import annotations

import pytest

from reference_schedulers import REFERENCE, per_cell
from repro.platforms import PE, PEDescriptor, PEKind, jetson, zcu102
from repro.platforms.timing import CostTable, zcu102_timing
from repro.runtime.task import Task
from repro.sched import SCHEDULERS, SchedulerError

PLATFORMS = {
    "zcu102": lambda: zcu102(n_cpu=3, n_fft=1, n_mmult=1),
    "jetson": lambda: jetson(n_cpu=4),
}

_SHAPES = (
    ("fft", {"n": 128, "batch": 1}),
    ("fft", {"n": 256, "batch": 1}),
    ("ifft", {"n": 128, "batch": 1}),
    ("zip", {"n": 256}),
    ("gemm", {"m": 8, "k": 8, "n": 8}),
    ("cpu_op", {"work_1ghz": 1.28e-4}),
)

SCENARIOS = ("clean", "quarantine", "bans", "all-banned", "quarantine+bans")


def _bans(scenario: str, round_no: int, pes: list[PE]) -> frozenset:
    cpu_idx = [pe.index for pe in pes if pe.kind is PEKind.CPU]
    if scenario == "all-banned":
        # every PE banned: the better-a-suspect-PE fallback keeps them all
        return frozenset(pe.index for pe in pes)
    if "bans" in scenario:
        return frozenset((cpu_idx[:1], cpu_idx[1:], cpu_idx, ())[round_no % 4])
    return frozenset()


def _side(platform_key: str, scenario: str):
    instance = PLATFORMS[platform_key]().build(seed=0)
    pes = instance.pes
    if "quarantine" in scenario:
        # one accelerator and one CPU out; every API keeps a live CPU
        pes[-1].available = False
        pes[1].available = False
    return pes, instance.timing


def _cursor_state(scheduler):
    return getattr(scheduler, "_cursor", None)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("platform_key", sorted(PLATFORMS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS.names()))
def test_single_task_rounds_match_the_batched_kernels(sched_name, platform_key, scenario):
    pes_a, timing_a = _side(platform_key, scenario)
    pes_b, timing_b = _side(platform_key, scenario)
    sched_a, table = SCHEDULERS.create(sched_name), CostTable(timing_a, pes_a)
    sched_b, cells = REFERENCE[sched_name](), per_cell(timing_b)
    # 18 consecutive rounds, nothing reset in between: expected_free and
    # the rr/met cursors carry from round to round on both sides
    for round_no in range(18):
        api, params = _SHAPES[(round_no * 5) % len(_SHAPES)]
        now = 0.5 + 3e-5 * round_no
        task_a = Task(api=api, params=params, app_id=round_no, name=f"t{round_no}")
        task_b = Task(api=api, params=params, app_id=round_no, name=f"t{round_no}")
        task_a.banned_pes = _bans(scenario, round_no, pes_a)
        task_b.banned_pes = _bans(scenario, round_no, pes_b)

        ((got_a, pe_a),) = sched_a.schedule([task_a], pes_a, now, table)
        ((got_b, pe_b),) = sched_b.schedule([task_b], pes_b, now, cells)

        assert got_a is task_a and got_b is task_b
        assert pe_a.index == pe_b.index, f"round {round_no}: placement diverged"
        assert [pe.expected_free.hex() for pe in pes_a] == [
            pe.expected_free.hex() for pe in pes_b
        ], f"round {round_no}: PE backlog accounting diverged"
        assert _cursor_state(sched_a) == _cursor_state(sched_b), (
            f"round {round_no}: cursor state diverged"
        )


def _error_text(scheduler, tasks, pes, estimate) -> str:
    with pytest.raises(SchedulerError) as err:
        scheduler.schedule(tasks, pes, 0.0, estimate)
    return str(err.value)


@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS.names()))
def test_unsupported_api_error_text_matches(sched_name):
    desc = PEDescriptor(name="fft0", kind=PEKind.FFT, clock_ghz=0.3)
    pes = [PE(index=0, desc=desc)]
    timing = zcu102_timing()
    tasks = [Task(api="zip", params={"n": 64}, app_id=0)]
    lane = _error_text(SCHEDULERS.create(sched_name), tasks, pes, CostTable(timing, pes))
    reference = _error_text(REFERENCE[sched_name](), tasks, pes, per_cell(timing))
    assert lane == reference
    assert lane.startswith("no PE supports API 'zip'")


@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS.names()))
def test_no_live_pe_error_text_matches(sched_name):
    instance = zcu102(n_cpu=2, n_fft=1).build(seed=0)
    pes = instance.pes
    for pe in pes:
        if pe.kind is PEKind.CPU:
            pe.available = False
    timing = instance.timing
    tasks = [Task(api="zip", params={"n": 64}, app_id=0)]  # CPU-only API
    lane = _error_text(SCHEDULERS.create(sched_name), tasks, pes, CostTable(timing, pes))
    reference = _error_text(REFERENCE[sched_name](), tasks, pes, per_cell(timing))
    assert lane == reference
    assert lane.startswith("no live PE for API 'zip'")


def test_row_tuples_are_the_timing_model_cells():
    """``scalar_row``, ``lookup`` and the callable form read the very floats
    ``TimingModel.estimate`` returns, cell by cell; unsupported cells are
    ``+inf`` and absent from ``cols``."""
    instance = zcu102(n_cpu=3, n_fft=1, n_mmult=1).build(seed=0)
    pes, timing = instance.pes, instance.timing
    table = CostTable(timing, pes)
    for i, (api, params) in enumerate(_SHAPES * 4):
        task = Task(api=api, params={**params, "pad": i}, app_id=i)
        est, cols = table.scalar_row(task)
        assert list(cols) == [pe.index for pe in pes if pe.supports(api)]
        assert [est[j].hex() for j in cols] == [
            timing.estimate(api, task.params, pes[j]).hex() for j in cols
        ]
        assert all(est[j] == float("inf") for j in range(len(pes)) if j not in cols)
        assert all(table.lookup(task, j) == est[j] == table(task, pes[j]) for j in cols)
    assert table.n_rows == 4 * len(_SHAPES)


@pytest.mark.parametrize(
    "platform, n, supporters, mean_hex",
    [
        # np.mean sums pairwise: sum()/n gives ...037p-16 on the first row,
        # sum()/n ...9bdp-14 and math.fsum()/n ...9c0p-14 on the second -
        # a last bit that would move HEFT_RT ranks
        (jetson(n_cpu=7), 64, 8, "0x1.1610090747038p-16"),
        (zcu102(n_cpu=3, n_fft=8), 128, 11, "0x1.ea10c68efc9bfp-14"),
    ],
    ids=("jetson-7cpu+gpu", "zcu102-3cpu+8fft"),
)
def test_row_mean_is_pinned_by_hex(platform, n, supporters, mean_hex):
    instance = platform.build(seed=0)
    table = CostTable(instance.timing, instance.pes)
    task = Task(api="fft", params={"n": n, "batch": 1}, app_id=0)
    assert len(table.scalar_row(task)[1]) == supporters
    assert table.means[task.cost_row].hex() == mean_hex
