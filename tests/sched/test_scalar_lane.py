"""Scalar-lane vs batched-lane parity for single-task scheduling rounds.

A round with exactly one ready task and a table-backed estimate provider
takes ``single_task_lane`` (plain Python floats); everything else takes the
batched columnar kernels.  The lane is an optimisation of *host* cost only:
fed the same one-task round, both must return the same ``(task, pe)``,
leave bit-identical ``pe.expected_free`` on every PE, and leave the
scheduler's cursor state equal - round after round, with state carried
across rounds, with fault masks active or not - and raise the same two
``SchedulerError`` texts.

``BatchedOnly`` is how the batched kernels are called on a one-task input:
it forwards the table's columnar interface and hides ``scalar_row``, which
is the only thing the lane keys on besides ``len(ready) == 1``.
"""

from __future__ import annotations

import pytest

from repro.platforms import PE, PEDescriptor, PEKind, jetson, zcu102
from repro.platforms.timing import CostTable, zcu102_timing
from repro.runtime.daemon import _ScalarEstimate
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

#: the heuristics with a scalar lane (``random`` draws from
#: ``Scheduler.compatible`` on every path and has nothing to select)
LANED = ("rr", "eft", "etf", "heft_rt", "met")


class BatchedOnly:
    """The table's columnar interface without ``scalar_row``."""

    def __init__(self, table: CostTable) -> None:
        self._table = table
        self.rows_for = table.rows_for
        self.estimate_rows = table.estimate_rows
        self.support_rows = table.support_rows

    def __call__(self, task, pe):
        return self._table(task, pe)


class CountingTable(CostTable):
    """A ``CostTable`` that counts its scalar-lane and gather reads."""

    def __init__(self, timing, pes) -> None:
        super().__init__(timing, pes)
        self.scalar_reads = 0
        self.gathers = 0

    def scalar_row(self, task):
        self.scalar_reads += 1
        return super().scalar_row(task)

    def rows_for(self, tasks):
        self.gathers += 1
        return super().rows_for(tasks)


def _bans(scenario: str, round_no: int, pes: list[PE]) -> frozenset:
    cpu_idx = [pe.index for pe in pes if pe.kind is PEKind.CPU]
    if scenario == "all-banned":
        # every PE banned: the better-a-suspect-PE fallback keeps them all
        return frozenset(pe.index for pe in pes)
    if "bans" in scenario:
        return frozenset((cpu_idx[:1], cpu_idx[1:], cpu_idx, ())[round_no % 4])
    return frozenset()


def _side(platform_key: str, sched_name: str, scenario: str):
    instance = PLATFORMS[platform_key]().build(seed=0)
    pes = instance.pes
    if "quarantine" in scenario:
        # one accelerator and one CPU out; every API keeps a live CPU
        pes[-1].available = False
        pes[1].available = False
    table = CountingTable(instance.timing, pes)
    return pes, table, SCHEDULERS.create(sched_name)


def _cursor_state(scheduler):
    return getattr(scheduler, "_cursor", None)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("platform_key", sorted(PLATFORMS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS.names()))
def test_single_task_rounds_match_the_batched_kernels(sched_name, platform_key, scenario):
    pes_a, table_a, sched_a = _side(platform_key, sched_name, scenario)
    pes_b, table_b, sched_b = _side(platform_key, sched_name, scenario)
    batched = BatchedOnly(table_b)
    # 18 consecutive rounds, nothing reset in between: expected_free and
    # the rr/met cursors carry from round to round on both sides
    for round_no in range(18):
        api, params = _SHAPES[(round_no * 5) % len(_SHAPES)]
        now = 0.5 + 3e-5 * round_no
        task_a = Task(api=api, params=params, app_id=round_no, name=f"t{round_no}")
        task_b = Task(api=api, params=params, app_id=round_no, name=f"t{round_no}")
        task_a.banned_pes = _bans(scenario, round_no, pes_a)
        task_b.banned_pes = _bans(scenario, round_no, pes_b)

        ((got_a, pe_a),) = sched_a.schedule([task_a], pes_a, now, table_a)
        ((got_b, pe_b),) = sched_b.schedule([task_b], pes_b, now, batched)

        assert got_a is task_a and got_b is task_b
        assert pe_a.index == pe_b.index, f"round {round_no}: placement diverged"
        assert [pe.expected_free.hex() for pe in pes_a] == [
            pe.expected_free.hex() for pe in pes_b
        ], f"round {round_no}: PE backlog accounting diverged"
        assert _cursor_state(sched_a) == _cursor_state(sched_b), (
            f"round {round_no}: cursor state diverged"
        )
    if sched_name in LANED:
        # side A really took the scalar lane, side B really did not
        assert table_a.scalar_reads == 18 and table_a.gathers == 0
        assert table_b.scalar_reads == 0 and table_b.gathers == 18


@pytest.mark.parametrize("sched_name", LANED)
def test_lane_is_selected_by_batch_size_alone(sched_name):
    """Two ready tasks go batched; so does one task behind a provider that
    hides the table (the scalar-oracle wrapper, a plain callable)."""
    pes, table, scheduler = _side("zcu102", sched_name, "clean")
    tasks = [Task(api="fft", params={"n": 128, "batch": 1}, app_id=i) for i in range(2)]
    assert len(scheduler.schedule(tasks, pes, 0.0, table)) == 2
    assert table.scalar_reads == 0
    oracle = _ScalarEstimate(table)
    assert not hasattr(oracle, "scalar_row")
    scheduler.schedule(tasks[:1], pes, 0.0, oracle)
    assert table.scalar_reads == 0
    scheduler.schedule(tasks[:1], pes, 0.0, table)
    assert table.scalar_reads == 1


@pytest.mark.parametrize("sched_name", ("eft", "etf", "heft_rt", "met"))
def test_batched_round_gathers_row_ids_once(sched_name):
    """estimate and support arrays are indexed off one ``rows_for`` vector."""
    pes, table, scheduler = _side("zcu102", sched_name, "clean")
    tasks = [Task(api=api, params=params, app_id=i) for i, (api, params) in enumerate(_SHAPES)]
    scheduler.schedule(tasks, pes, 0.0, table)
    assert table.gathers == 1


def _error_text(scheduler, tasks, pes, estimate) -> str:
    with pytest.raises(SchedulerError) as err:
        scheduler.schedule(tasks, pes, 0.0, estimate)
    return str(err.value)


@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS.names()))
def test_unsupported_api_error_text_matches(sched_name):
    desc = PEDescriptor(name="fft0", kind=PEKind.FFT, clock_ghz=0.3)
    pes = [PE(index=0, desc=desc)]
    table = CostTable(zcu102_timing(), pes)
    tasks = [Task(api="zip", params={"n": 64}, app_id=0)]
    lane = _error_text(SCHEDULERS.create(sched_name), tasks, pes, table)
    batched = _error_text(SCHEDULERS.create(sched_name), tasks, pes, BatchedOnly(table))
    assert lane == batched
    assert lane.startswith("no PE supports API 'zip'")


@pytest.mark.parametrize("sched_name", sorted(SCHEDULERS.names()))
def test_no_live_pe_error_text_matches(sched_name):
    instance = zcu102(n_cpu=2, n_fft=1).build(seed=0)
    pes = instance.pes
    for pe in pes:
        if pe.kind is PEKind.CPU:
            pe.available = False
    table = CostTable(instance.timing, pes)
    tasks = [Task(api="zip", params={"n": 64}, app_id=0)]  # CPU-only API
    lane = _error_text(SCHEDULERS.create(sched_name), tasks, pes, table)
    batched = _error_text(SCHEDULERS.create(sched_name), tasks, pes, BatchedOnly(table))
    assert lane == batched
    assert lane.startswith("no live PE for API 'zip'")


def test_row_tuples_are_the_array_rows():
    """``scalar_row`` and ``lookup`` read the very floats of ``est[row]``."""
    instance = zcu102(n_cpu=3, n_fft=1, n_mmult=1).build(seed=0)
    table = CostTable(instance.timing, instance.pes)
    for i, (api, params) in enumerate(_SHAPES * 4):  # past the first growth
        task = Task(api=api, params={**params, "pad": i}, app_id=i)
        est, cols = table.scalar_row(task)
        row = table.estimate_rows([task])[0]
        assert [value.hex() for value in est] == [float(v).hex() for v in row]
        assert list(cols) == [j for j, ok in enumerate(table.support_row(task)) if ok]
        assert all(table.lookup(task, j) == est[j] for j in range(table.n_pes))
