"""Scheduler heuristic tests: RR, EFT, ETF, HEFT_RT."""

import pytest

from repro.platforms import PE, PEDescriptor, PEKind
from repro.runtime.task import Task
from repro.sched import (
    SCHEDULERS,
    SchedulerError,
    available_schedulers,
    paper_schedulers,
    upward_ranks,
)

PAPER_SCHEDULERS = paper_schedulers()


def make_pes(*kinds):
    pes = []
    for i, kind in enumerate(kinds):
        pes.append(
            PE(index=i, desc=PEDescriptor(name=f"{kind.value}{i}", kind=kind, clock_ghz=1.0))
        )
    return pes


def make_tasks(*apis, app_id=0):
    return [Task(api=api, params={"n": 64}, app_id=app_id, name=f"t{i}")
            for i, api in enumerate(apis)]


def flat_estimate(task, pe):
    """CPU cost 1.0; accelerators 0.5 - accel-favourable toy profile."""
    return 1.0 if pe.kind is PEKind.CPU else 0.5


def test_registry_contains_paper_schedulers():
    assert set(PAPER_SCHEDULERS) <= set(available_schedulers())


def test_make_scheduler_unknown_name():
    with pytest.raises(KeyError, match="unknown scheduler"):
        SCHEDULERS.create("fifo")


def test_make_scheduler_case_insensitive():
    assert SCHEDULERS.create("RR").name == "rr"


@pytest.mark.parametrize("name", PAPER_SCHEDULERS)
def test_every_assignment_is_supported(name):
    sched = SCHEDULERS.create(name)
    pes = make_pes(PEKind.CPU, PEKind.CPU, PEKind.FFT, PEKind.MMULT)
    tasks = make_tasks("fft", "zip", "gemm", "fft", "ifft", "zip")
    out = sched.schedule(tasks, pes, now=0.0, estimate=flat_estimate)
    assert len(out) == len(tasks)
    assert {t for t, _ in out} == set(tasks)
    for task, pe in out:
        assert pe.supports(task.api)


@pytest.mark.parametrize("name", PAPER_SCHEDULERS)
def test_unsupported_api_raises(name):
    sched = SCHEDULERS.create(name)
    pes = make_pes(PEKind.FFT)  # no CPU: zip has nowhere to go
    tasks = make_tasks("zip")
    with pytest.raises(SchedulerError):
        sched.schedule(tasks, pes, now=0.0, estimate=flat_estimate)


@pytest.mark.parametrize("name", PAPER_SCHEDULERS)
def test_determinism(name):
    def run():
        sched = SCHEDULERS.create(name)
        pes = make_pes(PEKind.CPU, PEKind.CPU, PEKind.FFT)
        tasks = make_tasks("fft", "fft", "zip", "ifft", "fft")
        return [(t.name, pe.name) for t, pe in
                sched.schedule(tasks, pes, 0.0, flat_estimate)]

    assert run() == run()


def test_rr_cycles_over_supporting_pes():
    sched = SCHEDULERS.create("rr")
    pes = make_pes(PEKind.CPU, PEKind.CPU, PEKind.FFT)
    tasks = make_tasks("fft", "fft", "fft", "fft", "fft", "fft")
    out = sched.schedule(tasks, pes, 0.0, flat_estimate)
    names = [pe.name for _, pe in out]
    assert names == ["cpu0", "cpu1", "fft2", "cpu0", "cpu1", "fft2"]


def test_rr_skips_incompatible_pes():
    sched = SCHEDULERS.create("rr")
    pes = make_pes(PEKind.CPU, PEKind.FFT)
    tasks = make_tasks("zip", "zip", "zip")
    out = sched.schedule(tasks, pes, 0.0, flat_estimate)
    assert all(pe.kind is PEKind.CPU for _, pe in out)


def test_eft_picks_earliest_finish():
    sched = SCHEDULERS.create("eft")
    pes = make_pes(PEKind.CPU, PEKind.FFT)
    pes[0].expected_free = 10.0  # CPU backlogged
    tasks = make_tasks("fft")
    [(task, pe)] = sched.schedule(tasks, pes, now=0.0, estimate=flat_estimate)
    assert pe.kind is PEKind.FFT


def test_eft_accumulates_backlog_within_round():
    sched = SCHEDULERS.create("eft")
    pes = make_pes(PEKind.CPU, PEKind.CPU)
    tasks = make_tasks("fft", "fft", "fft", "fft")
    out = sched.schedule(tasks, pes, 0.0, flat_estimate)
    counts = {}
    for _, pe in out:
        counts[pe.name] = counts.get(pe.name, 0) + 1
    assert counts == {"cpu0": 2, "cpu1": 2}
    assert pes[0].expected_free == pytest.approx(2.0)


def test_etf_commits_globally_earliest_pair_first():
    sched = SCHEDULERS.create("etf")
    pes = make_pes(PEKind.CPU, PEKind.FFT)

    def estimate(task, pe):
        if task.name == "t1":  # the short task
            return 0.1 if pe.kind is PEKind.FFT else 0.2
        return 5.0

    tasks = make_tasks("fft", "fft")  # t0 long, t1 short
    out = sched.schedule(tasks, pes, 0.0, estimate)
    assert out[0][0].name == "t1"  # short committed first
    assert out[0][1].kind is PEKind.FFT


def test_etf_spreads_after_committing():
    sched = SCHEDULERS.create("etf")
    pes = make_pes(PEKind.CPU, PEKind.CPU)
    tasks = make_tasks("fft", "fft")
    out = sched.schedule(tasks, pes, 0.0, flat_estimate)
    assert {pe.name for _, pe in out} == {"cpu0", "cpu1"}


def test_heft_orders_by_rank():
    sched = SCHEDULERS.create("heft_rt")
    pes = make_pes(PEKind.CPU)
    tasks = make_tasks("fft", "fft", "fft")
    tasks[0].rank = 1.0
    tasks[1].rank = 9.0
    tasks[2].rank = 5.0
    out = sched.schedule(tasks, pes, 0.0, flat_estimate)
    assert [t.name for t, _ in out] == ["t1", "t2", "t0"]


def test_round_costs_scale_as_documented():
    rr = SCHEDULERS.create("rr")
    eft = SCHEDULERS.create("eft")
    etf = SCHEDULERS.create("etf")
    heft = SCHEDULERS.create("heft_rt")
    assert rr.round_cost(100, 5) == pytest.approx(10 * rr.round_cost(10, 5))
    assert eft.round_cost(100, 5) == pytest.approx(10 * eft.round_cost(10, 5))
    # ETF is quadratic in queue depth
    ratio = etf.round_cost(100, 5) / etf.round_cost(10, 5)
    assert 80 < ratio < 100
    assert heft.round_cost(0, 5) == 0.0
    assert etf.round_cost(0, 5) == 0.0


def test_etf_queue_cost_dwarfs_others_at_dag_depths():
    """The Fig.-7 mechanism: at DAG-mode queue depths ETF's decision cost
    is orders of magnitude above the linear heuristics'."""
    etf = SCHEDULERS.create("etf")
    eft = SCHEDULERS.create("eft")
    assert etf.round_cost(300, 5) > 50 * eft.round_cost(300, 5)


def test_upward_ranks_chain():
    t1, t2, t3 = make_tasks("fft", "fft", "fft")
    t1.add_successor(t2)
    t2.add_successor(t3)
    ranks = upward_ranks([t1, t2, t3], lambda t: 1.0)
    assert ranks[t3] == pytest.approx(1.0)
    assert ranks[t2] == pytest.approx(2.0)
    assert ranks[t1] == pytest.approx(3.0)


def test_upward_ranks_takes_max_branch():
    src, cheap, dear, sink = make_tasks("fft", "fft", "fft", "fft")
    src.add_successor(cheap)
    src.add_successor(dear)
    cheap.add_successor(sink)
    dear.add_successor(sink)
    cost = {src: 1.0, cheap: 1.0, dear: 10.0, sink: 1.0}
    ranks = upward_ranks([src, cheap, dear, sink], lambda t: cost[t])
    assert ranks[src] == pytest.approx(1.0 + 10.0 + 1.0)


def test_upward_ranks_detects_cycles():
    t1, t2 = make_tasks("fft", "fft")
    t1.add_successor(t2)
    t2.add_successor(t1)
    with pytest.raises(ValueError, match="cycle"):
        upward_ranks([t1, t2], lambda t: 1.0)


def test_duplicate_registration_rejected():
    from repro.sched.base import Scheduler, register_scheduler

    with pytest.raises(ValueError, match="registered twice"):
        @register_scheduler
        class Impostor(Scheduler):
            name = "rr"

            def schedule(self, ready, pes, now, estimate):  # pragma: no cover
                return []

            def round_cost(self, n_ready, n_pes):  # pragma: no cover
                return 0.0
