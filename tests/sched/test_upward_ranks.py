"""``upward_ranks``: one reverse pass, bit-identical to the old sweep.

The fixpoint sweep it replaced lives on in ``tests/runtime/
reference_plans.py``.  A rank is ``mean + max(successor ranks)`` whatever
order nodes are visited in, so the floats must agree exactly - compared by
``float.hex()`` - and the pass must cost one ``mean_cost`` call per node on
the topologically ordered lists ``DagProgram.instantiate`` returns (counted,
not timed).
"""

import random
import sys
from pathlib import Path

import pytest

from repro.apps import APPS
from repro.platforms import zcu102
from repro.platforms.timing import CostTable
from repro.runtime.task import Task
from repro.sched import upward_ranks

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "runtime"))
from reference_plans import sweep_upward_ranks  # noqa: E402


def counting(mean_cost):
    calls = []

    def counted(task):
        calls.append(task)
        return mean_cost(task)

    return counted, calls


@pytest.fixture(scope="module")
def table():
    platform = zcu102(n_cpu=3, n_fft=1, n_mmult=1).build(seed=0)
    return CostTable(platform.timing, platform.pes)


@pytest.mark.parametrize("name", ["PD", "TX", "RX", "LD"])
def test_paper_programs_rank_as_the_sweep_did(name, table):
    tasks, _, _ = APPS.get(name).factory().dag_program().instantiate(app_id=0)

    def mean(task):
        return table.means[table.task_row(task)]

    counted, calls = counting(mean)
    ranks = upward_ranks(tasks, counted)
    want = sweep_upward_ranks(tasks, mean)
    assert [ranks[t].hex() for t in tasks] == [want[t].hex() for t in tasks]
    assert len(calls) == len(tasks)  # one pass: nothing is looked at twice


def test_long_chain_is_one_pass():
    n = 2000
    # the chain runs from the newest task to the oldest: the reference sweep
    # walks its pending set in (roughly) tid order, and meeting the tail
    # first spares it the quadratic re-scans that made it worth replacing
    tasks = [Task(api="fft", params={"n": 64}, app_id=0) for _ in range(n)][::-1]
    for a, b in zip(tasks, tasks[1:]):
        a.add_successor(b)
    costs = {t: 1e-6 * (1 + i % 7) / 3.0 for i, t in enumerate(tasks)}
    counted, calls = counting(costs.__getitem__)
    ranks = upward_ranks(tasks, counted)
    want = sweep_upward_ranks(tasks, costs.__getitem__)
    assert [ranks[t].hex() for t in tasks] == [want[t].hex() for t in tasks]
    assert len(calls) == n


def test_unordered_input_falls_back_to_the_sweep(table):
    tasks, _, _ = APPS.get("PD").factory().dag_program().instantiate(app_id=0)
    shuffled = list(tasks)
    random.Random(7).shuffle(shuffled)

    def mean(task):
        return table.means[table.task_row(task)]

    counted, calls = counting(mean)
    ranks = upward_ranks(shuffled, counted)
    want = sweep_upward_ranks(tasks, mean)
    assert {t: r.hex() for t, r in ranks.items()} == {t: r.hex() for t, r in want.items()}
    assert len(calls) == len(tasks)  # still one mean per node
