"""Stored plans equal a from-scratch derivation, bit for bit.

Tasks are stamped (``cost_row``, ``rank``) and charged (the worker's
compute segments, ``est_used``) from stores filled on first sight.  For the
three cells ``test_one_book.py`` pins, every stamped and charged value must
equal what ``reference_plans`` derives per task from the public model - by
``float.hex()``.  (The two goldens those cells and the audit round-trip are
compared against, ``golden_one_book.json`` and ``golden_logbook_v3.json``,
are untouched by the stores; their own tests fail if a byte moves.)
"""

import sys
from collections import defaultdict

import numpy as np
import pytest

import repro.runtime.worker as worker_module
from repro.apps import APPS
from repro.platforms.timing import UNPRICED, CostTable
from repro.runtime import (
    API_MODE, DAG_MODE, AppInstance, CedrRuntime, RuntimeConfig, Task, TaskState,
)

from one_book_cells import CELLS, ZCU, run_cell
from reference_plans import (
    reference_graph, reference_ranks, reference_row, reference_work, shape_key,
)


@pytest.fixture
def observed(monkeypatch):
    """``(created, charges)``: every Task in construction (= tid) order, and
    every kernel segment a worker charged as ``(pe, task, slow, work)``."""
    created, charges = [], []
    task_init = Task.__init__

    def recording_init(self, *args, **kwargs):
        task_init(self, *args, **kwargs)
        created.append(self)

    def recording_compute(work):
        # called from worker_body's own frame: its locals name the task the
        # segment belongs to and the slowdown factor read for this attempt
        scope = sys._getframe(1).f_locals
        if "task" in scope:  # not the two constants built above the loop
            charges.append((scope["pe"], scope["task"], scope["slow"], work))
        return real_compute(work)

    real_compute = worker_module.Compute
    monkeypatch.setattr(Task, "__init__", recording_init)
    monkeypatch.setattr(worker_module, "Compute", recording_compute)
    return created, charges


@pytest.mark.parametrize("name", CELLS)
def test_stamped_and_charged_values_equal_a_fresh_derivation(name, observed):
    created, charges = observed
    runtime = run_cell(name)
    timing, pes, table = runtime.platform.timing, runtime.platform.pes, runtime.cost_table
    assert [t.tid for t in created] == sorted(t.tid for t in created)

    # rows: ids in first-sight order, which is construction order in both modes
    row_ids: dict = {}
    for task in created:
        est, cols, mean = reference_row(timing, pes, task.api, task.params)
        assert task.cost_row == row_ids.setdefault(shape_key(task), len(row_ids))
        assert task.cost_token == table.token
        got_est, got_cols = table.scalar_row(task)
        assert [v.hex() for v in got_est] == [v.hex() for v in est] and got_cols == cols
        if task.state is TaskState.DONE:
            assert task.est_used.hex() == est[task.pe.index].hex()
        if runtime.apps[task.app_id].mode == API_MODE:
            assert task.rank.hex() == mean.hex()
    assert table.n_rows == len(row_ids)

    # ranks: the sweep over a freshly instantiated graph, per DAG instance
    by_app = defaultdict(list)
    for task in created:
        by_app[task.app_id].append(task)
    programs = {}
    for app in runtime.apps.values():
        if app.mode == DAG_MODE:
            if id(app.dag) not in programs:
                programs[id(app.dag)] = reference_ranks(app.dag, timing, pes)
            want = programs[id(app.dag)]
            assert [t.rank.hex() for t in by_app[app.app_id]] == [r.hex() for r in want]

    # charges: each worker's segments, attempt by attempt
    per_pe = defaultdict(list)
    for pe, task, slow, work in charges:
        per_pe[pe.index].append((task, slow, work))
    assert sum(map(len, per_pe.values())) >= len(runtime.logbook.tasks)
    for index, segments in per_pe.items():
        i = 0
        while i < len(segments):
            task, slow, _ = segments[i]
            want = reference_work(timing, pes[index], task.api, task.params, slow)
            got = segments[i:i + len(want)]
            assert all(t is task for t, _, _ in got)
            assert [w.hex() for _, _, w in got] == [w.hex() for w in want]
            i += len(want)
    if runtime.faults is not None:  # the faulty cell does stretch some attempts
        assert any(slow != 1.0 for _, _, slow, _ in charges)


@pytest.mark.parametrize("name", sorted(APPS.names()))
def test_instances_are_stamped_from_the_template_as_the_spec_reads(name):
    """``DagProgram.instantiate`` against the per-arrival spec walk it
    replaced: same nodes, same wiring, same successor order - and one
    read-only ``params`` mapping per node, shared by every instance."""
    program = APPS.get(name).factory().dag_program()
    first, heads, _ = program.instantiate(app_id=11)
    second, _, _ = program.instantiate(app_id=12)
    want = reference_graph(program)
    assert len(first) == len(want) == program.n_nodes
    for task, twin, node in zip(first, second, want):
        node_name, api, params, input_keys, output_key, cpu_fn, n_deps, succs = node
        assert (task.name, task.api, dict(task.params)) == (node_name, api, params)
        assert (task.input_keys, task.output_key, task.cpu_fn) == (input_keys, output_key, cpu_fn)
        assert task.n_deps == n_deps and [s.name for s in task.successors] == succs
        assert task.app_id == 11 and twin.app_id == 12
        assert task.params is twin.params and task.successors is not twin.successors
        with pytest.raises(TypeError):
            task.params["n"] = 1
    assert heads == [t for t in first if t.n_deps == 0]
    assert [t.tid for t in first] == sorted(t.tid for t in first)  # topo order is tid order


# --------------------------------------------------------------------- #
# a replaced cost table starts from nothing
# --------------------------------------------------------------------- #


def _decoyed_table(platform) -> CostTable:
    """A fresh table whose row ids are one off the replaced table's."""
    table = CostTable(platform.timing, platform.pes)
    table.row("zip", {"n": 7})
    return table


@pytest.mark.no_auto_audit  # the auditor pins one table per run, by design
def test_replaced_table_does_not_serve_the_old_tables_dag_plan(observed):
    created, _ = observed
    platform = ZCU.build(seed=0)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="eft", execute_kernels=False))
    runtime.start()
    pd, rng = APPS.get("PD").factory(), np.random.default_rng(0)
    before = pd.make_instance(DAG_MODE, rng, timing_only=True)
    after = pd.make_instance(DAG_MODE, rng, timing_only=True)
    assert before.dag is after.dag
    old = runtime.cost_table

    def swap():
        runtime.cost_table = _decoyed_table(platform)

    runtime.submit(before, at=0.0)
    runtime.engine.call_at(0.5, swap)
    runtime.submit(after, at=1.0)
    runtime.seal()
    runtime.run()
    new = runtime.cost_table
    assert new is not old and runtime.counters.apps_completed == 2
    want = reference_ranks(after.dag, platform.timing, platform.pes)
    for app, table, shift in ((before, old, 0), (after, new, 1)):
        tasks = [t for t in created if t.app_id == app.app_id]
        assert len(tasks) == app.dag.n_nodes
        for task, rank in zip(tasks, want):
            assert task.cost_token == table.token
            assert task.cost_row == table.row_ids[shape_key(task)] >= shift
            assert task.rank.hex() == rank.hex()
            assert task.est_used.hex() == table.scalar_row(task)[0][task.pe.index].hex()


@pytest.mark.no_auto_audit
def test_replaced_table_prices_the_copy_charge_again(observed):
    created, _ = observed
    platform = ZCU.build(seed=0)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="eft", execute_kernels=False))
    runtime.start()
    old = runtime.cost_table
    x = np.zeros(64, dtype=complex)

    def main(lib):
        yield from lib.fft(x)
        yield from lib.fft(x)
        runtime.cost_table = _decoyed_table(platform)
        yield from lib.fft(x)
        yield from lib.fft(x)

    runtime.submit(AppInstance(name="t", mode=API_MODE, frame_mb=0.1, main_factory=main), at=0.0)
    runtime.seal()
    runtime.run()
    new = runtime.cost_table
    assert [(t.cost_token, t.cost_row) for t in created] == (
        [(old.token, 0)] * 2 + [(new.token, 1)] * 2
    )
    assert new.copy[0] is UNPRICED  # the decoy: interned, never called
    assert new.copy[1] is not old.copy[0] and new.copy[1].work == old.copy[0].work > 0.0
    assert len({t.rank.hex() for t in created}) == 1
