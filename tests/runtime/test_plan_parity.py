"""Stored plans equal a from-scratch derivation, bit for bit.

Tasks are stamped (``cost_row``, ``rank``) and charged (the requests a
worker yields for its kernel segments, ``est_used``) from stores filled on
first sight.  For the three cells ``test_one_book.py`` pins, plus one with
cost noise (every segment rebuilt from the stored request), every stamped
and charged value must equal what ``reference_plans`` derives per task from
the public model - by ``float.hex()``.  (The two goldens those cells and the
audit round-trip are compared against, ``golden_one_book.json`` and
``golden_logbook_v3.json``, are untouched by the stores; their own tests
fail if a byte moves.)
"""

from collections import defaultdict

import numpy as np
import pytest

import repro.runtime.daemon as daemon_module
from repro.apps import APPS
from repro.experiments import run_to_completion
from repro.platforms.timing import UNPRICED, CostTable
from repro.runtime import (
    API_MODE, DAG_MODE, AppInstance, CedrRuntime, RuntimeConfig, Task, TaskState,
)
from repro.simcore import Compute, child_rng

from one_book_cells import CELLS, WORKLOAD, ZCU, run_cell
from reference_plans import (
    reference_graph, reference_ranks, reference_row, reference_work, shape_key,
)

#: a cell with cost noise beside the pinned three: one draw per segment
NOISY = {"zcu102-rr-api-noisy": (ZCU, "api", "rr", 1, {"cost_noise_sigma": 0.1})}


def _run(name):
    if name in CELLS:
        return run_cell(name)
    platform, mode, scheduler, seed, extra = NOISY[name]
    config = RuntimeConfig(scheduler=scheduler, execute_kernels=False, **extra)
    return run_to_completion(platform, WORKLOAD, mode, 200.0, scheduler, seed=seed, config=config)


@pytest.fixture
def observed(monkeypatch):
    """``(created, charges)``: every Task in construction (= tid) order, and
    every kernel segment a worker yielded, in yield order, as ``(pe, task,
    slow, draw, request)``.  ``draw`` is the noise factor a from-scratch
    replay of the run's noise stream gives the segment (``None`` without
    noise): one draw per segment, in the order segments start."""
    created, charges, replays = [], [], {}
    task_init = Task.__init__
    real_body = daemon_module.worker_body

    def recording_init(self, *args, **kwargs):
        task_init(self, *args, **kwargs)
        created.append(self)

    def recording_body(runtime, pe):
        body = real_body(runtime, pe)
        noise = None
        if runtime.noise_rng is not None:  # one stream per run, shared by its workers
            if runtime not in replays:
                sigma = runtime.config.cost_noise_sigma
                replay = child_rng(runtime.engine.seed, "cost-noise")
                replays[runtime] = lambda: float(np.exp(replay.normal(0.0, sigma)))
            noise = replays[runtime]
        value = None
        while True:
            try:
                request = body.send(value)
            except StopIteration:
                return
            # the worker's own locals name the task the segment belongs to,
            # the slowdown factor read for this attempt and the two
            # bookkeeping constants, which are not kernel segments
            scope = body.gi_frame.f_locals
            if request.__class__ is Compute and request is not scope["dispatch"] \
                    and request is not scope["signal"]:
                draw = noise() if noise is not None else None
                charges.append((pe, scope["task"], scope["slow"], draw, request))
            value = yield request

    monkeypatch.setattr(Task, "__init__", recording_init)
    monkeypatch.setattr(daemon_module, "worker_body", recording_body)
    return created, charges


@pytest.mark.parametrize("name", [*CELLS, *NOISY])
def test_stamped_and_charged_values_equal_a_fresh_derivation(name, observed):
    created, charges = observed
    runtime = _run(name)
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

    # charges: each worker's segments, attempt by attempt; an unperturbed
    # segment is the table's shared request itself
    per_pe = defaultdict(list)
    for pe, task, slow, draw, request in charges:
        per_pe[pe.index].append((task, slow, draw, request))
    assert sum(map(len, per_pe.values())) >= len(runtime.logbook.tasks)
    for index, segments in per_pe.items():
        i = 0
        while i < len(segments):
            task, slow, _, _ = segments[i]
            want = reference_work(timing, pes[index], task.api, task.params, slow)
            got = segments[i:i + len(want)]
            assert all(t is task for t, _, _, _ in got)
            assert [r.work.hex() for _, _, _, r in got] == [
                (w if d is None else w * d).hex() for w, (_, _, d, _) in zip(want, got)
            ]
            stored = table.work[task.cost_row][index]
            stored = [stored] if len(want) == 1 else list(stored)
            for (_, s, d, request), shared in zip(got, stored):
                assert (request is shared) == (s == 1.0 and d is None)
            i += len(want)
    if runtime.faults is not None:  # the faulty cell does stretch some attempts
        assert any(slow != 1.0 for _, _, slow, _, _ in charges)
    if name in NOISY:  # every segment drew, so none is the shared request
        assert charges and all(draw is not None for _, _, _, draw, _ in charges)


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


@pytest.mark.no_auto_audit  # the audit pins one table per run, by design
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
