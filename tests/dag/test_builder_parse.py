"""DagBuilder and parse/instantiate tests."""

from itertools import count

import numpy as np
import pytest

from repro.dag import DagBuilder, parse_dag
from repro.runtime.task import TaskState


def small_builder():
    b = DagBuilder("demo")
    b.cpu("init", lambda s: s.__setitem__("x", np.ones(8, dtype=complex)), 1e-6)
    b.kernel("f", "fft", {"n": 8}, ["x"], "X", after=["init"])
    b.kernel("g", "ifft", {"n": 8}, ["X"], "y", after=["f"])
    b.cpu("fin", lambda s: None, 1e-6, after=["g"])
    return b


def test_builder_produces_valid_program():
    program = small_builder().build()
    assert program.name == "demo"
    assert program.n_nodes == 4
    assert program.topo_order[0] == "init"
    assert program.topo_order[-1] == "fin"


def test_builder_rejects_duplicate_names():
    b = DagBuilder("dup")
    b.cpu("a", lambda s: None, 1e-6)
    with pytest.raises(ValueError, match="duplicate"):
        b.cpu("a", lambda s: None, 1e-6)


def test_topo_order_respects_edges():
    program = small_builder().build()
    order = {name: i for i, name in enumerate(program.topo_order)}
    spec_nodes = program.spec["nodes"]
    for name, node in spec_nodes.items():
        for pred in node.get("after", []):
            assert order[pred] < order[name]


def test_instantiate_wires_dependencies():
    program = small_builder().build()
    tasks, heads, state = program.instantiate(app_id=7)
    assert len(tasks) == 4
    assert [t.name for t in heads] == ["init"]
    by_name = {t.name: t for t in tasks}
    assert by_name["f"].n_deps == 1
    assert by_name["g"].n_deps == 1
    assert by_name["g"] in by_name["f"].successors
    assert all(t.app_id == 7 for t in tasks)
    assert all(t.state is TaskState.CREATED for t in tasks)


def test_instantiate_copies_initial_state():
    program = small_builder().build()
    initial = {"seed_data": np.arange(3)}
    _, _, state = program.instantiate(0, initial)
    assert "seed_data" in state
    state["extra"] = 1
    assert "extra" not in initial  # instantiation must not alias the input


def test_instantiate_twice_gives_fresh_tasks():
    program = small_builder().build()
    tids = count()  # the runtime's counter, shared by its instances
    tasks1, _, _ = program.instantiate(0, tids=tids)
    tasks2, _, _ = program.instantiate(1, tids=tids)
    assert not {id(t) for t in tasks1} & {id(t) for t in tasks2}
    assert [t.tid for t in tasks1 + tasks2] == list(range(len(tasks1) + len(tasks2)))


def test_duplicate_after_entries_count_once():
    b = DagBuilder("dups")
    b.cpu("a", lambda s: None, 1e-6)
    b.cpu("b", lambda s: None, 1e-6, after=["a", "a"])
    tasks, heads, _ = b.build().instantiate(0)
    by_name = {t.name: t for t in tasks}
    assert by_name["b"].n_deps == 1


def test_parse_dag_validates():
    from repro.dag import DagValidationError

    with pytest.raises(DagValidationError):
        parse_dag({"name": "bad", "nodes": {"n": {"api": "nope"}}})


def test_build_raw_returns_spec_and_bindings():
    spec, bindings = small_builder().build_raw()
    assert set(bindings) == {"init", "fin"}
    assert spec["nodes"]["f"]["api"] == "fft"
    # raw output is detached from the builder
    spec["nodes"]["f"]["api"] = "mutated"
    spec2, _ = small_builder().build_raw()
    assert spec2["nodes"]["f"]["api"] == "fft"
