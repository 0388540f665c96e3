"""The one-pass parse against the two-pass parse it replaced.

``parse_dag`` used to validate (one pass over the nodes, a second for
output races, a LIFO Kahn pass for cycles), run a FIFO Kahn pass of its own
for the topological order, and rebuild each node's predecessor set for the
template.  :func:`two_pass_parse` keeps that form, test-side and sharing no
code with ``repro.dag``; on every application program and on hand-made
graphs, the topological order, the node template and every refusal's
message must equal it.
"""

from collections.abc import Mapping
from types import MappingProxyType

import pytest

from repro.apps import APPS
from repro.dag import DagValidationError, KNOWN_APIS, parse_dag
from repro.platforms.pe import CPU_ONLY_API
from repro.workload import make_workload


def _validate(spec, bindings):
    if not isinstance(spec, Mapping):
        raise DagValidationError(f"spec must be a mapping, got {type(spec).__name__}")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise DagValidationError("spec needs a non-empty 'name'")
    nodes = spec.get("nodes")
    if not isinstance(nodes, Mapping) or not nodes:
        raise DagValidationError(f"spec {name!r} needs a non-empty 'nodes' mapping")
    for node_name, node in nodes.items():
        ctx = f"node {node_name!r} of {name!r}"
        if not isinstance(node, Mapping):
            raise DagValidationError(f"{ctx} must be a mapping")
        api = node.get("api")
        if api not in KNOWN_APIS:
            raise DagValidationError(f"{ctx} has unknown api {api!r}; known: {sorted(KNOWN_APIS)}")
        params = node.get("params", {})
        if not isinstance(params, Mapping):
            raise DagValidationError(f"{ctx} params must be a mapping")
        for pred in node.get("after", []):
            if pred not in nodes:
                raise DagValidationError(f"{ctx} depends on unknown node {pred!r}")
            if pred == node_name:
                raise DagValidationError(f"{ctx} depends on itself")
        if api == CPU_ONLY_API:
            if "work_1ghz" not in params:
                raise DagValidationError(f"{ctx} (cpu_op) needs params['work_1ghz']")
            if bindings is not None and node_name not in bindings:
                raise DagValidationError(f"{ctx} (cpu_op) has no binding callable")
        else:
            inputs = node.get("inputs")
            if not inputs or not all(isinstance(k, str) for k in inputs):
                raise DagValidationError(f"{ctx} (kernel) needs non-empty string 'inputs'")
            if not isinstance(node.get("output"), str):
                raise DagValidationError(f"{ctx} (kernel) needs a string 'output'")
    writers = {}
    for node_name, node in nodes.items():
        out = node.get("output")
        if out is None:
            continue
        if out in writers:
            raise DagValidationError(
                f"nodes {writers[out]!r} and {node_name!r} of {name!r} both write "
                f"state key {out!r}"
            )
        writers[out] = node_name
    # the cycle check: LIFO Kahn
    indeg = {n: len(set(node.get("after", []))) for n, node in nodes.items()}
    succs = {n: [] for n in nodes}
    for n, node in nodes.items():
        for pred in set(node.get("after", [])):
            succs[pred].append(n)
    frontier = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while frontier:
        n = frontier.pop()
        seen += 1
        for s in succs[n]:
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    if seen != len(nodes):
        cyclic = sorted(n for n, d in indeg.items() if d > 0)
        raise DagValidationError(f"spec {name!r} contains a cycle involving {cyclic}")


def two_pass_parse(spec, bindings=None):
    """``(topo_order, template)`` as the two-pass parse derived them."""
    _validate(spec, bindings)
    bindings = bindings or {}
    nodes = spec["nodes"]
    # the order: FIFO Kahn
    indeg = {n: len(set(node.get("after", []))) for n, node in nodes.items()}
    succs = {n: [] for n in nodes}
    for n, node in nodes.items():
        for pred in set(node.get("after", [])):
            succs[pred].append(n)
    frontier = [n for n, d in indeg.items() if d == 0]
    topo = []
    while frontier:
        n = frontier.pop(0)
        topo.append(n)
        for s in succs[n]:
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    # the template, from the spec again
    index = {name: i for i, name in enumerate(topo)}
    preds = [set(nodes[name].get("after", [])) for name in topo]
    succ_idx = [[] for _ in topo]
    for i, after in enumerate(preds):
        for pred in after:
            succ_idx[index[pred]].append(i)
    template = tuple(
        (
            nodes[name]["api"],
            MappingProxyType(dict(nodes[name].get("params", {}))),
            name,
            tuple(nodes[name].get("inputs", ())),
            nodes[name].get("output"),
            bindings.get(name) if nodes[name]["api"] == CPU_ONLY_API else None,
            len(preds[i]),
            tuple(succ_idx[i]),
        )
        for i, name in enumerate(topo)
    )
    return topo, template


def _apps():
    for name in sorted(APPS.names()):
        yield pytest.param(APPS.get(name).factory(), id=f"{name}-default")
    for entry in make_workload("radar-comms").entries:
        yield pytest.param(entry.app, id=f"{entry.app.name}-radar-comms")


@pytest.mark.parametrize("app", _apps())
def test_application_programs_parse_as_the_two_pass_parse(app):
    program = app.dag_program()
    topo, template = two_pass_parse(program.spec, program.bindings)
    assert program.topo_order == topo
    assert program._template == template
    assert [node[2] for node in program._template] == program.topo_order
    reparsed = parse_dag(program.spec, program.bindings)
    assert reparsed.topo_order == topo and reparsed._template == template


def _kernel(output, inputs=("x",), after=()):
    return {"api": "fft", "params": {"n": 8}, "inputs": list(inputs), "output": output,
            "after": list(after)}


#: hand-made graphs whose FIFO order differs from spec order or from LIFO
GRAPHS = {
    "diamond": {
        "src": _kernel("a"),
        "l": _kernel("b", ["a"], ["src"]),
        "r": _kernel("c", ["a"], ["src"]),
        "sink": _kernel("d", ["b", "c"], ["l", "r"]),
    },
    "sink-first": {
        "sink": _kernel("d", ["b", "c"], ["r", "l"]),
        "r": _kernel("c", ["a"], ["src"]),
        "l": _kernel("b", ["a"], ["src"]),
        "src": _kernel("a"),
    },
    "duplicate-after": {
        "a": _kernel("a"),
        "b": _kernel("b", after=["a", "a"]),
        "c": _kernel("c", after=["b", "a", "b"]),
        "d": _kernel("d", after=["c", "a", "c", "b"]),
    },
    "two-heads-crossed": {
        "h1": _kernel("h1"),
        "h2": _kernel("h2"),
        "x": _kernel("x", after=["h2", "h1"]),
        "y": _kernel("y", after=["h1"]),
        "z": _kernel("z", after=["x", "y", "h2"]),
    },
    "cycle": {
        "a": _kernel("a"),
        "b": _kernel("b", after=["a", "d"]),
        "c": _kernel("c", after=["b"]),
        "d": _kernel("d", after=["c"]),
        "e": _kernel("e", after=["d"]),
    },
    "self-loop": {"a": _kernel("a", after=["a"])},
    "dangling": {"a": _kernel("a", after=["ghost"])},
    "race-then-cycle": {
        "a": _kernel("y", after=["b"]),
        "b": _kernel("y", after=["a"]),
    },
    "no-output-then-race": {
        "a": _kernel("y"),
        "b": {"api": "fft", "params": {"n": 8}, "inputs": ["x"]},
        "c": _kernel("y"),
    },
    "race-then-unknown-api": {
        "a": _kernel("y"),
        "b": _kernel("y"),
        "c": {"api": "nope"},
    },
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_hand_made_graphs_parse_or_fail_as_the_two_pass_parse(name):
    spec = {"name": name, "nodes": GRAPHS[name]}
    try:
        want = two_pass_parse(spec)
    except DagValidationError as exc:
        with pytest.raises(DagValidationError) as got:
            parse_dag(spec)
        assert str(got.value) == str(exc)
        return
    program = parse_dag(spec)
    assert (program.topo_order, program._template) == want


def test_the_fifo_order_is_not_the_spec_order():
    """The hand-made set does exercise the order: it is neither the spec's
    node order nor what the LIFO cycle pass visited."""
    program = parse_dag({"name": "s", "nodes": GRAPHS["sink-first"]})
    assert program.topo_order == ["src", "r", "l", "sink"]
    assert program._template[0][7] == (1, 2)
