"""JSON DAG schema and validation for DAG-based CEDR applications.

Baseline CEDR consumes a pair of artifacts per application: a shared-object
binary holding the node functions and a JSON file capturing "temporal
dependencies between nodes and high level control flow".  Our analogue is a
JSON-compatible ``spec`` dict (everything below) plus a ``bindings`` dict
mapping ``cpu_op`` node names to Python callables - the stand-in for the
shared object's symbols.

Spec format::

    {
      "name": "pulse_doppler",
      "nodes": {
        "<node>": {
          "api": "fft" | "ifft" | "zip" | "gemm" | "cpu_op",
          "params": {...},          # timing-model size parameters
          "inputs": ["key", ...],   # state-dict keys read (kernel nodes)
          "output": "key",          # state-dict key written (kernel nodes)
          "after": ["<node>", ...]  # predecessor node names
        }, ...
      }
    }

``cpu_op`` nodes omit inputs/output and instead take their callable from
``bindings``; their ``params`` must carry ``work_1ghz`` for the timing
model.  Validation rejects unknown APIs, dangling edges, duplicate outputs
racing on one key, and cycles (the format is a DAG by construction - the
very limitation Fig. 2 of the paper is about), a bare-string ``inputs`` or
``after`` and a negative or non-finite ``params`` value, each on one line
naming the node and key.  It is one pass over the nodes and one FIFO Kahn
pass, whose topological order ``parse_dag`` keeps.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import inf
from typing import Any, Callable

from repro.platforms.pe import CPU_ONLY_API
from repro.kernels.registry import supported_apis

__all__ = ["DagValidationError", "validate_spec", "KNOWN_APIS"]

#: APIs a DAG node may carry: every kernel API plus the cpu_op escape hatch.
KNOWN_APIS = frozenset(supported_apis()) | {CPU_ONLY_API}

_LISTS = (list, tuple)
_NUMBERS = (int, float)


class DagValidationError(ValueError):
    """Raised when a DAG spec violates the schema."""


def validate_spec(
    spec: Mapping[str, Any], bindings: Mapping[str, Callable] | None = None
) -> list[str]:
    """Validate *spec* (and cpu_op *bindings* when provided); raise on error.

    Returns the topological order the acyclicity check derived: Kahn's,
    with a FIFO frontier seeded in the spec's node order.
    """
    if spec.__class__ is not dict and not isinstance(spec, Mapping):
        raise DagValidationError(f"spec must be a mapping, got {type(spec).__name__}")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise DagValidationError("spec needs a non-empty 'name'")
    nodes = spec.get("nodes")
    if (nodes.__class__ is not dict and not isinstance(nodes, Mapping)) or not nodes:
        raise DagValidationError(f"spec {name!r} needs a non-empty 'nodes' mapping")

    indeg: dict[str, int] = {}
    succs: dict[str, list[str]] = {n: [] for n in nodes}
    writers: dict[str, str] = {}
    race = None
    for node_name, node in nodes.items():
        if node.__class__ is not dict and not isinstance(node, Mapping):
            raise _error(node_name, name, "must be a mapping")
        api = node.get("api")
        if api not in KNOWN_APIS:
            raise _error(node_name, name, f"has unknown api {api!r}; known: {sorted(KNOWN_APIS)}")
        params = node.get("params", {})
        if params.__class__ is not dict and not isinstance(params, Mapping):
            raise _error(node_name, name, "params must be a mapping")
        for key, value in params.items():
            if isinstance(value, _NUMBERS) and not 0 <= value < inf:
                raise _error(node_name, name, f"params[{key!r}] must be finite and non-negative,"
                             f" got {value!r}")
        after = node.get("after", ())
        if not isinstance(after, _LISTS):
            raise _error(node_name, name, "'after' must be a list of node names, got "
                         + type(after).__name__)
        for pred in after:
            if pred not in nodes:
                raise _error(node_name, name, f"depends on unknown node {pred!r}")
            if pred == node_name:
                raise _error(node_name, name, "depends on itself")
        deps = set(after)
        indeg[node_name] = len(deps)
        for pred in deps:
            succs[pred].append(node_name)
        if api == CPU_ONLY_API:
            if "work_1ghz" not in params:
                raise _error(node_name, name, "(cpu_op) needs params['work_1ghz']")
            if bindings is not None and node_name not in bindings:
                raise _error(node_name, name, "(cpu_op) has no binding callable")
        else:
            inputs = node.get("inputs")
            if inputs and not isinstance(inputs, _LISTS):
                raise _error(node_name, name, "(kernel) 'inputs' must be a list of strings, got "
                             + type(inputs).__name__)
            if not inputs or not all([isinstance(k, str) for k in inputs]):
                raise _error(node_name, name, "(kernel) needs non-empty string 'inputs'")
            if not isinstance(node.get("output"), str):
                raise _error(node_name, name, "(kernel) needs a string 'output'")
        # two writers of one state key race: the first pair is reported
        # once every node has passed the checks above
        out = node.get("output")
        if out is not None:
            if out not in writers:
                writers[out] = node_name
            elif race is None:
                race = f"nodes {writers[out]!r} and {node_name!r} of {name!r} both write " \
                    f"state key {out!r}"
    if race is not None:
        raise DagValidationError(race)

    # Kahn's algorithm, FIFO: the list grows while it is walked
    topo = [n for n, d in indeg.items() if not d]
    for n in topo:
        for s in succs[n]:
            left = indeg[s] = indeg[s] - 1
            if not left:
                topo.append(s)
    if len(topo) != len(nodes):
        cyclic = sorted(n for n, d in indeg.items() if d > 0)
        raise DagValidationError(f"spec {name!r} contains a cycle involving {cyclic}")
    return topo


def _error(node_name: Any, name: str, what: str) -> DagValidationError:
    return DagValidationError(f"node {node_name!r} of {name!r} {what}")
