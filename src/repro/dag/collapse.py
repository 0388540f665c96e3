"""The Fig.-2 control-flow collapse transformation.

The paper motivates CEDR-API with a structural limitation of the DAG
format: a loop over kernels (``for i: Kernel1; Kernel2; Kernel3``) cannot be
expressed with conditional/iterative edges, so "this entire for-loop
structure must be collapsed to a single DAG node", which is then CPU-only
because no accelerator implements the fused sequence.

:func:`collapse_subgraph` performs exactly that transformation on a
(spec, bindings) pair: the named nodes are replaced by one ``cpu_op`` node
whose callable executes the sub-DAG topologically with the CPU kernel
implementations and whose timing cost is the sum of the members' CPU costs.
The control-flow example and the fig2 granularity benchmark use this to
quantify what the collapse costs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.kernels.registry import implementation_for
from repro.platforms.pe import CPU_ONLY_API, PEKind
from repro.platforms.timing import TimingModel

from .schema import DagValidationError, validate_spec

__all__ = ["collapse_subgraph"]


def collapse_subgraph(
    spec: Mapping[str, Any],
    bindings: Mapping[str, Callable],
    members: list[str],
    collapsed_name: str,
    timing: TimingModel,
) -> tuple[dict[str, Any], dict[str, Callable]]:
    """Replace ``members`` with a single CPU-only node.

    Requirements: every member exists, and no path between two members
    leaves the member set (otherwise the collapse would create a cycle).
    Returns a new (spec, bindings) pair; the inputs are not mutated.
    """
    validate_spec(spec, bindings)
    nodes = dict(spec["nodes"])
    member_set = set(members)
    missing = member_set - nodes.keys()
    if missing:
        raise DagValidationError(f"unknown members to collapse: {sorted(missing)}")
    if collapsed_name in nodes.keys() - member_set:
        raise DagValidationError(f"collapsed name {collapsed_name!r} already exists")

    # External predecessors of the group, and the member sub-topology.
    external_preds: set[str] = set()
    for m in members:
        for pred in nodes[m].get("after", []):
            if pred not in member_set:
                external_preds.add(pred)
    # Collapse-induced cycles (a member -> non-member -> member path) are
    # caught by the re-validation of the rewritten spec at the end.  The
    # members' order is the parse's FIFO Kahn order over their subgraph.
    inner = {
        m: {**nodes[m], "after": [p for p in nodes[m].get("after", ()) if p in member_set]}
        for m in members
    }
    member_topo = validate_spec({"name": spec["name"], "nodes": inner}) if members else []
    total_work = sum(
        timing.cpu_seconds(nodes[m]["api"], nodes[m].get("params", {}))
        for m in member_topo
    ) * timing.cpu_clock_ghz  # convert back to seconds-at-1GHz

    member_specs = {m: dict(nodes[m]) for m in member_topo}
    member_bindings = {m: bindings[m] for m in member_topo if m in bindings}

    def fused(state: dict) -> None:
        """Run the collapsed members sequentially with CPU implementations."""
        for m in member_topo:
            node = member_specs[m]
            api = node["api"]
            if api == CPU_ONLY_API:
                member_bindings[m](state)
            else:
                impl = implementation_for(api, PEKind.CPU)
                inputs = [state[k] for k in node["inputs"]]
                payload = inputs[0] if len(inputs) == 1 else tuple(inputs)
                state[node["output"]] = impl(payload)

    new_nodes = {n: dict(v) for n, v in nodes.items() if n not in member_set}
    new_nodes[collapsed_name] = {
        "api": CPU_ONLY_API,
        "params": {"work_1ghz": total_work},
        "after": sorted(external_preds),
    }
    # Rewire external successors of any member onto the collapsed node.
    for name, node in new_nodes.items():
        if name == collapsed_name:
            continue
        after = node.get("after", [])
        if any(p in member_set for p in after):
            node["after"] = sorted({p for p in after if p not in member_set} | {collapsed_name})

    new_bindings = {k: v for k, v in bindings.items() if k not in member_set}
    new_bindings[collapsed_name] = fused
    new_spec = {"name": spec["name"], "nodes": new_nodes}
    validate_spec(new_spec, new_bindings)  # catches collapse-induced cycles
    return new_spec, new_bindings

