"""From-scratch derivations the runtime's stored plans must equal.

Test-side only.  Production derives a shape's row, a program's node
template and a program's ranks once and stamps every later task from the
store (docs/INTERNALS.md §4 "Derived once"); these are the per-task /
per-instance computations those stores replaced, written against the
public model (``TimingModel.cpu_seconds`` / ``accel_parts`` / ``estimate``,
the spec dicts of a ``DagProgram``) and sharing no code with the stores.
The parity tests compare by ``float.hex()``.
"""

from __future__ import annotations

import math
from itertools import count

import numpy as np

from repro.platforms import PEKind, ShapeOutsideEnvelope
from repro.platforms.pe import CPU_ONLY_API

__all__ = [
    "shape_key",
    "sweep_upward_ranks",
    "reference_row",
    "reference_work",
    "reference_graph",
    "reference_ranks",
]


def shape_key(task) -> tuple:
    return (task.api, tuple(sorted(task.params.items())))


def sweep_upward_ranks(tasks, mean_cost) -> dict:
    """``upward_ranks`` as it was: a fixpoint sweep over a set."""
    ranks: dict = {}
    pending = set(tasks)
    while pending:
        progressed = False
        for task in list(pending):
            if all(s in ranks for s in task.successors):
                succ_max = max((ranks[s] for s in task.successors), default=0.0)
                ranks[task] = mean_cost(task) + succ_max
                pending.discard(task)
                progressed = True
        if not progressed:
            raise ValueError("cycle detected while computing upward ranks")
    return ranks


def reference_row(timing, pes, api, params):
    """``(est, cols, mean)`` of one shape, one ``estimate`` call per PE."""
    est, cols = [], []
    for pe in pes:
        value = math.inf
        if pe.supports(api):
            try:
                value = timing.estimate(api, params, pe)
                cols.append(pe.index)
            except ShapeOutsideEnvelope:
                pass
        est.append(value)
    mean = float(np.mean([est[j] for j in cols])) if cols else None
    return tuple(est), tuple(cols), mean


def reference_work(timing, pe, api, params, slow=1.0) -> list[float]:
    """The compute segments *pe*'s worker charges for one task of the shape
    (no noise): one on a CPU, setup / busy / teardown on an accelerator."""
    if pe.kind is PEKind.CPU:
        parts = [timing.cpu_seconds(api, params)]
    else:
        cost = timing.accel_parts(api, params, pe.kind)
        parts = [cost.setup, cost.busy, cost.teardown]
    return [part * slow for part in parts] if slow != 1.0 else parts


def reference_graph(program) -> list[tuple]:
    """What one instance of *program* must look like, read from the spec
    dicts the way ``instantiate`` used to on every arrival: per node, in
    topological order, ``(name, api, params, input_keys, output_key,
    cpu_fn, n_deps, successor names)``."""
    nodes = program.spec["nodes"]
    succs: dict[str, list[str]] = {name: [] for name in program.topo_order}
    n_deps = {}
    for name in program.topo_order:
        preds = set(nodes[name].get("after", []))
        n_deps[name] = len(preds)
        for pred in preds:
            succs[pred].append(name)
    return [
        (
            name,
            nodes[name]["api"],
            dict(nodes[name].get("params", {})),
            tuple(nodes[name].get("inputs", ())),
            nodes[name].get("output"),
            program.bindings.get(name) if nodes[name]["api"] == CPU_ONLY_API else None,
            n_deps[name],
            succs[name],
        )
        for name in program.topo_order
    ]


def reference_ranks(program, timing, pes) -> list[float]:
    """Upward ranks of *program*'s nodes in topological order: the sweep
    over a freshly instantiated graph with per-task row means."""
    tasks, _, _ = program.instantiate(app_id=-1, tids=count())  # tid order is topo order
    return [
        rank
        for _, rank in sorted(
            sweep_upward_ranks(
                tasks, lambda t: reference_row(timing, pes, t.api, t.params)[2]
            ).items(),
            key=lambda item: item[0].tid,
        )
    ]
