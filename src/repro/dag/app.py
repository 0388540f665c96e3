"""Parsed DAG programs and their per-submission instantiation.

A :class:`DagProgram` is the validated, topology-resolved form of a
(spec, bindings) pair - what the CEDR daemon holds after parsing the JSON
it received over IPC.  Each submission instantiates fresh
:class:`~repro.runtime.task.Task` objects plus a private ``state`` dict
seeded with the frame's input arrays; tasks communicate exclusively through
that dict (the analogue of the shared-object's buffers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.platforms.pe import CPU_ONLY_API
from repro.runtime.task import Task

from .schema import validate_spec

__all__ = ["DagProgram", "parse_dag"]


@dataclass
class DagProgram:
    """A validated DAG application, ready to instantiate per submission.

    One program is shared by identity across every instance of an
    application structure, so what :meth:`instantiate` needs of the spec is
    read once, at construction, into a node template; treat ``spec``,
    ``bindings`` and ``topo_order`` as frozen afterwards.
    """

    name: str
    spec: Mapping[str, Any]
    bindings: Mapping[str, Callable] = field(default_factory=dict)
    #: topological order of node names (computed at parse time)
    topo_order: list[str] = field(default_factory=list)
    #: per node, in topological order: ``(api, params, name, input_keys,
    #: output_key, cpu_fn, n_deps, successor indices)``.  ``params`` is one
    #: read-only mapping shared by the node's task in every instance.
    _template: tuple = field(init=False, repr=False, compare=False)
    #: indices of the nodes with no dependencies
    _heads: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = self.spec["nodes"]
        index = {name: i for i, name in enumerate(self.topo_order)}
        preds = [set(nodes[name].get("after", ())) for name in self.topo_order]
        # successors in topological order: the order add_successor calls
        # made while walking the nodes in that order
        succs: list[list[int]] = [[] for _ in self.topo_order]
        for i, after in enumerate(preds):
            for pred in after:
                succs[index[pred]].append(i)
        bindings = self.bindings
        template = []
        for i, name in enumerate(self.topo_order):
            node = nodes[name]
            api = node["api"]
            template.append((
                api,
                MappingProxyType(dict(node.get("params", {}))),
                name,
                tuple(node.get("inputs", ())),
                node.get("output"),
                bindings.get(name) if api == CPU_ONLY_API else None,
                len(preds[i]),
                tuple(succs[i]),
            ))
        self._template = tuple(template)
        self._heads = tuple(i for i, after in enumerate(preds) if not after)

    @property
    def n_nodes(self) -> int:
        return len(self.spec["nodes"])

    def instantiate(
        self, app_id: int, initial_state: Mapping[str, Any] | None = None,
        stamps: Sequence[tuple[float, int]] | None = None, tids: Iterator[int] | None = None,
    ) -> tuple[list[Task], list[Task], dict[str, Any]]:
        """Build the task graph for one submission.

        Returns ``(all_tasks, head_tasks, state)`` where heads have no
        unmet dependencies and go straight to the ready queue; ``all_tasks``
        is in topological order.  *stamps*, the runtime's plan, gives each
        node's task its ``(rank, cost_row)``, and *tids*, the runtime's
        counter, its task id; without them they are ``(0.0, -1)`` and -1.
        """
        state: dict[str, Any] = dict(initial_state or {})
        template = self._template
        # positional: Task's fields in declaration order, up to tid
        tasks = [
            Task(
                api, params, app_id, name, None, input_keys, output_key, cpu_fn, [], n_deps,
                None, rank, row, tid,
            )
            for (api, params, name, input_keys, output_key, cpu_fn, n_deps, _), (rank, row), tid
            in zip(template, stamps or repeat((0.0, -1)), tids or repeat(-1))
        ]
        for task, node in zip(tasks, template):
            if node[7]:
                task.successors = [tasks[k] for k in node[7]]
        return tasks, [tasks[i] for i in self._heads], state


def parse_dag(
    spec: Mapping[str, Any], bindings: Mapping[str, Callable] | None = None
) -> DagProgram:
    """Validate and parse a (spec, bindings) pair into a :class:`DagProgram`.

    This is the functional half of what the daemon does on an ``arrival``
    event in DAG mode; the *time* it takes is charged separately by the
    runtime from :class:`~repro.runtime.config.RuntimeCosts`.  The order
    is the one validation derived.
    """
    # bindings=None skips the binding-presence check (timing-only specs or
    # pure-kernel DAGs); an explicit mapping must cover every cpu_op node.
    return DagProgram(spec["name"], spec, dict(bindings or {}), validate_spec(spec, bindings))
