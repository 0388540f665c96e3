"""Fluent builder for DAG application specs.

Writing raw spec dicts is error-prone; :class:`DagBuilder` provides the
construction API the three paper applications use for their DAG forms and
keeps name/edge bookkeeping consistent.  The output is a plain
(spec, bindings) pair, so everything still flows through the same JSON
schema validation as hand-written specs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.platforms.pe import CPU_ONLY_API

from .app import DagProgram, parse_dag

__all__ = ["DagBuilder"]


class DagBuilder:
    """Incrementally assemble a DAG spec plus its cpu_op bindings."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: dict[str, dict[str, Any]] = {}
        self._bindings: dict[str, Callable] = {}

    def kernel(
        self,
        name: str,
        api: str,
        params: Mapping[str, Any],
        inputs: Sequence[str],
        output: str,
        after: Sequence[str] = (),
    ) -> str:
        """Add an accelerable kernel node; returns its name for chaining."""
        self._add(name, {
            "api": api,
            "params": dict(params),
            "inputs": list(inputs),
            "output": output,
            "after": list(after),
        })
        return name

    def cpu(
        self,
        name: str,
        fn: Callable[[dict], Any],
        work_1ghz: float,
        after: Sequence[str] = (),
    ) -> str:
        """Add a non-accelerable region node (CPU-only, arbitrary callable).

        ``fn`` receives the app's state dict and mutates it in place;
        ``work_1ghz`` is its timing-model cost in seconds on a 1 GHz core.
        """
        self._add(name, {
            "api": CPU_ONLY_API,
            "params": {"work_1ghz": float(work_1ghz)},
            "after": list(after),
        })
        self._bindings[name] = fn
        return name

    def _add(self, name: str, node: dict[str, Any]) -> None:
        if name in self._nodes:
            raise ValueError(f"duplicate node name {name!r} in DAG {self.name!r}")
        self._nodes[name] = node

    def build(self) -> DagProgram:
        """Validate and parse into a ready-to-submit :class:`DagProgram`
        (sharing the node dicts, which the builder never changes once added)."""
        return parse_dag({"name": self.name, "nodes": dict(self._nodes)}, self._bindings)

    def build_raw(self) -> tuple[dict[str, Any], dict[str, Callable]]:
        """Return a detached (spec, bindings) copy without parsing - for
        transformation passes such as :mod:`repro.dag.collapse`."""
        nodes = {k: dict(v) for k, v in self._nodes.items()}
        return {"name": self.name, "nodes": nodes}, dict(self._bindings)
