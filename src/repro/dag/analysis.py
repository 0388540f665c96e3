"""Static DAG analysis: critical path, width, and speedup bounds.

CEDR's companion papers analyze their application DAGs before scheduling
(HEFT needs ranks; DSE studies need parallelism profiles).  This module
provides those analyses over the reproduction's spec format, built on
networkx:

* :func:`critical_path` - the longest weighted path (the makespan floor on
  infinitely many PEs) and its node sequence;
* :func:`parallelism_profile` - how many nodes each depth level holds (the
  width the ready queue can reach);
* :func:`summarize` - the classic work/span numbers: total work, span,
  inherent parallelism ``work/span``, and the maximum useful PE count.

Weights come from a platform timing model so the analysis answers concrete
questions ("how many FFT accelerators could LD's DAG even use?"), not just
structural ones.

networkx is imported inside the three functions that use it: nothing on
the CLI's import path calls them, and the import alone was a third of
``import repro.cli``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.platforms.timing import TimingModel

from .schema import validate_spec

__all__ = ["DagSummary", "to_networkx", "critical_path", "parallelism_profile", "summarize"]


def to_networkx(spec: Mapping[str, Any], timing: Optional[TimingModel] = None) -> "nx.DiGraph":
    """Convert a validated spec to a networkx DiGraph.

    Node attributes: ``api``, ``params``, and - when *timing* is given -
    ``work`` (the node's CPU seconds on that platform, the conventional
    weight for work/span analysis).
    """
    import networkx as nx

    validate_spec(spec)
    graph = nx.DiGraph(name=spec["name"])
    for name, node in spec["nodes"].items():
        work = timing.cpu_seconds(node["api"], node.get("params", {})) if timing else 1.0
        graph.add_node(name, api=node["api"], params=node.get("params", {}), work=work)
    for name, node in spec["nodes"].items():
        for pred in set(node.get("after", [])):
            graph.add_edge(pred, name)
    return graph


def critical_path(
    spec: Mapping[str, Any], timing: Optional[TimingModel] = None
) -> tuple[list[str], float]:
    """The longest node-weighted path through the DAG.

    Returns ``(node names, span seconds)``; with ``timing=None`` every node
    weighs 1 and the span is the depth in nodes.
    """
    import networkx as nx

    graph = to_networkx(spec, timing)
    # longest path under *node* weights: push each node's work onto its
    # incoming edges, then add the (unique) source-node weight afterwards.
    best_end: dict[str, tuple[float, list[str]]] = {}
    for name in nx.topological_sort(graph):
        work = graph.nodes[name]["work"]
        preds = list(graph.predecessors(name))
        if preds:
            prev_len, prev_path = max(
                (best_end[p] for p in preds), key=lambda lp: lp[0]
            )
            best_end[name] = (prev_len + work, prev_path + [name])
        else:
            best_end[name] = (work, [name])
    length, path = max(best_end.values(), key=lambda lp: lp[0])
    return path, length


def parallelism_profile(spec: Mapping[str, Any]) -> list[int]:
    """Node count per dependency level (level = longest hop-distance from
    any source).  ``max(profile)`` bounds the instantaneous ready-queue
    width a perfectly fast runtime would ever see for one instance."""
    import networkx as nx

    graph = to_networkx(spec)
    level: dict[str, int] = {}
    for name in nx.topological_sort(graph):
        preds = list(graph.predecessors(name))
        level[name] = 1 + max((level[p] for p in preds), default=-1)
    depth = max(level.values()) + 1
    profile = [0] * depth
    for lv in level.values():
        profile[lv] += 1
    return profile


@dataclass(frozen=True)
class DagSummary:
    """Work/span analysis of one application DAG."""

    name: str
    n_nodes: int
    n_edges: int
    work_s: float              # total CPU seconds (T_1)
    span_s: float              # critical-path seconds (T_inf)
    critical_path: tuple[str, ...]
    max_width: int             # widest dependency level

    @property
    def parallelism(self) -> float:
        """Inherent parallelism ``T_1 / T_inf`` - the PE count beyond which
        extra resources cannot help this DAG (Brent's bound)."""
        return self.work_s / self.span_s if self.span_s > 0 else float("inf")


def summarize(spec: Mapping[str, Any], timing: TimingModel) -> DagSummary:
    """Full work/span summary of a spec under a platform's CPU costs."""
    graph = to_networkx(spec, timing)
    path, span = critical_path(spec, timing)
    work = sum(data["work"] for _, data in graph.nodes(data=True))
    return DagSummary(
        name=spec["name"],
        n_nodes=graph.number_of_nodes(),
        n_edges=graph.number_of_edges(),
        work_s=work,
        span_s=span,
        critical_path=tuple(path),
        max_width=max(parallelism_profile(spec)),
    )
