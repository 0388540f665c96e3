"""``sim_digest``: one SHA-256 over an explicit list of simulated statistics.

The hardware-simulation rule "a change meant only to speed up the simulator
must leave every simulated statistic identical" is enforced by hashing the
statistics a figure could read and comparing the hash across repetitions
and against ``expected_digests.json``.

The fields are *named here, one by one* - never ``dataclasses.asdict`` - so
adding a field to ``RunResult`` later does not move a digest, and removing
one this list names fails loudly.  Floats are rendered with ``float.hex()``:
bit-exact and independent of ``repr`` rounding.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

__all__ = ["sim_digest", "run_fields", "serve_fields", "cell_fields"]

Field = tuple[str, Any]


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_render(v) for v in value) + "]"
    raise TypeError(f"sim_digest cannot render {type(value).__name__}: {value!r}")


def sim_digest(fields: Iterable[Field]) -> str:
    """SHA-256 hex of ``name=value`` lines, in the order given."""
    blob = "\n".join(f"{name}={_render(value)}" for name, value in fields)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_fields(result: Any, prefix: str = "") -> list[Field]:
    """The named simulated statistics of one ``RunResult``."""
    return [
        (prefix + "makespan", float(result.makespan)),
        (prefix + "n_apps", int(result.n_apps)),
        (prefix + "exec_times", [float(t) for t in result.exec_times]),
        (prefix + "tasks_completed", int(result.tasks_completed)),
        (prefix + "sched_rounds", int(result.sched_rounds)),
        (prefix + "runtime_overhead_s", float(result.runtime_overhead_s)),
        (prefix + "sched_overhead_s", float(result.sched_overhead_s)),
        (prefix + "ready_depth_mean", float(result.ready_depth_mean)),
        (prefix + "ready_depth_max", int(result.ready_depth_max)),
        (
            prefix + "pe_task_histogram",
            [f"{pe}:{n}" for pe, n in sorted(result.pe_task_histogram.items())],
        ),
        (prefix + "faults_injected", int(result.faults_injected)),
        (prefix + "task_failures", int(result.task_failures)),
        (prefix + "retries", int(result.retries)),
        (prefix + "n_failed", int(result.n_failed)),
    ]


def serve_fields(result: Any, prefix: str = "") -> list[Field]:
    """The named simulated statistics of one ``ServeResult``."""
    fields: list[Field] = [
        (prefix + "offered", int(result.offered)),
        (prefix + "admitted", int(result.admitted)),
        (prefix + "shed", int(result.shed)),
        (prefix + "held", sum(int(t.held) for t in result.tenants)),
        (prefix + "completed", int(result.completed)),
    ]
    for tenant in result.tenants:
        fields.append(
            (
                f"{prefix}tenant.{tenant.name}.response_times",
                [float(t) for t in tenant.response_times],
            )
        )
    return fields + run_fields(result.run, prefix + "run.")


def cell_fields(cell: Any, prefix: str = "") -> list[Field]:
    """The named simulated statistics of one corpus ``CellOutcome``."""
    return [
        (prefix + "name", str(cell.name)),
        (prefix + "scheduler", str(cell.scheduler)),
        (prefix + "status", str(cell.status)),
        (prefix + "code", str(cell.code)),
        (prefix + "metrics", [f"{k}:{float(v).hex()}" for k, v in sorted(cell.metrics)]),
    ]
