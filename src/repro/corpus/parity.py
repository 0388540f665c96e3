"""Cross-scheduler parity over a corpus: run, tally, compare.

Every ``(spec, scheduler)`` pair is one *cell*: the spec is re-pointed at
the scheduler with the audit armed and executed through the
standard :func:`~repro.scenario.run_scenario` path (which routes into
``run_trials`` / ``serve_trials``).  A cell ends in one of three states:

* ``ok`` - metrics recorded;
* ``violation`` - an audit invariant tripped, at a round or in the
  shutdown fold (``code`` is the catalog code of the first violation,
  e.g. ``queue-accounting``);
* ``error`` - any other exception (``code`` is the exception type).

The report aggregates cells into per-scheduler metric means, pairwise
dominance tables (wins on makespan for run cells, on goodput for serve
cells), per-invariant violation tallies (zero-filled from the audit
catalog so the schema is stable), and gross-anomaly flags (a scheduler
doing ``anomaly_factor`` x worse than the best on the cell's primary
metric).  The JSON form contains no wall-clock data - rerunning the same
corpus is bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.atomic import atomic_write
from repro.audit import CATALOG, AuditError, AuditViolation
from repro.experiments.common import run_cells
from repro.metrics import RunResult
from repro.scenario import ScenarioSpec, run_scenario
from repro.sched import SCHEDULERS

__all__ = [
    "CellOutcome",
    "CorpusReport",
    "REPORT_SCHEMA",
    "run_cell",
    "run_corpus",
]

REPORT_SCHEMA = "repro.corpus/1"

#: Primary comparison metric per spec kind: (metric, lower_is_better).
PRIMARY_METRIC = {"run": ("makespan", True), "serve": ("goodput", False)}


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _run_metrics(results: Sequence[RunResult]) -> tuple[tuple[str, float], ...]:
    rows = {
        "makespan": _mean([r.makespan for r in results]),
        "mean_exec_time": _mean([r.mean_exec_time for r in results]),
        "sched_overhead_per_app": _mean(
            [r.sched_overhead_per_app for r in results]
        ),
        "runtime_overhead_per_app": _mean(
            [r.runtime_overhead_per_app for r in results]
        ),
        "goodput": _mean([r.goodput for r in results]),
        "mttr": _mean([r.mean_time_to_recovery for r in results]),
        "tasks_completed": _mean([float(r.tasks_completed) for r in results]),
        "apps_failed": _mean([float(r.n_failed) for r in results]),
    }
    return tuple(sorted(rows.items()))


def _serve_metrics(results) -> tuple[tuple[str, float], ...]:
    rows = {
        "throughput": _mean([r.throughput for r in results]),
        "goodput": _mean([r.goodput for r in results]),
        "p99_response_s": _mean([r.p99_response_s for r in results]),
        "completed": _mean([float(r.completed) for r in results]),
        "shed": _mean([float(r.shed) for r in results]),
        "slo_violations": _mean([float(r.slo_violations) for r in results]),
        "in_system_hwm": _mean([float(r.in_system_hwm) for r in results]),
        "makespan": _mean([r.run.makespan for r in results]),
        "mttr": _mean([r.run.mean_time_to_recovery for r in results]),
    }
    return tuple(sorted(rows.items()))


@dataclass(frozen=True)
class CellOutcome:
    """One (spec, scheduler) execution under the armed audit."""

    digest: str  # digest of the *base* corpus spec
    name: str
    kind: str
    scheduler: str
    status: str  # "ok" | "violation" | "error"
    code: str = ""  # invariant code or exception type
    message: str = ""
    metrics: tuple[tuple[str, float], ...] = ()

    def to_row(self) -> dict:
        return {
            "digest": self.digest,
            "name": self.name,
            "kind": self.kind,
            "scheduler": self.scheduler,
            "status": self.status,
            "code": self.code,
            "message": self.message,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "CellOutcome":
        return cls(
            digest=str(row["digest"]),
            name=str(row["name"]),
            kind=str(row["kind"]),
            scheduler=str(row["scheduler"]),
            status=str(row["status"]),
            code=str(row.get("code", "")),
            message=str(row.get("message", "")),
            metrics=tuple(sorted(dict(row.get("metrics") or {}).items())),
        )


def run_cell(spec: ScenarioSpec, scheduler: Optional[str] = None) -> CellOutcome:
    """Run ``spec`` under ``scheduler`` with the audit armed."""
    scheduler = scheduler or spec.scheduler
    probe = replace(spec, scheduler=scheduler, audit=True)
    base = dict(
        digest=spec.digest(),
        name=spec.name,
        kind=spec.kind,
        scheduler=scheduler,
    )
    try:
        # serial inside the cell - corpus-level parallelism is per cell,
        # and nested pools under REPRO_JOBS would oversubscribe
        results = run_scenario(probe, n_jobs=1, cache=False)
    except AuditViolation as exc:
        return CellOutcome(status="violation", code=exc.code, message=str(exc), **base)
    except AuditError as exc:
        code = exc.violations[0].code
        return CellOutcome(status="violation", code=code, message=str(exc), **base)
    except Exception as exc:  # noqa: BLE001 - cell outcome, not control flow
        return CellOutcome(
            status="error", code=type(exc).__name__, message=str(exc), **base
        )
    metrics = (
        _run_metrics(results) if spec.kind == "run" else _serve_metrics(results)
    )
    return CellOutcome(status="ok", metrics=metrics, **base)


def _cell_worker(cell: tuple[ScenarioSpec, str]) -> CellOutcome:
    return run_cell(*cell)


@dataclass(frozen=True)
class CorpusReport:
    """All cell outcomes of one corpus run, plus derived comparisons."""

    schedulers: tuple[str, ...]
    cells: tuple[CellOutcome, ...]
    anomaly_factor: float = 5.0
    seed: Optional[int] = None

    # -------------------------------------------------------------- #
    # derived views
    # -------------------------------------------------------------- #

    def specs(self) -> list[dict]:
        """One row per distinct spec, in corpus order."""
        out, seen = [], set()
        for cell in self.cells:
            if cell.digest in seen:
                continue
            seen.add(cell.digest)
            out.append({"digest": cell.digest, "name": cell.name, "kind": cell.kind})
        return out

    def violations(self) -> dict[str, dict[str, int]]:
        """``{invariant code: {scheduler: count}}``, zero-filled from CATALOG."""
        tally = {
            inv.code: {s: 0 for s in self.schedulers} for inv in CATALOG
        }
        for cell in self.cells:
            if cell.status != "violation":
                continue
            tally.setdefault(cell.code, {s: 0 for s in self.schedulers})
            tally[cell.code][cell.scheduler] = (
                tally[cell.code].get(cell.scheduler, 0) + 1
            )
        return tally

    def errors(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for cell in self.cells:
            if cell.status == "error":
                out[cell.code] = out.get(cell.code, 0) + 1
        return dict(sorted(out.items()))

    def _cells_by_spec(self) -> dict[str, list[CellOutcome]]:
        grouped: dict[str, list[CellOutcome]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.digest, []).append(cell)
        return grouped

    def dominance(self) -> dict[str, dict[str, dict[str, int]]]:
        """Pairwise win counts on the kind's primary metric.

        ``dominance()["run"][a][b]`` = number of run cells where scheduler
        ``a`` strictly beat ``b`` on makespan (both cells ok).
        """
        table = {
            kind: {
                a: {b: 0 for b in self.schedulers if b != a}
                for a in self.schedulers
            }
            for kind in PRIMARY_METRIC
        }
        for cells in self._cells_by_spec().values():
            kind = cells[0].kind
            metric, lower = PRIMARY_METRIC[kind]
            scores = {
                c.scheduler: dict(c.metrics).get(metric)
                for c in cells
                if c.status == "ok"
            }
            for a, va in scores.items():
                for b, vb in scores.items():
                    if a == b or va is None or vb is None:
                        continue
                    if (va < vb) if lower else (va > vb):
                        table[kind][a][b] += 1
        return table

    def mean_metrics(self) -> dict[str, dict[str, dict[str, float]]]:
        """``{kind: {scheduler: {metric: mean over ok cells}}}``."""
        acc: dict[str, dict[str, dict[str, list[float]]]] = {}
        for cell in self.cells:
            if cell.status != "ok":
                continue
            by_sched = acc.setdefault(cell.kind, {})
            rows = by_sched.setdefault(cell.scheduler, {})
            for metric, value in cell.metrics:
                rows.setdefault(metric, []).append(value)
        return {
            kind: {
                sched: {m: _mean(vs) for m, vs in sorted(rows.items())}
                for sched, rows in sorted(by_sched.items())
            }
            for kind, by_sched in sorted(acc.items())
        }

    def anomalies(self) -> list[dict]:
        """Cells ``anomaly_factor`` x worse than the cell's best scheduler."""
        out = []
        for cells in self._cells_by_spec().values():
            kind = cells[0].kind
            metric, lower = PRIMARY_METRIC[kind]
            scores = {
                c.scheduler: dict(c.metrics).get(metric, 0.0)
                for c in cells
                if c.status == "ok"
            }
            if len(scores) < 2:
                continue
            eps = 1e-12
            best = min(scores.values()) if lower else max(scores.values())
            for sched, value in sorted(scores.items()):
                ratio = (
                    (value + eps) / (best + eps)
                    if lower
                    else (best + eps) / (value + eps)
                )
                if ratio >= self.anomaly_factor:
                    out.append(
                        {
                            "digest": cells[0].digest,
                            "name": cells[0].name,
                            "kind": kind,
                            "scheduler": sched,
                            "metric": metric,
                            "value": value,
                            "best": best,
                            "ratio": ratio,
                        }
                    )
        return out

    def failures(self) -> list[CellOutcome]:
        """Cells that should feed the minimizer (violations + errors)."""
        return [c for c in self.cells if c.status in ("violation", "error")]

    @property
    def ok(self) -> bool:
        return not self.failures()

    # -------------------------------------------------------------- #
    # serialization
    # -------------------------------------------------------------- #

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "anomaly_factor": self.anomaly_factor,
            "schedulers": list(self.schedulers),
            "specs": self.specs(),
            "cells": [c.to_row() for c in self.cells],
            "violations": self.violations(),
            "errors": self.errors(),
            "dominance": self.dominance(),
            "mean_metrics": self.mean_metrics(),
            "anomalies": self.anomalies(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        with atomic_write(path) as fh:
            fh.write(self.to_json())
        return path

    @classmethod
    def from_json(cls, text: str) -> "CorpusReport":
        doc = json.loads(text)
        if doc.get("schema") != REPORT_SCHEMA:
            raise ValueError(
                f"not a corpus report (schema {doc.get('schema')!r}, "
                f"expected {REPORT_SCHEMA!r})"
            )
        return cls(
            schedulers=tuple(doc["schedulers"]),
            cells=tuple(CellOutcome.from_row(row) for row in doc["cells"]),
            anomaly_factor=float(doc.get("anomaly_factor", 5.0)),
            seed=doc.get("seed"),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CorpusReport":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -------------------------------------------------------------- #
    # human summary
    # -------------------------------------------------------------- #

    def summary(self) -> str:
        specs = self.specs()
        n_run = sum(1 for s in specs if s["kind"] == "run")
        n_serve = len(specs) - n_run
        lines = [
            f"corpus report: {len(specs)} specs ({n_run} run, {n_serve} serve) "
            f"x {len(self.schedulers)} schedulers = {len(self.cells)} cells",
        ]
        means = self.mean_metrics()
        dom = self.dominance()
        for kind, metric_lower in PRIMARY_METRIC.items():
            metric, lower = metric_lower
            by_sched = means.get(kind)
            if not by_sched:
                continue
            direction = "lower" if lower else "higher"
            lines.append(f"\n[{kind}] mean {metric} ({direction} is better):")
            for sched in self.schedulers:
                rows = by_sched.get(sched)
                if rows is None:
                    continue
                wins = sum(dom[kind][sched].values())
                lines.append(
                    f"  {sched:<12} {rows.get(metric, 0.0):12.6g}   "
                    f"wins {wins}"
                )
        violations = {
            code: counts
            for code, counts in self.violations().items()
            if any(counts.values())
        }
        if violations:
            lines.append("\ninvariant violations:")
            for code, counts in sorted(violations.items()):
                per = ", ".join(
                    f"{s}={n}" for s, n in sorted(counts.items()) if n
                )
                lines.append(f"  {code}: {per}")
        else:
            lines.append("\ninvariant violations: none")
        errors = self.errors()
        if errors:
            lines.append("errors: " + ", ".join(f"{k}={v}" for k, v in errors.items()))
        anomalies = self.anomalies()
        if anomalies:
            lines.append(f"\ngross anomalies (>= {self.anomaly_factor:g}x):")
            for row in anomalies:
                lines.append(
                    f"  {row['name']} [{row['kind']}] {row['scheduler']}: "
                    f"{row['metric']} {row['value']:.6g} vs best "
                    f"{row['best']:.6g} ({row['ratio']:.1f}x)"
                )
        else:
            lines.append(f"gross anomalies (>= {self.anomaly_factor:g}x): none")
        return "\n".join(lines)


def run_corpus(
    specs: Sequence[ScenarioSpec],
    schedulers: Optional[Sequence[str]] = None,
    *,
    n_jobs: Optional[int] = None,
    anomaly_factor: float = 5.0,
    seed: Optional[int] = None,
) -> CorpusReport:
    """Run every scheduler over every spec; order is spec-major, so the
    report is bit-identical whether cells run serially or in a pool."""
    if schedulers:
        for name in schedulers:
            SCHEDULERS.get(name)  # typos die here with a did-you-mean
        names = tuple(schedulers)
    else:
        names = SCHEDULERS.names()
    cells = [(spec, sched) for spec in specs for sched in names]
    outcomes = run_cells(cells, n_jobs, cache=False, worker=_cell_worker)
    return CorpusReport(
        schedulers=names,
        cells=tuple(outcomes),
        anomaly_factor=anomaly_factor,
        seed=seed,
    )
