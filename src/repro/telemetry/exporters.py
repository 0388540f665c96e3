"""Metric exporters: Prometheus exposition text and JSON dumps.

Both exporters are pure functions of a :class:`~repro.telemetry.registry.
MetricRegistry` (plus, for the JSON form, the fold's snapshot series),
and both are deterministic byte-for-byte: family order is registration
order, series order is sorted label order, and floats are rendered with
Python ``repr`` (shortest round-trip form).  A golden-file test pins the
Prometheus output format.

The Prometheus text follows the exposition-format conventions consumed by
``promtool`` and every Prometheus scraper:

* ``# HELP`` / ``# TYPE`` headers per family;
* histogram families expand to ``_bucket{le=...}`` (cumulative counts,
  with the implicit ``+Inf`` bucket), ``_sum``, and ``_count`` lines;
* label values are escaped (backslash, double quote, newline).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from repro.atomic import atomic_write

if TYPE_CHECKING:  # pragma: no cover
    from .registry import MetricRegistry
    from .runtime_metrics import CedrTelemetry

__all__ = [
    "to_prometheus_text",
    "to_json_dict",
    "write_prometheus",
    "write_json",
    "write_metrics",
]


def _fmt(value: float) -> str:
    """Render a sample value: integral floats as integers, rest as repr."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labelset(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus_text(registry: "MetricRegistry") -> str:
    """Serialize every family to the Prometheus exposition format."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, metric in family.series():
            if family.kind == "histogram":
                cumulative = metric.cumulative()
                bound_strs = [_fmt(b) for b in metric.bounds] + ["+Inf"]
                for bound, count in zip(bound_strs, cumulative):
                    labels = _labelset(
                        family.label_names, values, extra=f'le="{bound}"'
                    )
                    lines.append(f"{family.name}_bucket{labels} {count}")
                base = _labelset(family.label_names, values)
                lines.append(f"{family.name}_sum{base} {_fmt(metric.sum)}")
                lines.append(f"{family.name}_count{base} {metric.count}")
            else:
                labels = _labelset(family.label_names, values)
                lines.append(f"{family.name}{labels} {_fmt(metric.value)}")
    return "\n".join(lines) + "\n"


def to_json_dict(telemetry: "CedrTelemetry") -> dict[str, Any]:
    """JSON-compatible dump: final metric state plus periodic samples."""
    return {
        "schema": "repro.telemetry/1",
        "sample_interval_s": telemetry.config.sample_interval_s,
        **telemetry.export_state(),
    }


def write_prometheus(path: str, registry: "MetricRegistry") -> str:
    with atomic_write(path) as fh:
        fh.write(to_prometheus_text(registry))
    return path


def write_json(path: str, telemetry: "CedrTelemetry") -> str:
    with atomic_write(path) as fh:
        json.dump(to_json_dict(telemetry), fh, indent=2, sort_keys=True, allow_nan=False)
    return path


def write_metrics(base_path: str, telemetry: "CedrTelemetry") -> tuple[str, str]:
    """Write ``<base>.json`` and ``<base>.prom``; returns both paths.

    ``base_path`` may carry either suffix already (it is stripped), so
    ``run --metrics-out out/metrics`` and ``--metrics-out out/metrics.json``
    produce the same pair of files.
    """
    base = base_path
    for suffix in (".json", ".prom"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    parent = os.path.dirname(base)
    if parent:
        os.makedirs(parent, exist_ok=True)
    json_path = write_json(base + ".json", telemetry)
    prom_path = write_prometheus(base + ".prom", telemetry.registry)
    return json_path, prom_path
