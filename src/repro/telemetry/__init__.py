"""repro.telemetry: deterministic runtime metrics for the CEDR reproduction.

A central registry of counters, gauges, and fixed-bucket histograms,
folded from the run record (:class:`~repro.runtime.Logbook`) at shutdown,
periodic snapshots included; Prometheus-text and JSON exporters.  See
docs/INTERNALS.md ("Telemetry") for metric names, bucket ladders, the fold
and the determinism contract.
"""

from .exporters import (
    to_json_dict,
    to_prometheus_text,
    write_json,
    write_metrics,
    write_prometheus,
)
from .registry import Counter, Gauge, Histogram, MetricFamily, MetricRegistry
from .runtime_metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    MAX_SAMPLES,
    RECOVERY_BUCKETS,
    CedrTelemetry,
    SampleCapError,
    TelemetryConfig,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "CedrTelemetry",
    "TelemetryConfig",
    "SampleCapError",
    "MAX_SAMPLES",
    "LATENCY_BUCKETS",
    "DEPTH_BUCKETS",
    "RECOVERY_BUCKETS",
    "to_prometheus_text",
    "to_json_dict",
    "write_prometheus",
    "write_json",
    "write_metrics",
]
