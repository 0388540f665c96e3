"""repro.telemetry: deterministic runtime metrics for the CEDR reproduction.

A central registry of counters, gauges, and fixed-bucket histograms,
folded from the run record (:class:`~repro.runtime.Logbook`) at shutdown,
periodic snapshots included; Prometheus-text and JSON exporters.  See
docs/INTERNALS.md ("Telemetry") for metric names, bucket ladders, the fold
and the determinism contract.
"""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "config": ("TelemetryConfig", "SampleCapError", "MAX_SAMPLES"),
    "registry": ("Counter", "Gauge", "Histogram", "MetricFamily", "MetricRegistry"),
    "runtime_metrics": ("CedrTelemetry", "LATENCY_BUCKETS", "DEPTH_BUCKETS",
                        "RECOVERY_BUCKETS"),
    "exporters": ("to_prometheus_text", "to_json_dict", "write_prometheus", "write_json",
                  "write_metrics"),
})
