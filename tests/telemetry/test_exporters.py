"""Exporter tests: the Prometheus text format is pinned by a golden file."""

import json
import pathlib

from repro.telemetry import (
    CedrTelemetry,
    MetricRegistry,
    TelemetryConfig,
    to_json_dict,
    to_prometheus_text,
    write_metrics,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_small.prom")


def small_registry() -> MetricRegistry:
    """Fixed registry exercising every family kind and the label escaper."""
    r = MetricRegistry()
    c = r.counter("demo_events_total", "Events observed")
    c.inc()
    c.inc(2.0)
    g = r.gauge("demo_depth", "Queue depth", labels=("queue",))
    g.labels("ready").value = 3
    g.labels("done").value = 1.5
    g.labels('we"ird\\q').value = 2
    h = r.histogram("demo_latency_seconds", (0.001, 0.01, 0.1), "Latency")
    for v in (0.0005, 0.002, 0.05, 2.0):
        h.observe(v)
    return r


def test_prometheus_text_matches_golden_file():
    text = to_prometheus_text(small_registry())
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_prometheus_text_is_deterministic():
    assert to_prometheus_text(small_registry()) == to_prometheus_text(small_registry())


def test_prometheus_histogram_invariants():
    lines = to_prometheus_text(small_registry()).splitlines()
    buckets = [ln for ln in lines if ln.startswith("demo_latency_seconds_bucket")]
    # one line per finite bound plus the implicit +Inf tail
    assert len(buckets) == 4
    assert buckets[-1].startswith('demo_latency_seconds_bucket{le="+Inf"}')
    counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
    assert counts == sorted(counts)  # cumulative
    assert "demo_latency_seconds_count 4" in lines


def test_json_dump_shape():
    telemetry = CedrTelemetry(TelemetryConfig(), pe_names=("cpu0",))
    telemetry.record_tasks([("cpu0", 0.25)])
    telemetry.sample(1.0)
    doc = to_json_dict(telemetry)
    assert doc["schema"] == "repro.telemetry/1"
    assert doc["metrics"]["cedr_tasks_completed"]["series"][0]["value"] == 1.0
    assert doc["samples"][0]["t"] == 1.0
    assert doc["samples"][0]["values"]["cedr_pe_busy_seconds_total{pe=cpu0}"] == 0.25


def test_write_metrics_strips_suffix_and_creates_parents(tmp_path):
    telemetry = CedrTelemetry(TelemetryConfig(), pe_names=("cpu0",))
    base = tmp_path / "deep" / "dir" / "metrics.json"  # suffix should be stripped
    json_path, prom_path = write_metrics(str(base), telemetry)
    assert json_path.endswith("metrics.json") and prom_path.endswith("metrics.prom")
    doc = json.loads(pathlib.Path(json_path).read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.telemetry/1"
    text = pathlib.Path(prom_path).read_text(encoding="utf-8")
    assert text.startswith("# HELP ") and text.endswith("\n")
