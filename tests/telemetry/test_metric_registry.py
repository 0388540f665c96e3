"""Unit tests for the metric primitives and the central registry."""

import math

import pytest

from repro.telemetry import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    RECOVERY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)


# --------------------------------------------------------------------- #
# counters and gauges
# --------------------------------------------------------------------- #

def test_counter_accumulates_and_rejects_negative():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError, match=">= 0"):
        c.inc(-1.0)
    assert c.state() == {"value": 3.5}


def test_gauge_moves_both_ways():
    """A gauge is its ``value``: the fold assigns and adjusts it in place
    (there are no ``set`` / ``inc`` / ``dec`` wrappers to keep)."""
    g = Gauge()
    g.value = 4.0
    g.value += 1.0
    g.value -= 2.0
    assert g.value == 3.0 and g.state() == {"value": 3.0}
    assert not {"set", "inc", "dec"} & set(dir(g))


# --------------------------------------------------------------------- #
# histograms
# --------------------------------------------------------------------- #

def test_histogram_bucketing_and_cumulation():
    h = Histogram((1.0, 10.0, 100.0))
    for v in (0.5, 1.0, 5.0, 50.0, 500.0, 5000.0):
        h.observe(v)
    # le is inclusive: 1.0 lands in the first bucket
    assert h.counts == [2, 1, 1, 2]
    assert h.cumulative() == [2, 3, 4, 6]
    assert h.count == 6
    assert h.sum == pytest.approx(5556.5)


def _ladder_scan(bounds, value):
    """The bucket rule as a linear scan: the first bound ``value <= bound``
    holds for, else the +Inf tail."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


def _edge_values(bounds):
    values = [0.0, -0.0, math.nan, math.inf, -math.inf,
              math.nextafter(bounds[0], -math.inf) / 2, bounds[-1] * 2]
    for bound in bounds:
        values += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return values


@pytest.mark.parametrize(
    "bounds", [LATENCY_BUCKETS, DEPTH_BUCKETS, RECOVERY_BUCKETS, (1.0,)],
    ids=["latency", "depth", "recovery", "one-bound"],
)
def test_histogram_bucket_search_matches_the_ladder_scan(bounds):
    """Each bound exactly, one ulp either side, below the first, above the
    last, both zeros, the infinities and NaN (the +Inf tail)."""
    values = _edge_values(bounds)
    h = Histogram(bounds)
    for value in values:
        before = list(h.counts)
        h.observe(value)
        bucket = _ladder_scan(h.bounds, value)
        assert [b - a for a, b in zip(before, h.counts)] == [
            int(i == bucket) for i in range(len(bounds) + 1)
        ], value
    assert h.count == len(values) and math.isnan(h.sum)
    assert h.counts[-1] == 4  # NaN, +inf, one ulp past and twice the last bound
    many = Histogram(bounds)
    many.observe_all(values)
    assert (many.counts, many.count) == (h.counts, h.count)


def test_histogram_observe_all_sums_in_order():
    values = [0.1, 1e16, -1e16, 0.2, 3.0]
    one, many = Histogram(DEPTH_BUCKETS), Histogram(DEPTH_BUCKETS)
    for value in values:
        one.observe(value)
    many.observe_all(values)
    assert (one.sum.hex(), one.counts) == (many.sum.hex(), many.counts)


def test_histogram_validates_bounds():
    with pytest.raises(ValueError, match="at least one"):
        Histogram(())
    with pytest.raises(ValueError, match="ascending"):
        Histogram((1.0, 1.0))
    with pytest.raises(ValueError, match="ascending"):
        Histogram((2.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        Histogram((1.0, float("inf")))


def test_histogram_quantile_interpolates():
    h = Histogram((1.0, 2.0, 4.0))
    for v in (0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
        h.observe(v)
    # median: target 5 falls in (1, 2] with 2 below it -> 1 + (5-2)/4
    assert h.quantile(0.5) == pytest.approx(1.75)
    # q=0.2 stays in the first bucket, floored at 0
    assert h.quantile(0.2) == pytest.approx(1.0)
    assert h.quantile(1.0) == pytest.approx(4.0)


def test_histogram_quantile_edge_cases():
    h = Histogram((1.0, 2.0))
    assert h.quantile(0.99) == 0.0          # no observations yet
    h.observe(50.0)                          # +Inf tail only
    assert h.quantile(0.99) == 2.0           # clamps to the last finite bound
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        h.quantile(1.5)


# --------------------------------------------------------------------- #
# families and the registry
# --------------------------------------------------------------------- #

def test_unlabelled_registration_returns_bare_metric():
    r = MetricRegistry()
    c = r.counter("events_total", "help text")
    assert isinstance(c, Counter)
    c.inc()
    assert r.get("events_total").series() == [((), c)]


def test_labelled_family_children_and_sorted_series():
    r = MetricRegistry()
    fam = r.counter("per_pe_total", labels=("pe",))
    fam.labels("zebra").inc(1)
    fam.labels("alpha").inc(2)
    assert fam.labels("zebra") is fam.labels("zebra")  # cached child
    keys = [key for key, _ in fam.series()]
    assert keys == [("alpha",), ("zebra",)]  # sorted, not first-use, order


def test_flat_view_picks_up_children_added_after_a_read():
    r = MetricRegistry()
    fam = r.counter("per_pe_total", labels=("pe",))
    hist = r.histogram("lat_seconds", (1.0,))
    fam.labels("b").inc()
    assert r.flat() == {"per_pe_total{pe=b}": 1.0, "lat_seconds_count": 0, "lat_seconds_sum": 0.0}
    fam.labels("a").inc(2)
    hist.observe(0.5)
    assert list(r.flat().items()) == [
        ("per_pe_total{pe=a}", 2.0), ("per_pe_total{pe=b}", 1.0),
        ("lat_seconds_count", 1), ("lat_seconds_sum", 0.5),
    ]


def test_label_arity_enforced():
    r = MetricRegistry()
    fam = r.counter("pairs_total", labels=("a", "b"))
    with pytest.raises(ValueError, match="expects labels"):
        fam.labels("only-one")


def test_duplicate_registration_rejected():
    r = MetricRegistry()
    r.gauge("depth")
    with pytest.raises(ValueError, match="registered twice"):
        r.counter("depth")


def test_registration_order_preserved_and_snapshot_shape():
    r = MetricRegistry()
    r.counter("b_total", "B")
    r.gauge("a_depth", "A")
    r.histogram("lat_seconds", (0.1, 1.0), "L")
    assert [f.name for f in r.families()] == ["b_total", "a_depth", "lat_seconds"]
    snap = r.snapshot()
    assert list(snap) == ["b_total", "a_depth", "lat_seconds"]
    assert snap["lat_seconds"]["bounds"] == [0.1, 1.0]
    assert snap["a_depth"]["type"] == "gauge"
    assert snap["b_total"]["series"] == [{"labels": {}, "value": 0.0}]
