"""Deterministic metric primitives: counters, gauges, fixed-bucket histograms.

This is the reproduction's stand-in for CEDR's "performance monitoring
hooks" (Mack et al., arXiv:2204.08962): a central registry of named metric
families, filled by folding the run record at shutdown
(:meth:`repro.telemetry.CedrTelemetry.fold`).  Three properties matter and
are pinned by tests:

* **Determinism** - metrics are a pure function of the simulated run.  No
  wall-clock reads, no process ids, no iteration over unordered containers
  at export time: snapshots are bit-identical between serial and
  process-pool (``--jobs``) sweeps.
* **Fixed buckets** - histograms use explicit upper-bound ladders declared
  at registration time, never adaptive buckets (adaptive boundaries would
  make two runs' exports incomparable).
* **Zero timing impact** - the registry is filled after the run from its
  record; it charges no simulated cost and schedules no events, so enabling
  telemetry never changes what a run computes, only what it reports.

The label model follows Prometheus: a *family* (``cedr_pe_busy_seconds``,
labelled by ``pe``) owns one child metric per label-value tuple, created on
first use via :meth:`MetricFamily.labels`.  Unlabelled registrations return
the bare metric directly, which keeps hot-path call sites free of lookups.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
]


class Counter:
    """Monotonically increasing value (events, seconds of busy time, ...)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def state(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Instantaneous value that can move both ways (queue depth, in-flight)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0

    def state(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``bounds`` are ascending finite upper bounds; an implicit ``+Inf``
    bucket catches the tail.  ``counts[i]`` is *non*-cumulative per bucket
    internally; exporters cumulate, matching the Prometheus exposition
    format's ``le`` convention.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite, got {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending, got {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf tail
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        # the first bound >= value; past the last bound - NaN included, as
        # it compares false - is the +Inf tail
        bounds = self.bounds
        self.counts[bisect_left(bounds, value) if value <= bounds[-1] else len(bounds)] += 1
        self.sum += value
        self.count += 1

    def observe_all(self, values: Sequence[float]) -> None:
        """:meth:`observe` each of *values*, in order."""
        bounds, counts, total = self.bounds, self.counts, self.sum
        top, tail = bounds[-1], len(bounds)
        for value in values:
            counts[bisect_left(bounds, value) if value <= top else tail] += 1
            total += value
        self.sum = total
        self.count += len(values)

    def cumulative(self) -> list[int]:
        """Counts cumulated in ``le`` order (last entry == ``count``)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile, Prometheus ``histogram_quantile`` style.

        Linear interpolation inside the bucket holding the *q*-th
        observation (bucket floors at 0 below the first bound); the +Inf
        tail clamps to the highest finite bound - an underestimate, which
        is the conservative direction for the admission controller's p99
        backpressure signal (it sheds later, never spuriously).  Pure
        arithmetic over recorded counts: deterministic, and 0.0 with no
        observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= target and c > 0:
                if i >= len(self.bounds):   # +Inf tail: clamp
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                return lo + (hi - lo) * (target - (running - c)) / c
        return self.bounds[-1]

    def state(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricFamily:
    """One named metric plus its labelled children.

    Children are stored keyed by label-value tuple; export order sorts the
    keys so the output never depends on first-use order (which *can* differ
    between runs that interleave applications differently).
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        bounds: Optional[tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.bounds = bounds
        self._children: dict[tuple[str, ...], Any] = {}
        #: label values -> the ``(flat key, child, attribute)`` rows of
        #: :meth:`MetricRegistry.flat`, keyed once, as the child is made
        self._flat: dict[tuple[str, ...], list[tuple[str, Any, str]]] = {}

    def _make(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.bounds)

    def labels(self, *values: str):
        """Child metric for one label-value tuple (created on first use)."""
        child = self._children.get(values)  # labels already strings: one hit
        if child is not None:
            return child
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
            labels = ",".join(f"{k}={v}" for k, v in zip(self.label_names, key))
            suffix = "{" + labels + "}" if key else ""
            histogram = self.kind == "histogram"
            parts = (("_count", "count"), ("_sum", "sum")) if histogram else (("", "value"),)
            self._flat[key] = [(f"{self.name}{part}{suffix}", child, attr) for part, attr in parts]
        return child

    def series(self) -> list[tuple[tuple[str, ...], Any]]:
        """(label values, metric) pairs in sorted label order."""
        return sorted(self._children.items())

    def state(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [
                {"labels": dict(zip(self.label_names, key)), **metric.state()}
                for key, metric in self.series()
            ],
        }
        if self.bounds is not None:
            entry["bounds"] = list(self.bounds)
        return entry


class MetricRegistry:
    """Central catalog of metric families, keyed by name.

    Registration order is preserved for export (families are declared once,
    at telemetry construction, so the order is itself deterministic).
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        #: :meth:`flat`'s plan: child count, then its keys, metrics, attributes
        self._plan: tuple[int, list, list, list] = (0, [], [], [])

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Iterable[str],
        bounds: Optional[Sequence[float]] = None,
    ):
        if name in self._families:
            raise ValueError(f"metric {name!r} registered twice")
        label_names = tuple(labels)
        family = MetricFamily(
            name, kind, help, label_names,
            bounds=tuple(float(b) for b in bounds) if bounds is not None else None,
        )
        self._families[name] = family
        if not label_names:
            return family.labels()  # unlabelled: hand back the bare metric
        return family

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()):
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()):
        return self._register(name, "gauge", help, labels)

    def histogram(
        self, name: str, bounds: Sequence[float], help: str = "", labels: Iterable[str] = ()
    ):
        return self._register(name, "histogram", help, labels, bounds=bounds)

    def families(self) -> list[MetricFamily]:
        """All families in registration order."""
        return list(self._families.values())

    def get(self, name: str) -> MetricFamily:
        return self._families[name]

    def flat(self) -> dict[str, float]:
        """Scalar view of every series, for compact time-series samples.

        Counters/gauges map to their value; histograms contribute
        ``<name>_count`` and ``<name>_sum``.  Labelled series append a
        ``{k=v,...}`` suffix in sorted label order.
        """
        size = sum(map(len, map(attrgetter("_children"), self._families.values())))
        if size != self._plan[0]:  # children are only ever added
            rows = [row for family in self._families.values()
                    for key in sorted(family._flat) for row in family._flat[key]]
            self._plan = (size, [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
        _, keys, metrics, attrs = self._plan
        return dict(zip(keys, map(getattr, metrics, attrs)))

    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible dump of every family (deterministic ordering)."""
        return {name: family.state() for name, family in self._families.items()}
