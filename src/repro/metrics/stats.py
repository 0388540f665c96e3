"""Trial aggregation: the paper averages every metric over 25 trials.

:class:`TrialStats` summarizes one metric across repeated runs (mean, std,
confidence half-width); :func:`aggregate_trials` reduces a list of
:class:`~repro.metrics.measures.RunResult` objects to per-metric statistics;
:func:`saturated_mean` and :func:`detect_knee` read a swept series.
Benchmarks use fewer trials than the paper (documented per bench) - the
interfaces are count-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .measures import RunResult

__all__ = ["TrialStats", "aggregate_trials", "saturated_mean", "detect_knee"]


@dataclass(frozen=True)
class TrialStats:
    """Mean/std/extremes of one scalar metric over trials."""

    mean: float
    std: float
    n: int
    lo: float
    hi: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "TrialStats":
        if not len(samples):
            raise ValueError("no samples to aggregate")
        arr = np.asarray(samples, dtype=float)
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            n=int(arr.size),
            lo=float(arr.min()),
            hi=float(arr.max()),
        )

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / np.sqrt(self.n) if self.n > 1 else 0.0


_METRICS: dict[str, Callable[[RunResult], float]] = {
    "exec_time": lambda r: r.mean_exec_time,
    "runtime_overhead": lambda r: r.runtime_overhead_per_app,
    "sched_overhead": lambda r: r.sched_overhead_per_app,
    "makespan": lambda r: r.makespan,
    "ready_depth_mean": lambda r: r.ready_depth_mean,
    "goodput": lambda r: r.goodput,
}


def aggregate_trials(results: Sequence[RunResult]) -> dict[str, TrialStats]:
    """Reduce trial runs to {metric name: TrialStats}."""
    if not results:
        raise ValueError("no trial results to aggregate")
    return {
        name: TrialStats.from_samples([fn(r) for r in results])
        for name, fn in _METRICS.items()
    }


def saturated_mean(xs: Sequence[float], ys: Sequence[float], x_from: float) -> float:
    """Mean of *ys* over the saturated region ``x >= x_from``.

    The paper quotes saturated-region averages (e.g. the 19.52% Fig. 5
    reduction "throughout the saturated region"); this helper computes them
    from a sweep series.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"series length mismatch: {xs.shape} vs {ys.shape}")
    mask = xs >= x_from
    if not mask.any():
        raise ValueError(f"no points at or beyond x={x_from}")
    return float(ys[mask].mean())


def detect_knee(xs: Sequence[float], ys: Sequence[float]) -> Optional[int]:
    """Index of the knee of a saturating curve (kneedle-style), or None.

    The knee is the point of maximum perpendicular distance from the chord
    joining the curve's endpoints - robust for monotone curves that bend
    once, which is exactly the throughput-vs-offered-load shape.  Both
    axes are normalized to [0, 1] first so the answer does not depend on
    units.  Returns ``None`` for degenerate inputs (fewer than three
    points, or a flat/linear curve with no interior point off the chord).
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"length mismatch: {n} xs vs {len(ys)} ys")
    if n < 3:
        return None
    x_span = xs[-1] - xs[0]
    y_span = max(ys) - min(ys)
    if x_span <= 0 or y_span <= 0:
        return None
    xn = [(x - xs[0]) / x_span for x in xs]
    yn = [(y - min(ys)) / y_span for y in ys]
    # distance from (x, y) to the chord through (xn[0], yn[0])-(xn[-1], yn[-1]),
    # up to a constant factor common to every point
    dx, dy = xn[-1] - xn[0], yn[-1] - yn[0]
    best_i, best_d = None, 0.0
    for i in range(1, n - 1):
        d = abs(dy * (xn[i] - xn[0]) - dx * (yn[i] - yn[0]))
        if d > best_d:
            best_i, best_d = i, d
    return best_i
