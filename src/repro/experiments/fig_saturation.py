"""Saturation sweep - service throughput and p99 latency vs offered load.

This figure has no counterpart in the paper: it exercises the
``repro.serve`` service tier (open arrival streams, admission control, SLO
accounting - see docs/INTERNALS.md, "Service mode & admission control").

Setup: one tenant mixing the paper's radar/comms applications (Pulse
Doppler + WiFi TX, round-robin) on the ZCU102 with 3 ARM cores and 1 FFT
accelerator, Poisson arrivals, a fixed service window, and the configured
admission policy.  The x-axis sweeps the offered load (arrivals/s):

* ``saturation_throughput`` - completed applications per simulated second;
* ``saturation_p99`` - exact p99 response time over completed arrivals.

Expected shape: throughput tracks the offered load while the platform
keeps up, then flattens at capacity as admission sheds the excess; p99
climbs as queues fill and then plateaus at whatever response time the
in-system cap bounds.  :func:`detect_knee` marks the saturation knee -
the offered load of maximum curvature on the throughput curve - reported
as its own one-point ``saturation_knee`` panel.

Every (offered load, trial) cell is an independent serve run sharded
across the PR-1 process pool and memoized by the content-addressed sweep
cache under the serve codec; re-plotting with extra load points costs only
the new cells.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps import PulseDoppler, WifiTx
from repro.metrics import FigureSeries
from repro.platforms import zcu102
from repro.serve import AdmissionConfig, ArrivalSpec, ServeConfig, TenantSpec
from repro.serve.driver import serve_cell, serve_codec

from .common import run_cells, trial_seeds

__all__ = [
    "run_fig_saturation",
    "detect_knee",
    "OFFERED_LOADS",
    "SATURATION_DURATION",
]

#: offered loads (arrivals/s) swept on the x-axis; spans well below to
#: well past the ZCU102 3C+1FFT capacity for this mix so the knee is
#: inside the sweep
OFFERED_LOADS = (25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 450.0)

#: service window per cell (simulated seconds)
SATURATION_DURATION = 0.4


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


def _serve_config(load: float, duration: float, policy: str, slo_s: float) -> ServeConfig:
    return ServeConfig(
        tenants=(
            TenantSpec(
                "clients",
                ArrivalSpec.make("poisson", rate=load),
                apps=(PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)),
                slo_s=slo_s,
            ),
        ),
        duration=duration,
        admission=AdmissionConfig(policy=policy),
    )


def run_fig_saturation(
    loads: Optional[Sequence[float]] = None,
    duration: float = SATURATION_DURATION,
    trials: int = 2,
    seed: int = 0,
    policy: str = "shed",
    slo_s: float = 0.05,
    n_jobs: Optional[int] = None,
) -> dict[str, FigureSeries]:
    """Sweep offered load; returns {panel id: FigureSeries}.

    Besides the two swept panels, a one-point ``saturation_knee`` panel
    marks the detected saturation knee (omitted when no knee exists, e.g.
    a sweep entirely below capacity).
    """
    loads = tuple(float(r) for r in (loads if loads is not None else OFFERED_LOADS))
    platform = zcu102(n_cpu=3, n_fft=1)
    setup = (
        f"ZCU102 3C+1FFT, PD+TX mix, Poisson arrivals, "
        f"{duration:g}s window, {policy} admission"
    )
    panels = {
        "saturation_throughput": FigureSeries(
            "saturation_throughput", f"Service throughput vs offered load ({setup})",
            "offered load (apps/s)", "throughput (completed apps/s)",
        ),
        "saturation_p99": FigureSeries(
            "saturation_p99", f"p99 response time vs offered load ({setup})",
            "offered load (apps/s)", "p99 response time (s)",
        ),
    }
    cells = [
        (platform, _serve_config(load, duration, policy, slo_s), s, None)
        for load in loads
        for s in trial_seeds(trials, seed)
    ]
    results = run_cells(cells, n_jobs, worker=serve_cell, codec=serve_codec())
    throughput_ys, p99_ys = [], []
    for i in range(len(loads)):
        chunk = results[i * trials:(i + 1) * trials]
        throughput_ys.append(sum(r.throughput for r in chunk) / trials)
        p99_ys.append(sum(r.p99_response_s for r in chunk) / trials)
    label = policy.upper()
    panels["saturation_throughput"].add(label, loads, throughput_ys)
    panels["saturation_p99"].add(label, loads, p99_ys)
    knee = detect_knee(loads, throughput_ys)
    if knee is not None:
        knee_panel = FigureSeries(
            "saturation_knee",
            f"Detected saturation knee ({setup})",
            "offered load (apps/s)", "value at the knee",
        )
        knee_panel.add("THROUGHPUT", (loads[knee],), (throughput_ys[knee],))
        knee_panel.add("P99", (loads[knee],), (p99_ys[knee],))
        panels["saturation_knee"] = knee_panel
    return panels
