"""Injection-rate machinery: frames, Mbps, arrival schedules.

Paper Section III: "The amount of data processed by an application is
considered a frame, measured in Megabits (Mb).  Injection rate is defined
as the rate at which frame instances are generated per second and measured
in Mbps.  We use 29 injection rates between 10 and 2000 Mbps, where each
injection rate defines a periodic rate of job along with its associated
input data arrival for the given workload."

So each application stream is periodic with period ``frame_mb / rate``;
instance ``j`` of an application arrives at ``j * period``.

The arrival *processes* themselves live in the arrival-generator registry
(:mod:`repro.serve.arrival`) - one code path shared with the open-stream
service mode.  :func:`stream_spec` translates (frame, Mbps) into an
:class:`~repro.serve.arrival.ArrivalSpec`; a closed batch takes the first
``count`` instants of ``make_arrival_stream(spec, rng)``, which for the
periodic and Poisson processes are bit-identical to ``np.arange(count) *
period`` and to the cumsum of ``rng.exponential(period, count)`` (pinned
by the workload tests).
"""

from __future__ import annotations

import numpy as np

from repro.serve.arrival import ArrivalSpec

__all__ = [
    "paper_injection_rates",
    "stream_spec",
]


def paper_injection_rates(
    n: int = 29, lo: float = 10.0, hi: float = 2000.0
) -> np.ndarray:
    """The paper's 29-point sweep from 10 to 2000 Mbps.

    Geometric spacing: the paper's figures use a log-like x axis where the
    interesting transition (saturation near 100-500 Mbps) sits mid-sweep.
    """
    if n < 2:
        raise ValueError("need at least two rates")
    if not 0 < lo < hi:
        raise ValueError(f"bad rate range [{lo}, {hi}]")
    return np.round(np.geomspace(lo, hi, n), 1)


def stream_spec(
    kind: str,
    frame_mb: float,
    rate_mbps: float,
    extra: tuple[tuple[str, float], ...] = (),
) -> ArrivalSpec:
    """The :class:`ArrivalSpec` of one application stream at one Mbps rate.

    The paper's unit conversion lives here, once: a stream injecting
    ``rate_mbps`` with ``frame_mb`` per instance has mean inter-arrival
    ``frame_mb / rate_mbps`` seconds.  The quotient is passed through as
    the ``period`` parameter exactly (never re-derived from a rate), so
    registry-routed schedules stay bit-identical to the historical inline
    ones.  ``extra`` forwards process-specific parameters (burst/idle
    lengths, envelope cycle, ...) verbatim.
    """
    if frame_mb <= 0:
        raise ValueError(f"frame size must be positive, got {frame_mb}")
    if rate_mbps <= 0:
        raise ValueError(f"injection rate must be positive, got {rate_mbps}")
    period = frame_mb / rate_mbps
    return ArrivalSpec(kind, (("period", period), *extra))
