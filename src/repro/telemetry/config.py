"""What a run asks of telemetry: the knobs and the sample cap.

Kept apart from the metric catalog (:mod:`repro.telemetry.runtime_metrics`)
so a run's configuration and the CLI can name them without importing the
registry a telemetry-free run never builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TelemetryConfig", "SampleCapError", "MAX_SAMPLES"]

#: the most periodic samples one fold takes: an interval that would take
#: more is refused before the first sample (see :class:`SampleCapError`)
MAX_SAMPLES = 100_000


class SampleCapError(ValueError):
    """A sampling interval too fine for the run: more than :data:`MAX_SAMPLES`
    samples between start and makespan."""


@dataclass(frozen=True)
class TelemetryConfig:
    """Per-run telemetry knobs (attach to ``RuntimeConfig.telemetry``;
    ``None`` there means no registry).

    ``sample_interval_s > 0`` asks the fold for a flattened snapshot of the
    registry every interval of simulated time, appended to
    :attr:`CedrTelemetry.samples`.  Snapshots are a function of the run
    record alone, so they are bit-identical between serial and process-
    pool (``--jobs``) sweeps.  ``0`` takes no periodic samples; the final
    sample at the makespan is always taken.
    """

    sample_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.sample_interval_s < math.inf:  # NaN fails both
            raise ValueError(
                f"sample_interval_s must be finite and >= 0, "
                f"got {self.sample_interval_s}"
            )
