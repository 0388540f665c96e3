"""Workload composition: which applications, how many instances, when.

A :class:`WorkloadSpec` is the experiment-facing description ("5x Pulse
Doppler + 5x WiFi TX") that, given an injection rate and a mode, expands
into concrete (AppInstance, arrival-time) pairs ready for submission.  The
paper's two workloads are provided as constructors:

* :func:`radar_comms_workload` - 5x PD + 5x TX (Figs 5-8);
* :func:`autonomous_vehicle_workload` - 1x LD (long-latency, continuous)
  plus dynamically arriving PD and TX instances (Figs 9-10), and
  :func:`av_workload_scaled`, the same at a coarser task granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from itertools import islice

from repro.apps import CedrApplication, LaneDetection, PulseDoppler, Variant, WifiTx
from repro.registry import Registry
from repro.runtime.app import AppInstance
from repro.serve.arrival import ARRIVALS, SEED_FREE_ARRIVALS, make_arrival_stream
from repro.simcore import child_rng

from .injection import stream_spec

__all__ = [
    "WORKLOADS",
    "WorkloadEntry",
    "WorkloadSpec",
    "register_workload",
    "make_workload",
    "available_workloads",
    "radar_comms_workload",
    "autonomous_vehicle_workload",
    "av_workload_scaled",
]

#: named workload presets - factories returning a :class:`WorkloadSpec`.
#: Scenario specs reference these by name (``preset = "radar-comms"``);
#: third-party mixes plug in via the ``repro.workloads`` entry-point group.
WORKLOADS: Registry = Registry("workload", entry_point_group="repro.workloads")


def register_workload(name: str):
    """Decorator registering a ``(**params) -> WorkloadSpec`` factory."""
    return WORKLOADS.register(name)


def make_workload(name: str, **params) -> "WorkloadSpec":
    """Build a registered workload preset by name."""
    return WORKLOADS.get(name)(**params)


def available_workloads() -> tuple[str, ...]:
    """Registered workload-preset names, sorted."""
    return WORKLOADS.names()


@dataclass(frozen=True)
class WorkloadEntry:
    """One application stream inside a workload."""

    app: CedrApplication
    count: int
    variant: Optional[Variant] = None  # None -> app's default

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"stream of {self.app.name} needs count >= 1")


@dataclass(frozen=True)
class WorkloadSpec:
    """A mix of application streams.

    ``arrival_process`` names any generator in the arrival registry
    (:mod:`repro.serve.arrival`): ``"periodic"`` is the paper's definition
    (instance *j* at ``j * frame_mb / rate``); ``"poisson"`` keeps the
    same mean rate with exponential gaps (CEDR's arbitrary-trace
    injection, used by the arrival-process ablation); ``"bursty"`` /
    ``"diurnal"`` / ``"trace"`` open the same ablation to the service
    tier's processes.  ``arrival_params`` forwards process-specific
    parameters (e.g. ``(("burst_len", 0.02),)``) into the generator.
    """

    name: str
    entries: tuple[WorkloadEntry, ...]
    arrival_process: str = "periodic"
    arrival_params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # a hit never scans entry points; a miss raises a did-you-mean error
        ARRIVALS.get(self.arrival_process)

    def instantiate(
        self, mode: str, rate_mbps: float, seed: int, timing_only: bool = False
    ) -> list[tuple[AppInstance, float]]:
        """Expand into (instance, arrival time) pairs for one run.

        Input data is synthesized from a per-(seed, stream) RNG so trials
        with different seeds see different noise/payloads but the same
        structure; Poisson gaps draw from a separate per-stream stream so
        arrival randomness never perturbs payload synthesis.  A stream nothing
        reads is not built (``None``): a *timing_only* run's payloads (its
        instances carry stand-ins) and a ``SEED_FREE_ARRIVALS`` process's.
        """
        out: list[tuple[AppInstance, float]] = []
        for entry in self.entries:
            # one registry stream per (entry, rate): the spec carries the
            # exact frame_mb / rate_mbps period, the RNG label is the
            # historical per-stream one, so periodic/poisson schedules are
            # bit-identical to the pre-registry inline code paths
            spec = stream_spec(
                self.arrival_process, entry.app.frame_mb, rate_mbps,
                extra=self.arrival_params,
            )
            arrival_rng = None if self.arrival_process in SEED_FREE_ARRIVALS else child_rng(
                seed, f"arrivals.{self.name}.{entry.app.name}")
            arrivals = list(islice(make_arrival_stream(spec, arrival_rng), entry.count))
            if len(arrivals) < entry.count:
                raise ValueError(
                    f"arrival process {self.arrival_process!r} produced only "
                    f"{len(arrivals)} of {entry.count} instances for stream "
                    f"{entry.app.name!r} (finite trace shorter than the "
                    f"workload - add loop= or shrink the stream)"
                )
            rng = None if timing_only else child_rng(seed, f"workload.{self.name}.{entry.app.name}")
            for j, t in enumerate(arrivals):
                inst = entry.app.make_instance(
                    mode, rng, variant=entry.variant, timing_only=timing_only
                )
                out.append((inst, float(t)))
        out.sort(key=lambda pair: pair[1])
        return out


@register_workload("radar-comms")
def radar_comms_workload(
    n_pd: int = 5,
    n_tx: int = 5,
    pd: Optional[PulseDoppler] = None,
    tx: Optional[WifiTx] = None,
    variant: Optional[Variant] = None,
) -> WorkloadSpec:
    """The Fig. 5-8 workload: 5 instances each of Pulse Doppler and WiFi TX."""
    return WorkloadSpec(
        name="radar-comms",
        entries=(
            WorkloadEntry(pd or PulseDoppler(), n_pd, variant),
            WorkloadEntry(tx or WifiTx(), n_tx, variant),
        ),
    )


@register_workload("autonomous-vehicle")
def autonomous_vehicle_workload(
    n_ld: int = 1,
    n_pd: int = 5,
    n_tx: int = 5,
    ld: Optional[LaneDetection] = None,
    pd: Optional[PulseDoppler] = None,
    tx: Optional[WifiTx] = None,
) -> WorkloadSpec:
    """The Fig. 9-10 workload: one long-latency Lane Detection instance with
    dynamically arriving Pulse Doppler and WiFi TX instances."""
    return WorkloadSpec(
        name="autonomous-vehicle",
        entries=(
            WorkloadEntry(ld or LaneDetection(), n_ld),
            WorkloadEntry(pd or PulseDoppler(), n_pd),
            WorkloadEntry(tx or WifiTx(), n_tx),
        ),
    )


def av_workload_scaled(ld_batch: int = 64, app_batch: int = 4) -> WorkloadSpec:
    """The autonomous-vehicle workload with adjustable task granularity.

    Lane Detection's 1-D FFT rows are batched ``ld_batch`` rows per task
    and ``app_batch`` groups PD/TX kernel rows; the paper's granularity is
    1 for both (see DESIGN.md scale note).  The heavy LD workload makes
    batch=1 sweeps expensive, and the Fig. 9/10 trends are insensitive to
    PD/TX granularity.
    """
    return autonomous_vehicle_workload(
        ld=LaneDetection(batch=ld_batch),
        pd=PulseDoppler(batch=app_batch),
        tx=WifiTx(batch=app_batch),
    )
