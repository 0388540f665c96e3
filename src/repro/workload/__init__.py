"""Workload generation: injection rates, arrival schedules, app mixes."""

from .injection import paper_injection_rates
from .workload import (
    WORKLOADS,
    WorkloadEntry,
    WorkloadSpec,
    autonomous_vehicle_workload,
    av_workload_scaled,
    available_workloads,
    make_workload,
    radar_comms_workload,
    register_workload,
)

__all__ = [
    "paper_injection_rates",
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
