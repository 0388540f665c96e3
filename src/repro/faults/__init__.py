"""repro.faults - deterministic fault injection + task recovery for CEDR.

The fault *model* (:mod:`repro.faults.model`) turns a seeded
:class:`FaultConfig` into per-PE fault timelines; the *injector*
(:mod:`repro.faults.inject`) replays them as simulator timer events; the
detection and recovery machinery (watchdog deadlines, capped-backoff
retries, PE quarantine/revival) lives in the runtime daemon and workers.
See docs/INTERNALS.md, "Fault model & recovery".
"""

from .inject import FaultInjector
from .registry import (
    FAULT_KINDS,
    FaultKindEntry,
    available_fault_kinds,
    register_fault_kind,
)
from .model import (
    DEFAULT_FAULT_KINDS,
    FaultConfig,
    FaultKind,
    FaultSpec,
    TaskLostError,
    fault_stream,
    preview_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "FaultKindEntry",
    "register_fault_kind",
    "available_fault_kinds",
    "FaultConfig",
    "FaultKind",
    "FaultSpec",
    "FaultInjector",
    "TaskLostError",
    "DEFAULT_FAULT_KINDS",
    "fault_stream",
    "preview_schedule",
]
