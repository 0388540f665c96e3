"""repro.faults - deterministic fault injection + task recovery for CEDR.

The fault *model* (:mod:`repro.faults.model`) turns a seeded
:class:`FaultConfig` into per-PE fault timelines; the *injector*
(:mod:`repro.faults.inject`) replays them as simulator timer events; the
detection and recovery machinery (watchdog deadlines, capped-backoff
retries, PE quarantine/revival) lives in the runtime daemon and workers.
See docs/INTERNALS.md, "Fault model & recovery".
"""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "registry": ("FAULT_KINDS", "FaultKindEntry", "register_fault_kind",
                 "available_fault_kinds"),
    "model": ("FaultConfig", "FaultKind", "FaultSpec", "TaskLostError", "DEFAULT_FAULT_KINDS",
              "fault_stream", "preview_schedule"),
    "inject": ("FaultInjector",),
})
