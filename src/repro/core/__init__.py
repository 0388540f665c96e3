"""CEDR-API: the paper's contribution - the API-based programming model.

``CedrClient`` is the runtime-linked libCEDR (blocking + non-blocking
APIs, generated from the :mod:`repro.core.spec` table), ``StandaloneCedr``
the static CPU library for functional bring-up, ``Request`` /
``CedrRequest`` / ``wait_all`` / ``wait_any`` the non-blocking
synchronization surface, and ``ModuleSet`` the per-platform accelerator
module configuration.
"""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "api": ("CedrClient",),
    "standalone": ("StandaloneCedr", "run_standalone"),
    "handles": ("Request", "CedrRequest", "ImmediateRequest", "wait_all", "wait_any"),
    "spec": ("ApiSpec", "API_SPECS", "payload_bytes"),
    "modules": ("Module", "ModuleSet", "STANDARD_MODULES", "build_api_map"),
})
