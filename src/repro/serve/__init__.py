"""repro.serve - the open-stream service tier over the CEDR runtime.

Promotes :class:`~repro.runtime.CedrRuntime` from a closed-batch simulator
into a long-running service: seeded arrival generators feed an admission
controller that submits applications to the live daemon, with per-tenant
SLO accounting and graceful drain on duration expiry.  See
docs/INTERNALS.md, "Service mode & admission control".
"""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "admission": ("ADMISSION_POLICIES", "AdmissionConfig", "AdmissionController", "TokenBucket"),
    "arrival": ("ArrivalSpec", "arrival_rate", "available_arrivals", "make_arrival_stream",
                "register_arrival"),
    "driver": ("ServeConfig", "ServeDriver", "ServeResult", "TenantSpec", "TenantStats",
               "serve_codec", "serve_once", "serve_to_completion", "serve_trials"),
})
