"""Experiments: the cell runners and the table of evaluation figures.

:func:`run_figure` regenerates the data series behind one figure's panels
from its row in :mod:`repro.experiments.figures`; ``repro figure <id>``
prints them, and the ``benchmarks/`` tree asserts the paper's shapes on
them.
"""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "registry": ("FIGURES", "FigureEntry", "register_figure", "available_figures"),
    "common": ("run_to_completion", "run_once", "run_cells", "run_trials", "seed_invariant",
               "resolve_jobs", "configure_cache", "resolve_cache", "CACHE_ENV"),
    "cache": ("SweepCache", "CacheStats", "cell_digest"),
    "figures": ("run_figure", "saturated_reduction", "SATURATION_MBPS", "ZCU_RATE_MBPS",
                "JETSON_RATE_MBPS", "FAULT_RATES", "RESILIENCE_RATE_MBPS", "OFFERED_LOADS",
                "SATURATION_DURATION"),
})
