"""Experiments: the cell runners and the table of evaluation figures.

:func:`run_figure` regenerates the data series behind one figure's panels
from its row in :mod:`repro.experiments.figures`; ``repro figure <id>``
prints them, and the ``benchmarks/`` tree asserts the paper's shapes on
them.
"""

from .cache import CacheStats, SweepCache, cell_digest
from .common import (
    AUDIT_ENV,
    CACHE_ENV,
    audit_from_env,
    configure_cache,
    resolve_cache,
    resolve_jobs,
    run_cells,
    run_once,
    run_to_completion,
    run_trials,
    seed_invariant,
)
from .figures import (
    FAULT_RATES,
    FIGURES,
    JETSON_RATE_MBPS,
    OFFERED_LOADS,
    RESILIENCE_RATE_MBPS,
    SATURATION_DURATION,
    SATURATION_MBPS,
    ZCU_RATE_MBPS,
    FigureEntry,
    available_figures,
    register_figure,
    run_figure,
    saturated_reduction,
)

__all__ = [
    "FIGURES",
    "FigureEntry",
    "register_figure",
    "available_figures",
    "run_figure",
    "run_to_completion",
    "run_once",
    "run_cells",
    "run_trials",
    "seed_invariant",
    "resolve_jobs",
    "SweepCache",
    "CacheStats",
    "cell_digest",
    "configure_cache",
    "resolve_cache",
    "CACHE_ENV",
    "AUDIT_ENV",
    "audit_from_env",
    "saturated_reduction",
    "SATURATION_MBPS",
    "ZCU_RATE_MBPS",
    "JETSON_RATE_MBPS",
    "FAULT_RATES",
    "RESILIENCE_RATE_MBPS",
    "OFFERED_LOADS",
    "SATURATION_DURATION",
]
