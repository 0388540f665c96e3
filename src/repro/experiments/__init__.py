"""Experiment drivers: one per evaluation figure of the paper.

Each ``run_figN`` function regenerates the data series behind the
corresponding figure panel(s); the ``benchmarks/`` tree wraps them with
pytest-benchmark and prints the series tables.
"""

from .cache import CacheStats, SweepCache, cell_digest
from .common import (
    AUDIT_ENV,
    CACHE_ENV,
    RateSweep,
    audit_from_env,
    configure_cache,
    resolve_cache,
    resolve_jobs,
    run_cells,
    run_once,
    run_to_completion,
    run_trials,
    sweep_rates,
)
from .fig5_runtime_overhead import SATURATION_MBPS, run_fig5, saturated_reduction
from .fig67_exec_sched import run_fig6_fig7
from .fig8_jetson import run_fig8
from .fig9_versatility import av_workload_scaled, run_fig9
from .fig10_scalability import JETSON_RATE_MBPS, ZCU_RATE_MBPS, run_fig10a, run_fig10b
from .fig_resilience import FAULT_RATES, RESILIENCE_RATE_MBPS, run_fig_resilience
from .fig_saturation import (
    OFFERED_LOADS,
    SATURATION_DURATION,
    detect_knee,
    run_fig_saturation,
)
from .figures import FIGURES, FigureEntry, available_figures, register_figure

__all__ = [
    "FIGURES",
    "FigureEntry",
    "register_figure",
    "available_figures",
    "run_to_completion",
    "run_once",
    "run_cells",
    "run_trials",
    "sweep_rates",
    "resolve_jobs",
    "RateSweep",
    "SweepCache",
    "CacheStats",
    "cell_digest",
    "configure_cache",
    "resolve_cache",
    "CACHE_ENV",
    "AUDIT_ENV",
    "audit_from_env",
    "run_fig5",
    "saturated_reduction",
    "SATURATION_MBPS",
    "run_fig6_fig7",
    "run_fig8",
    "run_fig9",
    "av_workload_scaled",
    "run_fig10a",
    "run_fig10b",
    "ZCU_RATE_MBPS",
    "JETSON_RATE_MBPS",
    "run_fig_resilience",
    "FAULT_RATES",
    "RESILIENCE_RATE_MBPS",
    "run_fig_saturation",
    "detect_knee",
    "OFFERED_LOADS",
    "SATURATION_DURATION",
]
