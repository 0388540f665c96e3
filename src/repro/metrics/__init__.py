"""Measurement, trial statistics, and figure-series reporting."""

from .gantt import render_gantt
from .measures import RunResult, assert_identical, diff_results
from .report import FigureSeries, Series, format_series_table, print_series_table
from .stats import TrialStats, aggregate_trials, detect_knee, saturated_mean

__all__ = [
    "RunResult",
    "diff_results",
    "assert_identical",
    "render_gantt",
    "TrialStats",
    "aggregate_trials",
    "saturated_mean",
    "detect_knee",
    "Series",
    "FigureSeries",
    "format_series_table",
    "print_series_table",
]
