"""Measurement, trial statistics, and figure-series reporting."""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "measures": ("RunResult", "diff_results", "assert_identical"),
    "gantt": ("render_gantt",),
    "stats": ("TrialStats", "aggregate_trials", "saturated_mean", "detect_knee"),
    "report": ("Series", "FigureSeries", "format_series_table", "print_series_table"),
})
