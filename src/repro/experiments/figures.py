"""The figure table: every evaluation figure is one declared grid row.

The paper's evaluation (Figs 5-10) is one grid - platform x mode x
scheduler x injection rate or PE count - and so are the resilience and
saturation figures.  A row names its panels, series axis, default x values
and a cell builder; :func:`run_figure` runs every cell of a row in one
:func:`run_cells` call and reduces each (series, x) chunk of trials into
the panels.  Cells are exactly the tuples :func:`run_once` (or
``serve_cell``) takes, each with the full :class:`~repro.runtime.
RuntimeConfig` of its run (scheduler, timing-only, faults, audit);
``tests/experiments/test_figure_cells.py`` pins their digests.

Each row's :class:`~repro.experiments.registry.FigureEntry` is the module
attribute its id names, the target of the id's ref in :data:`~repro.
experiments.registry.FIGURES`, so the argparse choices, ``repro list`` and
the dispatch table are the same thing and listing them imports nothing
here; third-party figures plug in through :func:`register_figure` (or the
``repro.figures`` entry-point group) with a ``(args) -> int`` renderer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.apps import PulseDoppler, WifiTx
from repro.experiments.cache import ResultCodec
from repro.faults import FaultConfig
from repro.metrics import (
    FigureSeries,
    aggregate_trials,
    detect_knee,
    format_series_table,
    saturated_mean,
)
from repro.platforms import jetson, zcu102
from repro.runtime import RuntimeConfig
from repro.sched import paper_schedulers
from repro.serve import AdmissionConfig, ArrivalSpec, ServeConfig, TenantSpec
from repro.serve.driver import serve_cell, serve_codec
from repro.workload import (
    av_workload_scaled,
    paper_injection_rates,
    radar_comms_workload,
)

from .common import _run_cell, run_cells, seed_invariant, trial_seeds
from .registry import FigureEntry

__all__ = [
    "run_figure",
    "saturated_reduction",
    "SATURATION_MBPS",
    "ZCU_RATE_MBPS",
    "JETSON_RATE_MBPS",
    "FAULT_RATES",
    "RESILIENCE_RATE_MBPS",
    "OFFERED_LOADS",
    "SATURATION_DURATION",
]

#: Fig. 5: injection rate beyond which the paper calls the system
#: oversubscribed
SATURATION_MBPS = 200.0
#: Fig. 10: the paper's fixed oversubscribed rates
ZCU_RATE_MBPS = 300.0
JETSON_RATE_MBPS = 500.0
#: resilience: per-PE fault rates (faults/s/PE) swept on the x-axis
FAULT_RATES = (0.0, 5.0, 10.0, 20.0, 50.0, 100.0)
#: resilience: saturated injection rate the workload is pinned at (Mbps)
RESILIENCE_RATE_MBPS = 200.0
#: saturation: offered loads (arrivals/s) swept on the x-axis; spans well
#: below to well past the ZCU102 3C+1FFT capacity for this mix so the knee
#: is inside the sweep
OFFERED_LOADS = (25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 450.0)
#: saturation: service window per cell (simulated seconds)
SATURATION_DURATION = 0.4


# --------------------------------------------------------------------------- #
# what the rows name: platforms, workloads, cells, reducers, footers
# --------------------------------------------------------------------------- #


_RADAR = radar_comms_workload()
_AV = av_workload_scaled()
_ZCU_1FFT = zcu102(n_cpu=3, n_fft=1)
_ZCU_1FFT_1MMULT = zcu102(n_cpu=3, n_fft=1, n_mmult=1)
_ZCU_8FFT = zcu102(n_cpu=3, n_fft=8)
_JETSON_3CPU = jetson(n_cpu=3, n_gpu=1)
_JETSON_7CPU = jetson(n_cpu=7)


def _config(scheduler, opts, faults=None) -> RuntimeConfig:
    """A figure cell's config: figure sweeps run timing-only."""
    return RuntimeConfig(scheduler=scheduler, execute_kernels=False, faults=faults,
                         audit=opts["audit"])


def _batch(platform, workload, mode, rate, scheduler, seed, opts) -> tuple:
    """One :func:`run_once` cell."""
    return (platform, workload, mode, rate, seed, _config(scheduler, opts))


def _resilience_cell(_, scheduler, fault_rate, seed, opts) -> tuple:
    fault_rate = float(fault_rate)
    faults = (FaultConfig(rate=fault_rate, seed=opts["fault_seed"])
              if fault_rate > 0.0 else None)
    return (_ZCU_1FFT, _RADAR, "api", RESILIENCE_RATE_MBPS, seed,
            _config(scheduler, opts, faults))


def _saturation_cell(_, policy, load, seed, opts) -> tuple:
    serve = ServeConfig(
        tenants=(TenantSpec(
            "clients",
            ArrivalSpec.make("poisson", rate=float(load)),
            apps=(PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)),
            slo_s=0.05,
        ),),
        duration=opts["duration"],
        admission=AdmissionConfig(policy=policy),
    )
    return (_ZCU_1FFT, serve, seed, _config("heft_rt", opts))


def _trial_mean(chunk, metric: str) -> float:
    """Mean over trials of one ``aggregate_trials`` metric (batch rows)."""
    return aggregate_trials(chunk)[metric].mean


def _plain_mean(chunk, metric: str) -> float:
    """Plain average of one ``ServeResult`` field (the saturation row)."""
    return sum(getattr(r, metric) for r in chunk) / len(chunk)


def saturated_reduction(fig: FigureSeries, x_from: float = SATURATION_MBPS) -> float:
    """Fractional API-vs-DAG overhead reduction over the saturated region
    of a Fig. 5 panel (the paper quotes 19.52%)."""
    dag = fig.get("DAG-based")
    api = fig.get("API-based")
    dag_mean = saturated_mean(dag.xs, dag.ys, x_from)
    api_mean = saturated_mean(api.xs, api.ys, x_from)
    return (dag_mean - api_mean) / dag_mean


_SATURATION_SETUP = ("ZCU102 3C+1FFT, PD+TX mix, Poisson arrivals, "
                     "{duration:g}s window, shed admission")


def _knee_panel(panels, opts) -> None:
    """Add the one-point ``saturation_knee`` panel, if the throughput curve
    has a knee (a sweep entirely below capacity has none)."""
    throughput = panels["saturation_throughput"].series[0]
    p99 = panels["saturation_p99"].series[0]
    knee = detect_knee(throughput.xs, throughput.ys)
    if knee is not None:
        setup = _SATURATION_SETUP.format(**opts)
        fig = panels["saturation_knee"] = FigureSeries(
            "saturation_knee", f"Detected saturation knee ({setup})",
            "offered load (apps/s)", "value at the knee",
        )
        fig.add("THROUGHPUT", (throughput.xs[knee],), (throughput.ys[knee],))
        fig.add("P99", (throughput.xs[knee],), (p99.ys[knee],))


def _knee_footer(panels) -> str:
    if "saturation_knee" not in panels:
        return "no saturation knee detected in the swept range"
    knee = panels["saturation_knee"].series[0].xs[0]
    return f"detected saturation knee: {knee:g} apps/s offered"


def _fig5_footer(panels) -> str:
    return (f"saturated API-vs-DAG reduction: "
            f"{saturated_reduction(panels['fig5']):.1%} (paper: 19.52%)")


# --------------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Panel:
    """One printed table of a figure."""

    id: str
    #: ``str.format``-ed with the run options (saturation names its window)
    title: str
    x_label: str
    y_label: str
    #: what the row's reducer reads from each trial result
    metric: str
    #: series group plotted; ``None`` plots every series of the row
    group: Any = None
    y_scale: float = 1e3
    y_fmt: str = "{:10.1f}"


def _by_mode(fig, what, setup, y_label, metric, y_fmt) -> tuple[_Panel, ...]:
    """Panels ``<fig>a`` (DAG-based) and ``<fig>b`` (API-based) of one
    quantity, plotting the row's ``"dag"`` and ``"api"`` series groups."""
    return tuple(
        _Panel(f"{fig}{ab}", f"{what}, {label} CEDR ({setup})", _RATE, y_label,
               metric, mode, y_fmt=y_fmt)
        for ab, mode, label in (("a", "dag", "DAG-based"), ("b", "api", "API-based"))
    )


@dataclass(frozen=True)
class _Row:
    """One figure.  Its series are ``groups x series``: each group (a mode,
    a platform, or ``None``) holds one series per (label, key) pair, which
    default to one per scheduler.  ``cell(group, key, x, seed, opts)``
    builds one cell of the grid."""

    name: str
    summary: str
    panels: tuple[_Panel, ...]
    xs: tuple
    cell: Callable[..., tuple]
    groups: tuple = (None,)
    series: Optional[tuple[tuple[str, str], ...]] = None
    #: ``repro figure --rates N`` replaces ``xs`` with the paper's N-point grid
    rate_axis: bool = False
    reduce: Callable[[list, str], float] = _trial_mean
    worker: Callable[[tuple], Any] = _run_cell
    codec: Optional[ResultCodec] = None
    #: (panels, run options) -> None: adds derived panels
    derive: Optional[Callable[[dict, dict], None]] = None
    #: panels -> one line printed after them
    footer: Optional[Callable[[dict], str]] = None


_RATE = "injection rate (Mbps)"
_EXEC = "execution time per app (s)"
_RATES = tuple(float(r) for r in paper_injection_rates(n=8))
_FAULTS = "ZCU102 3C+1FFT, 5xPD + 5xTX @ 200 Mbps, API mode"
_LOAD = "offered load (apps/s)"

_TABLE = {row.name: row for row in (
    _Row(
        "fig5", "API-vs-DAG runtime overhead (ZCU102)",
        (_Panel("fig5", "Runtime overhead in API and DAG-based CEDR "
                        "(ZCU102 3 CPU + 1 FFT, 5xPD + 5xTX)",
                _RATE, "runtime overhead per app (s)", "runtime_overhead",
                y_fmt="{:10.4f}"),),
        _RATES,
        lambda _, mode, rate, seed, opts: _batch(
            _ZCU_1FFT, _RADAR, mode, float(rate), "rr", seed, opts),
        series=(("DAG-based", "dag"), ("API-based", "api")),
        rate_axis=True, footer=_fig5_footer,
    ),
    _Row(
        "fig67", "execution + scheduling overhead panels",
        _by_mode("fig6", "Execution time", "ZCU102 3C+1FFT+1MMULT", _EXEC,
                 "exec_time", "{:10.3f}")
        + _by_mode("fig7", "Scheduling overhead", "ZCU102 3C+1FFT+1MMULT",
                   "scheduling overhead per app (s)", "sched_overhead", "{:10.3f}"),
        _RATES,
        lambda mode, scheduler, rate, seed, opts: _batch(
            _ZCU_1FFT_1MMULT, _RADAR, mode, float(rate), scheduler, seed, opts),
        groups=("dag", "api"), rate_axis=True,
    ),
    _Row(
        "fig8", "Jetson AGX Xavier execution/scheduling",
        _by_mode("fig8", "Execution time", "Jetson 3 CPU + 1 GPU", _EXEC,
                 "exec_time", "{:10.2f}"),
        _RATES,
        lambda mode, scheduler, rate, seed, opts: _batch(
            _JETSON_3CPU, _RADAR, mode, float(rate), scheduler, seed, opts),
        groups=("dag", "api"), rate_axis=True,
    ),
    _Row(
        "fig9", "autonomous-vehicle workload versatility",
        (
            _Panel("fig9a", "Execution time, API-CEDR, AV workload "
                            "(ZCU102 3 CPU + 8 FFT)",
                   _RATE, _EXEC, "exec_time", _ZCU_8FFT),
            _Panel("fig9b", "Execution time, API-CEDR, AV workload "
                            "(Jetson 7 CPU + 1 GPU)",
                   _RATE, _EXEC, "exec_time", _JETSON_7CPU),
        ),
        tuple(float(r) for r in paper_injection_rates(n=6)),
        lambda platform, scheduler, rate, seed, opts: _batch(
            platform, _AV, "api", float(rate), scheduler, seed, opts),
        groups=(_ZCU_8FFT, _JETSON_7CPU), rate_axis=True,
    ),
    _Row(
        "fig10a", "accelerator scalability (ZCU102 FFTs)",
        (_Panel("fig10a", "Execution time vs PE pool (ZCU102 3 CPU + N FFT, "
                          f"{ZCU_RATE_MBPS:.0f} Mbps)",
                "FFT accelerator count", _EXEC, "exec_time"),),
        (0, 1, 2, 4, 8),
        lambda _, scheduler, n_fft, seed, opts: _batch(
            zcu102(n_cpu=3, n_fft=n_fft), _AV, "api", ZCU_RATE_MBPS, scheduler, seed, opts),
    ),
    _Row(
        "fig10b", "CPU-pool scalability (Jetson cores)",
        (_Panel("fig10b", "Execution time vs PE pool (Jetson N CPU + 1 GPU, "
                          f"{JETSON_RATE_MBPS:.0f} Mbps)",
                "CPU worker count", _EXEC, "exec_time"),),
        (1, 2, 3, 4, 5, 6, 7),
        lambda _, scheduler, n_cpu, seed, opts: _batch(
            jetson(n_cpu=n_cpu, n_gpu=1), _AV, "api", JETSON_RATE_MBPS, scheduler, seed, opts),
    ),
    _Row(
        "resilience", "goodput/MTTR under fault injection",
        (
            _Panel("resilience_exec",
                   f"Execution time under fault injection ({_FAULTS})",
                   "fault rate (faults/s/PE)",
                   "execution time per surviving app (s)", "exec_time",
                   y_fmt="{:10.2f}"),
            _Panel("resilience_goodput", f"Goodput under fault injection ({_FAULTS})",
                   "fault rate (faults/s/PE)",
                   "goodput (completed / submitted apps)", "goodput",
                   y_scale=1.0, y_fmt="{:10.3f}"),
        ),
        FAULT_RATES, _resilience_cell,
    ),
    _Row(
        "saturation", "serve-mode throughput/p99 knee",
        (
            _Panel("saturation_throughput",
                   f"Service throughput vs offered load ({_SATURATION_SETUP})",
                   _LOAD, "throughput (completed apps/s)", "throughput",
                   y_scale=1.0),
            _Panel("saturation_p99",
                   f"p99 response time vs offered load ({_SATURATION_SETUP})",
                   _LOAD, "p99 response time (s)", "p99_response_s",
                   y_fmt="{:10.2f}"),
        ),
        OFFERED_LOADS, _saturation_cell, series=(("SHED", "shed"),),
        reduce=_plain_mean, worker=serve_cell, codec=serve_codec(),
        derive=_knee_panel, footer=_knee_footer,
    ),
)}


def _grid(row: _Row, xs, trials, seed, schedulers, fault_seed, duration, audit) -> tuple:
    """``(xs, opts, series, cells)`` of one run of *row*; cells in (series,
    x, trial) order."""
    xs = tuple(row.xs if xs is None else xs)
    opts = {"fault_seed": fault_seed, "audit": audit,
            "duration": SATURATION_DURATION if duration is None else duration}
    pairs = row.series or [
        (s.upper(), s)
        for s in (paper_schedulers() if schedulers is None else schedulers)
    ]
    series = [(group, label, key) for group in row.groups for label, key in pairs]
    cells = [row.cell(group, key, x, s, opts)
             for group, _, key in series
             for x in xs
             for s in trial_seeds(trials, seed)]
    return xs, opts, series, cells


def run_figure(
    name: str,
    *,
    xs: Optional[Sequence] = None,
    trials: int = 1,
    seed: int = 0,
    schedulers: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
    fault_seed: Optional[int] = None,
    duration: Optional[float] = None,
    audit: bool = False,
) -> dict[str, FigureSeries]:
    """Regenerate one figure of the table; returns {panel id: FigureSeries}.

    ``xs`` replaces the row's default x values (injection rates, FFT or
    CPU counts, fault rates or offered loads), ``schedulers`` the paper's
    four.  ``fault_seed`` (resilience) pins one fault schedule across
    trials instead of deriving it from each trial seed; ``duration``
    (saturation) is the service window per cell.  ``audit`` runs every
    cell with the shutdown audit on; it is part of each cell's config, so
    an audited cell has its own cache key and is simulated, not looked up.
    """
    if name not in _TABLE:
        raise KeyError(f"no figure-table row {name!r}; have {sorted(_TABLE)}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    row = _TABLE[name]
    xs, opts, series, cells = _grid(row, xs, trials, seed, schedulers, fault_seed, duration,
                                    audit)
    results = run_cells(cells, n_jobs, worker=row.worker, codec=row.codec)
    chunks = [results[i:i + trials] for i in range(0, len(results), trials)]
    panels = {}
    for p in row.panels:
        fig = panels[p.id] = FigureSeries(p.id, p.title.format(**opts), p.x_label, p.y_label)
        for i, (group, label, _) in enumerate(series):
            if p.group is None or p.group == group:
                ys = [row.reduce(chunks[i * len(xs) + j], p.metric) for j in range(len(xs))]
                fig.add(label, xs, ys)
    if row.derive is not None:
        row.derive(panels, opts)
    return panels


def _render(row: _Row, args) -> int:
    """``repro figure <row>``: run the row, print its panels and footer,
    after a line counting the cells whose trials run once."""
    xs = paper_injection_rates(n=args.rates) if row.rate_axis else None
    if args.trials > 1 and row.worker is _run_cell:
        *_, cells = _grid(row, xs, 1, args.seed, None, args.fault_seed, args.duration,
                          args.audit)
        once = sum(seed_invariant(c[1], c[5]) for c in cells)
        if once:
            print(f"trials    : {args.trials} seeds per cell; {once} of {len(cells)} "
                  f"cells cannot read their seed and run once")
    panels = run_figure(
        row.name, xs=xs,
        trials=args.trials, seed=args.seed, n_jobs=args.jobs,
        fault_seed=args.fault_seed, duration=args.duration, audit=args.audit,
    )
    print("\n\n".join(
        format_series_table(panels[p.id], y_scale=p.y_scale, y_fmt=p.y_fmt)
        for p in row.panels
    ))
    if row.footer is not None:
        print(f"\n{row.footer(panels)}")
    return 0


# each row's entry is the module attribute named by its id: the
# ``repro.experiments.figures:<id>`` ref of repro.experiments.registry
for _row in _TABLE.values():
    globals()[_row.name] = FigureEntry(_row.name, partial(_render, _row), _row.summary)
