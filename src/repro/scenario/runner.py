"""Execute a :class:`ScenarioSpec` by the standard run/serve paths; print its trials.

There is deliberately nothing scenario-specific about *execution*: a run
scenario goes through :func:`repro.experiments.run_trials` and a serve
scenario through :func:`repro.serve.serve_trials`, with the platform,
workload, and :class:`~repro.runtime.RuntimeConfig` built by the spec's
own builders - the only construction route there is (``repro serve`` runs
the one trial ``run_scenario(lowered_spec, trials=1)`` runs).  The
builders produce objects equal to hand-built library ones, so a scenario
and the same run spelled as flags - or as a figure cell, which carries the
same resolved config - share content-addressed cache cells.
"""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.experiments import run_trials

from .spec import ScenarioSpec, load_scenario

__all__ = ["report_lines", "run_scenario"]


def run_scenario(
    spec: Union[ScenarioSpec, str, Path],
    *,
    trials: Optional[int] = None,
    base_seed: Optional[int] = None,
    n_jobs: Optional[int] = None,
    cache=None,
):
    """Run a scenario (spec object or document path) and return its trials.

    Returns ``list[RunResult]`` for run-kind scenarios and
    ``list[ServeResult]`` for serve-kind ones, in seed order - exactly
    what ``run_trials`` / ``serve_trials`` would hand back for the same
    arguments.  ``trials`` / ``base_seed`` override the spec's values
    (``repro scenario run --trials/--seed`` and the benchmark harness
    sweep a spec without editing the document).
    """
    if not isinstance(spec, ScenarioSpec):
        spec = load_scenario(spec)
    trials = spec.trials if trials is None else trials
    base_seed = spec.seed if base_seed is None else base_seed
    platform = spec.build_platform()
    config = spec.build_config()
    if spec.kind == "serve":
        from repro.serve import serve_trials

        return serve_trials(platform, spec.build_serve(), config, trials, base_seed,
                            n_jobs, cache)
    return run_trials(platform, spec.build_workload(), spec.mode, spec.rate_mbps, config,
                      trials, base_seed, n_jobs, cache)


def report_lines(spec: ScenarioSpec, results: Sequence) -> list[str]:
    """The lines describing one cell's trials: ``RunResult`` s for a run-kind
    *spec*, ``ServeResult`` s for a serve-kind one.  One trial prints exactly
    what ``repro run`` / ``repro serve`` print; several print each number's
    mean, and a count stays an integer while every trial agrees on it."""
    def m(get, of=results):  # *get*: an attribute path or a function of a trial
        values = list(map(attrgetter(get) if isinstance(get, str) else get, of))
        return sum(values) / len(values)

    def c(get, of=results):
        values = list(map(attrgetter(get) if isinstance(get, str) else get, of))
        return str(values[0]) if len(set(values)) == 1 else f"{m(get, of):.1f}"

    head = f"platform  : {spec.build_platform().name}  mode={spec.mode}  scheduler={spec.scheduler}"
    if spec.kind == "serve":
        serve, admission = spec.serve, spec.serve.admission
        lines = [
            f"{head}  window {serve.duration:g} s",
            f"arrivals  : {serve.arrival} x {serve.tenants} tenant(s), "
            f"{spec.build_serve().offered_rate:g} apps/s nominal offered load",
            f"admission : {admission.policy}, in-system cap {admission.max_in_system}, "
            f"queue cap {admission.queue_cap}",
            f"service   : {c('offered')} offered, {c('admitted')} admitted, {c('shed')} shed, "
            f"{c('degraded')} degraded, {c('completed')} completed "
            f"({m('throughput'):.1f} apps/s, {c('late_arrivals')} late)",
            f"slo       : p99 response {m('p99_response_s') * 1e3:.2f} ms, "
            f"{c('slo_violations')} violations, goodput {m('goodput'):.1f} apps/s "
            f"within {serve.slo_ms:g} ms",
            f"drain     : graceful (every admitted app completed; makespan "
            f"{m('run.makespan') * 1e3:.2f} ms, in-system high-water {c('in_system_hwm')})",
        ]
        for i, name in enumerate(t.name for t in results[0].tenants):
            ts = [r.tenants[i] for r in results]
            lines.append(
                f"  {name:<10} offered {c('offered', ts):>4}  admitted {c('admitted', ts):>4}  "
                f"shed {c('shed', ts):>4}  held {c('held', ts):>4}  completed "
                f"{c('completed', ts):>4}  p99 {m('p99_response_s', ts) * 1e3:8.2f} ms  "
                f"violations {c('slo_violations', ts):>4}")
        return lines
    apps = sorted({app for r in results for app in r.exec_times_by_app})
    pes = {pe: None for r in results for pe in r.pe_task_histogram}
    lines = [
        f"{head}  rate={spec.rate_mbps:g} Mbps",
        f"apps      : {c('n_apps')} completed, {c('tasks_completed')} tasks, "
        f"makespan {m('makespan') * 1e3:.2f} ms",
        f"exec time : {m('mean_exec_time') * 1e3:.2f} ms/app  (per app type: "
        + ", ".join(f"{app} {m(lambda r: r.mean_exec_time_of(app)) * 1e3:.2f}"
                    for app in apps) + ")",
        f"overheads : runtime {m('runtime_overhead_per_app') * 1e3:.3f} ms/app, "
        f"scheduling {m('sched_overhead_per_app') * 1e3:.3f} ms/app ({c('sched_rounds')} "
        f"rounds, ready depth mean {m('ready_depth_mean'):.1f} / max {c('ready_depth_max')})",
        "placement : {" + ", ".join(
            f"{pe!r}: {c(lambda r: r.pe_task_histogram.get(pe, 0))}" for pe in pes) + "}",
    ]
    if spec.faults is not None:
        lines.append(
            f"faults    : {c('faults_injected')} injected, {c('task_failures')} task failures, "
            f"{c('retries')} retries, {c('tasks_lost')} tasks lost, {c('n_failed')} apps "
            f"failed (goodput {m('goodput'):.2f}, MTTR {m('mean_time_to_recovery') * 1e3:.2f} ms)")
    return lines
