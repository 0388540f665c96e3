"""Execute a :class:`ScenarioSpec` through the standard run/serve paths.

There is deliberately nothing scenario-specific about *execution*: a run
scenario goes through :func:`repro.experiments.run_trials` and a serve
scenario through :func:`repro.serve.serve_trials`, with the platform,
workload, and :class:`~repro.runtime.RuntimeConfig` built by the spec's
own builders - the only construction route there is (``repro serve`` is
``run_scenario(lowered_spec, trials=1)[0]``).  The builders produce
objects equal to hand-built library ones, so a scenario and the same run
spelled as flags share content-addressed cache cells.  Figure cells carry
``config=None`` instead of the resolved config, so their keys differ.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.experiments import run_trials
from repro.serve import serve_trials

from .spec import ScenarioSpec, load_scenario

__all__ = ["run_scenario"]


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
        return serve_trials(
            platform,
            spec.build_serve(),
            trials=trials,
            base_seed=base_seed,
            config=config,
            n_jobs=n_jobs,
            cache=cache,
        )
    return run_trials(
        platform,
        spec.build_workload(),
        spec.mode,
        spec.rate_mbps,
        spec.scheduler,
        trials=trials,
        base_seed=base_seed,
        execute=spec.execute,
        config=config,
        n_jobs=n_jobs,
        cache=cache,
    )
