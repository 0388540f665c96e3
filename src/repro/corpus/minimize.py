"""Delta-debugging minimizer: shrink a failing spec while it still fails.

Given a spec whose audited cell ends in a violation or error, greedily
try simplifying edits - drop app streams, cut instance counts, remove
DAG-shape overrides, remove or calm faults, flatten the arrival process,
shrink the serve window - and keep each edit whose result still fails
with the *same signature* (status + code).  The loop restarts after
every accepted edit and stops at a fixpoint or the probe budget.

The failing scheduler and ``audit = true`` are folded into the spec
before shrinking, so the minimized document alone reproduces the failure
through plain ``repro scenario run <spec> `` - that command line is the
repro recipe written next to the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.atomic import atomic_write
from repro.scenario import AppCount, ScenarioSpec
from repro.serve import AdmissionConfig

from .parity import CellOutcome, run_cell

__all__ = [
    "MinimizeResult",
    "minimize_spec",
    "write_artifacts",
]

#: (status, code) - what must keep reproducing across shrink steps.
Signature = tuple[str, str]


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of one minimization: the shrunk spec and its provenance."""

    spec: ScenarioSpec  # minimized, scheduler + audit folded in
    original: ScenarioSpec  # the pre-shrink spec (also folded)
    status: str
    code: str
    evaluations: int
    steps: tuple[str, ...]


def _with_apps(spec: ScenarioSpec, apps: tuple[AppCount, ...]) -> ScenarioSpec:
    if spec.kind == "run":
        return replace(spec, apps=apps)
    return replace(spec, serve=replace(spec.serve, apps=apps))


def _app_shrinks(
    apps: tuple[AppCount, ...], label: str
) -> Iterator[tuple[str, tuple[AppCount, ...]]]:
    """Shrink candidates for an app-stream tuple, most aggressive first."""
    if len(apps) > 1:
        for i in range(len(apps)):
            yield (
                f"drop {label} stream {apps[i].name}[{i}]",
                apps[:i] + apps[i + 1 :],
            )
    for i, app in enumerate(apps):
        if app.count > 1:
            yield (
                f"{label} {app.name}[{i}] count {app.count} -> 1",
                apps[:i] + (replace(app, count=1),) + apps[i + 1 :],
            )
    for i, app in enumerate(apps):
        if app.params:
            yield (
                f"drop {label} {app.name}[{i}] shape overrides",
                apps[:i] + (replace(app, params=()),) + apps[i + 1 :],
            )


def _run_candidates(spec: ScenarioSpec) -> Iterator[tuple[str, ScenarioSpec]]:
    if spec.trials > 1:
        yield (f"trials {spec.trials} -> 1", replace(spec, trials=1))
    if spec.faults is not None:
        yield ("drop faults", replace(spec, faults=None))
    yield from (
        (desc, _with_apps(spec, apps))
        for desc, apps in _app_shrinks(spec.apps, "workload")
    )
    if spec.faults is not None:
        faults = spec.faults
        if len(faults.kinds) > 1:
            yield (
                f"fault kinds -> {faults.kinds[0].value}",
                replace(spec, faults=replace(faults, kinds=faults.kinds[:1])),
            )
        if faults.rate > 2.0:
            yield (
                f"fault rate {faults.rate:g} -> {faults.rate / 4:g}",
                replace(spec, faults=replace(faults, rate=faults.rate / 4)),
            )
    if spec.arrival != "periodic" or spec.arrival_params:
        yield (
            "arrival -> periodic",
            replace(spec, arrival="periodic", arrival_params=()),
        )
    if spec.rate_mbps > 100.0:
        yield ("rate_mbps -> 100", replace(spec, rate_mbps=100.0))


def _serve_candidates(spec: ScenarioSpec) -> Iterator[tuple[str, ScenarioSpec]]:
    serve = spec.serve
    if spec.trials > 1:
        yield (f"trials {spec.trials} -> 1", replace(spec, trials=1))
    if serve.tenants > 1:
        yield (
            f"tenants {serve.tenants} -> 1",
            replace(spec, serve=replace(serve, tenants=1)),
        )
    yield from (
        (desc, _with_apps(spec, apps))
        for desc, apps in _app_shrinks(serve.apps, "serve")
    )
    half = round(serve.duration / 2, 3)
    if half >= 0.05 and half < serve.duration:
        yield (
            f"duration {serve.duration:g} -> {half:g}",
            replace(spec, serve=replace(serve, duration=half)),
        )
    if not serve.arrival.startswith("periodic:"):
        yield (
            "arrival -> periodic:rate=100",
            replace(spec, serve=replace(serve, arrival="periodic:rate=100")),
        )
    if serve.admission != AdmissionConfig():
        yield (
            "admission -> defaults",
            replace(spec, serve=replace(serve, admission=AdmissionConfig())),
        )


def _candidates(spec: ScenarioSpec) -> Iterator[tuple[str, ScenarioSpec]]:
    if spec.kind == "run":
        yield from _run_candidates(spec)
    else:
        yield from _serve_candidates(spec)


def minimize_spec(
    spec: ScenarioSpec,
    *,
    scheduler: Optional[str] = None,
    budget: int = 200,
    check: Optional[Callable[[ScenarioSpec], CellOutcome]] = None,
) -> MinimizeResult:
    """Shrink ``spec`` while its audited cell keeps failing identically.

    ``scheduler`` overrides the spec's scheduler (the failing one from a
    parity report); ``check`` substitutes the probe function (tests use
    this; the default is :func:`run_cell` on the folded spec).  Raises
    ``ValueError`` if the starting spec does not fail at all.
    """
    probe = check or (lambda s: run_cell(s))
    base = replace(spec, scheduler=scheduler or spec.scheduler, audit=True)
    first = probe(base)
    evaluations = 1
    if first.status == "ok":
        raise ValueError(
            f"spec {spec.name!r} ({spec.digest()[:12]}) does not fail under "
            f"{base.scheduler!r}; nothing to minimize"
        )
    signature: Signature = (first.status, first.code)
    current = base
    steps: list[str] = []
    progress = True
    while progress and evaluations < budget:
        progress = False
        for desc, candidate in _candidates(current):
            if candidate.digest() == current.digest():
                continue
            if evaluations >= budget:
                break
            outcome = probe(candidate)
            evaluations += 1
            if (outcome.status, outcome.code) == signature:
                current = candidate
                steps.append(desc)
                progress = True
                break  # restart the scan from the shrunk spec
    return MinimizeResult(
        spec=current,
        original=base,
        status=signature[0],
        code=signature[1],
        evaluations=evaluations,
        steps=tuple(steps),
    )


def write_artifacts(
    result: MinimizeResult, artifacts_dir: Union[str, Path]
) -> Path:
    """Write minimized spec + repro recipe under ``artifacts_dir``.

    Layout: ``<dir>/<digest12>/minimized.json`` (the shrunk document,
    scheduler and audit folded in), ``original.json`` (pre-shrink), and
    ``repro.txt`` (signature, shrink log, and the command that reproduces
    the failure from the minimized document alone).
    """
    digest = result.spec.digest()
    cell_dir = Path(artifacts_dir) / digest[:12]
    cell_dir.mkdir(parents=True, exist_ok=True)
    spec_path = result.spec.save(cell_dir / "minimized.json")
    result.original.save(cell_dir / "original.json")
    command = f"python -m repro scenario run {spec_path}"
    lines = [
        f"failure: {result.status} {result.code}".rstrip(),
        f"scheduler: {result.spec.scheduler}",
        f"minimized digest: {digest}",
        f"original digest: {result.original.digest()}",
        f"probes: {result.evaluations}",
        "shrink steps:",
        *(f"  - {step}" for step in result.steps),
        "reproduce with:",
        f"  {command}",
    ]
    with atomic_write(cell_dir / "repro.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    return cell_dir
