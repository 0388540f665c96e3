"""Differential oracle: one workload, paired configurations, zero drift.

The sweep machinery promises that a run is a *pure function* of its cell
tuple - which is what licenses the process pool and the content-addressed
cache.  This module tests that promise by construction: it runs the same
(rate x trial) grid under paired configurations that must be
indistinguishable -

``jobs``        serial vs ``--jobs`` process-pool sharding
``cache``       uncached vs cold-store vs warm-hit sweep cache

- and diffs every :class:`~repro.metrics.RunResult` (or ``ServeResult``)
field-by-field, bit-exactly.  :func:`diff_results` / :func:`assert_identical`
are the reusable helpers the bit-identity tests build on; :func:`diff_run` is
the full paired-run driver behind ``repro audit diff``.
"""

from __future__ import annotations

import dataclasses
import tempfile
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.experiments.cache import SweepCache
from repro.experiments.common import run_trials
from repro.metrics import RunResult
from repro.platforms import PlatformConfig
from repro.runtime import RuntimeConfig
from repro.workload import WorkloadSpec

__all__ = [
    "diff_results",
    "assert_identical",
    "VariantOutcome",
    "OracleReport",
    "DEFAULT_VARIANTS",
    "diff_run",
    "diff_serve",
]

#: every paired configuration :func:`diff_run` and :func:`diff_serve` know
#: how to produce.
DEFAULT_VARIANTS = ("jobs", "cache")

def diff_results(a, b, *, ignore: Sequence[str] = ()) -> list[str]:
    """Names of the fields where two results differ, bit-exactly.

    Frozen-dataclass ``==`` answers *whether* two results drifted; this
    answers *where*, which is what a failing determinism test needs to
    print.  A field that is itself a :class:`~repro.metrics.RunResult` (a
    ``ServeResult``'s ``run``) is descended into, so a serve drift names
    the measurement (``run.makespan``) rather than ``run``.  ``ignore``
    excludes top-level fields that differ by design (the ``telemetry``
    export when comparing a run with a registry against a bare one).
    """
    names = [f.name for f in dataclasses.fields(a)]
    unknown = set(ignore) - set(names)
    if unknown:
        raise KeyError(
            f"ignore names unknown {type(a).__name__} fields: {sorted(unknown)}"
        )
    fields: list[str] = []
    for name in names:
        va, vb = getattr(a, name), getattr(b, name)
        if name in ignore or va == vb:
            continue
        if isinstance(va, RunResult):
            fields.extend(f"{name}.{sub}" for sub in diff_results(va, vb))
        else:
            fields.append(name)
    return fields


def assert_identical(
    results: Sequence[Sequence[RunResult]],
    labels: Sequence[str],
    *,
    ignore: Sequence[str] = (),
) -> None:
    """Assert several result lists are cell-wise bit-identical.

    ``results[0]`` is the reference; every other list must match it cell
    for cell.  The failure message names the variant, the cell, and the
    drifted fields - the part the four hand-rolled ``assert a == b``
    patterns never reported.
    """
    reference, ref_label = results[0], labels[0]
    for candidate, label in zip(results[1:], labels[1:]):
        assert len(candidate) == len(reference), (
            f"{label} produced {len(candidate)} results, "
            f"{ref_label} produced {len(reference)}"
        )
        for i, (a, b) in enumerate(zip(reference, candidate)):
            fields = diff_results(a, b, ignore=ignore)
            assert not fields, (
                f"{label} drifted from {ref_label} at cell {i} in "
                f"field(s) {fields}: "
                + "; ".join(
                    f"{name}: {attrgetter(name)(a)!r} != {attrgetter(name)(b)!r}"
                    for name in fields[:3]
                )
            )


@dataclasses.dataclass(frozen=True)
class VariantOutcome:
    """One paired configuration's agreement with the serial baseline."""

    variant: str
    cells: int
    #: (cell index, drifted field names) per disagreeing cell.
    mismatches: tuple[tuple[int, tuple[str, ...]], ...] = ()
    #: extra bookkeeping failures (cache hit/miss accounting, etc.).
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.notes

    def describe(self) -> str:
        if self.ok:
            return f"{self.variant:<10} ok ({self.cells} cells bit-identical)"
        parts = [
            f"cell {i}: {', '.join(fields)}" for i, fields in self.mismatches
        ]
        parts.extend(self.notes)
        return f"{self.variant:<10} FAIL ({'; '.join(parts)})"


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """Outcome of one :func:`diff_run` sweep."""

    label: str
    cells: int
    outcomes: tuple[VariantOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def summary(self) -> str:
        head = (
            f"differential oracle [{self.label}]: {self.cells} cells x "
            f"{len(self.outcomes)} variants"
        )
        return "\n".join([head, *(f"  {o.describe()}" for o in self.outcomes)])


def _diff_grid(
    label: str,
    grid: Callable[..., list],
    variants: Sequence[str],
    jobs: int,
    cache_dir: Optional[str],
) -> OracleReport:
    """The variant loop shared by :func:`diff_run` and :func:`diff_serve`.

    ``grid(n_jobs=1, cache=False)`` runs the whole cell grid once under
    its closed-over config, and :func:`diff_results` names the drifted
    fields of one cell pair.  The baseline is the plain serial, uncached
    sweep; each variant flips exactly one knob and must reproduce it
    bit-for-bit.  The ``cache`` variant additionally audits the cache's own
    books: a cold pass must miss-and-store every cell, a warm pass must hit
    every cell without simulating anything.
    """
    unknown = set(variants) - set(DEFAULT_VARIANTS)
    if unknown:
        raise KeyError(
            f"unknown oracle variant(s) {sorted(unknown)}; "
            f"available: {DEFAULT_VARIANTS}"
        )
    baseline = grid()
    n = len(baseline)
    outcomes: list[VariantOutcome] = []
    for variant in variants:
        notes: list[str] = []
        if variant == "jobs":
            runs = [grid(n_jobs=jobs)]
        else:  # "cache"
            with tempfile.TemporaryDirectory() as scratch:
                cold = SweepCache(cache_dir or scratch)
                warm = SweepCache(cache_dir or scratch)
                runs = [grid(cache=cold), grid(cache=warm)]
            if not cold.stats.misses == cold.stats.stores == n:
                notes.append(
                    f"cold pass expected {n} misses+stores, saw {cold.stats}"
                )
            if warm.stats.hits != n or warm.stats.misses != 0:
                notes.append(f"warm pass expected {n} pure hits, saw {warm.stats}")
        mismatches = []
        for run in runs:
            for i, (a, b) in enumerate(zip(baseline, run)):
                fields = diff_results(a, b)
                if fields:
                    mismatches.append((i, tuple(fields)))
            if len(run) != n:
                notes.append(f"{len(run)} cells vs {n}")
        outcomes.append(
            VariantOutcome(variant, n, tuple(mismatches), tuple(notes))
        )
    return OracleReport(label=label, cells=n, outcomes=tuple(outcomes))


def diff_run(
    platform: PlatformConfig,
    workload: WorkloadSpec,
    mode: str,
    rates: Sequence[float],
    scheduler: str,
    *,
    trials: int = 2,
    base_seed: int = 0,
    execute: bool = False,
    config: Optional[RuntimeConfig] = None,
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    variants: Sequence[str] = DEFAULT_VARIANTS,
) -> OracleReport:
    """Run one (rate x trial) grid under every paired configuration in
    *variants* and diff each :class:`~repro.metrics.RunResult` against the
    serial baseline (see :func:`_diff_grid`)."""
    if config is None:
        config = RuntimeConfig(scheduler=scheduler, execute_kernels=execute)

    def grid(n_jobs: int = 1, cache=False) -> list[RunResult]:
        out: list[RunResult] = []
        for rate in rates:
            out.extend(
                run_trials(
                    platform, workload, mode, rate, scheduler,
                    trials=trials, base_seed=base_seed, execute=execute,
                    config=config, n_jobs=n_jobs, cache=cache,
                )
            )
        return out

    return _diff_grid(
        f"{platform.name}/{workload.name}/{mode}/{scheduler}",
        grid, variants, jobs, cache_dir,
    )


def diff_serve(
    platform: PlatformConfig,
    serve,
    *,
    trials: int = 2,
    base_seed: int = 0,
    config: Optional[RuntimeConfig] = None,
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    variants: Sequence[str] = DEFAULT_VARIANTS,
) -> OracleReport:
    """The serve-mode differential oracle behind ``repro audit diff --serve``.

    Open-stream service runs add three determinism hazards batch sweeps do
    not have: admission decisions fed back from live runtime signals (ready
    depth, online p99), hold-queue release interleaved with completions,
    and an expiry/seal race against in-flight work.  This runs one
    ``(serve config, trial seed)`` grid under every paired configuration in
    *variants* and diffs each :class:`~repro.serve.driver.ServeResult` -
    SLO ledger and embedded batch result both - bit-exactly against the
    serial baseline.
    """
    from repro.serve.driver import serve_trials

    if config is None:
        config = RuntimeConfig(scheduler=serve.scheduler, execute_kernels=False)

    def grid(n_jobs: int = 1, cache=False) -> list:
        return serve_trials(
            platform, serve,
            trials=trials, base_seed=base_seed,
            config=config, n_jobs=n_jobs, cache=cache,
        )

    tenant_names = "+".join(t.name for t in serve.tenants)
    return _diff_grid(
        f"{platform.name}/serve[{tenant_names}]/{serve.scheduler}",
        grid, variants, jobs, cache_dir,
    )
