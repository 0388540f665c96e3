"""Measuring one workload: end-to-end metrics (tracing off) or per-layer ones.

Noise control
-------------
Raw wall seconds of unchanged code drift by tens of percent on a small
shared sandbox, and the noise is one-sided: interference only ever adds
time.  So the timed parts of a repetition ("rep") are interleaved with passes
of the calibration kernel (:mod:`calibrate`) - one at the end of every rep,
and inside a long rep whenever half a second of parts has run - and a
workload's cost is

    norm_wall = sum over parts of best(part walls) / best(calibration walls)
                / work_units

where ``best`` is the **mean of the fastest third** of the samples taken in
the run (the fastest one below six samples): the level the host reaches when
nothing else runs, for the workload and for the kernel alike.  Both are taken
interleaved in the same seconds, so a host that is slow for the whole run
cancels out.  Dividing by the work done (``Rep.work_units``: tasks
completed, engine events, corpus cells) keeps the number steady across
``--seed`` values whose Poisson draws offer a few percent more or fewer
applications.  No rep is thrown away as a warm-up - the estimator ignores
slow samples by construction - but the first rep's ratio to the result is
reported as ``info.first_rep_over_best``.

Operations
----------
An *operation* is one rep (for ``corpus_sweep``, one cell).  It fails if it
raises, breaks a ledger identity, differs in ``sim_digest`` from the first
rep of the run, or - at the pinned seed - differs from the digest in
``expected_digests.json``.  Applications that fail inside the simulation
because a fault was injected are a simulated outcome covered by the digest,
not a failed operation.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from calibrate import calibrate
from digest import sim_digest
from probes import PROBES, run_probes
from tracing import ROOT_SPAN, SPAN_NAMES, Tracer
from workloads import Rep, Workload, merge

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "PINNED_SEED",
    "EXPECTED_PATH",
    "Ledger",
    "measure_end_to_end",
    "measure_layers",
    "load_expected",
    "fingerprint",
]

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
EXPECTED_PATH = HERE / "expected_digests.json"

#: the seed whose digests are pinned in expected_digests.json
PINNED_SEED = 0

#: timed reps below which the run keeps going past ``--seconds``
MIN_REPS = 3

#: (name, unit, better, bound): what a user of the simulator sees
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("norm_wall", "calib/unit", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows: list[tuple[str, str, str]] = []
    for span in SPAN_NAMES:
        rows.append((f"{span}.self_s", "s", "lower"))
        rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.share", "share", "lower"))
    rows += [
        ("simcore.events", "count", "lower"),
        ("simcore.events_per_task", "count", "lower"),
        ("simcore.timers_fired", "count", "lower"),
        ("simcore.mean_batch", "count", "higher"),
        ("runtime.apps", "count", "higher"),
        ("runtime.tasks", "count", "higher"),
        ("runtime.sched_rounds", "count", "lower"),
        ("runtime.ready_depth_mean", "count", "higher"),
        ("runtime.ready_depth_max", "count", "higher"),
        ("sched.tasks_per_call", "count", "higher"),
        ("serve.offered", "count", "higher"),
        ("serve.admitted", "count", "higher"),
        ("serve.shed", "count", "lower"),
        ("serve.held", "count", "lower"),
        ("faults.injected", "count", "lower"),
        ("faults.retries", "count", "lower"),
        ("faults.task_failures", "count", "lower"),
        ("faults.apps_failed", "count", "lower"),
        ("telemetry.samples", "count", "lower"),
        ("audit.violations", "count", "lower"),
        ("host.py_calls", "count", "lower"),
    ]
    rows += [(probe, "calib/kop", "lower") for probe in PROBES]
    rows.append(("host.import_s", "s", "lower"))
    return tuple(rows)


#: (name, unit, better): single-layer metrics, ``None`` where not on the path
PER_LAYER = _per_layer()


def fingerprint() -> dict[str, Any]:
    """Host / CPython / NumPy fingerprints for the output header."""
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def load_expected(path: Path, quick: bool) -> dict[str, str]:
    """Pinned digests for the size in use; empty when the file is absent."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return dict(doc.get("quick" if quick else "full", {}))


# ----------------------------------------------------------------------- #
# operations ledger
# ----------------------------------------------------------------------- #


@dataclass
class Ledger:
    """Attempted/failed operations and the digest every rep must repeat."""

    workload: str
    expected: Optional[str]
    attempted: int = 0
    failed: int = 0
    digest: Optional[str] = None
    reasons: list[str] = field(default_factory=list)

    def run(self, rep: Callable[[], Rep]) -> Optional[Rep]:
        """One whole rep, accounted; ``None`` when it raised."""
        try:
            done = rep()
        except Exception as exc:  # noqa: BLE001 - a raising rep is a failed operation
            traceback.print_exc(file=sys.stdout)
            self.fail(f"rep raised {type(exc).__name__}: {exc}")
            return None
        self.account(done)
        return done

    def account(self, rep: Rep) -> None:
        self.attempted += rep.ops
        digest = sim_digest(rep.fields)
        # every rep must repeat the pinned digest, or failing one the first rep's
        reference = self.expected if self.expected is not None else self.digest
        if self.digest is None:
            self.digest = digest
        whole_rep_failed = reference is not None and digest != reference
        if whole_rep_failed:
            which = "pinned" if self.expected is not None else "first rep's"
            self._note(f"sim_digest {digest[:16]}.. != {which} {reference[:16]}..")
        for problem in rep.problems:
            self._note(problem)
        if whole_rep_failed:
            self.failed += rep.ops
        else:
            self.failed += max(rep.failed_ops, 1 if rep.problems else 0)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(reason)

    def _note(self, reason: str) -> None:
        if len(self.reasons) < 20:
            self.reasons.append(reason)
        print(f"FAILED {self.workload}: {reason}")


def _quartiles(values: list[float]) -> dict[str, Any]:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3, "min": min(values)}


def best(values: list[float]) -> float:
    """Mean of the fastest third of *values* (the fastest one below six)."""
    ordered = sorted(values)
    k = max(1, len(ordered) // 3)
    return sum(ordered[:k]) / k


# ----------------------------------------------------------------------- #
# set-up time
# ----------------------------------------------------------------------- #


def cold_import_seconds(spawns: int) -> list[float]:
    """Wall seconds of ``import repro.cli`` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro.cli"
    out = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=str(HERE))
        out.append(time.perf_counter() - t0)
    return out


def _build_seconds(workload: Workload, seed: int, quick: bool, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        workload.build(seed, quick)
        out.append(time.perf_counter() - t0)
    return out


# ----------------------------------------------------------------------- #
# end to end (tracing off)
# ----------------------------------------------------------------------- #


def _timed_rep(
    ledger: Ledger,
    workload: Workload,
    seed: int,
    quick: bool,
    walls: dict[str, list[float]],
    units: list[float],
) -> tuple[Optional[Rep], float]:
    """One rep, part by part: wall seconds into *walls*, calibration passes
    into *units* - one whenever half a second of parts has run since the
    last, and one at the end of the rep.  Returns the rep (``None`` when a
    part raised) and the wall seconds of its parts."""
    done = []
    since_pass = total = 0.0
    try:
        for name, part in workload.parts(seed, quick):
            gc.collect()
            t0 = time.perf_counter()
            result = part()
            wall = time.perf_counter() - t0
            walls.setdefault(name, []).append(wall)
            done.append((name, result))
            since_pass += wall
            total += wall
            if since_pass >= 0.5:
                units.append(calibrate())
                since_pass = 0.0
        if since_pass > 0.0:
            units.append(calibrate())
    except Exception as exc:  # noqa: BLE001 - a raising rep is a failed operation
        traceback.print_exc(file=sys.stdout)
        ledger.fail(f"rep raised {type(exc).__name__}: {exc}")
        return None, total
    rep = merge(done)
    ledger.account(rep)
    return rep, total


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, quick: bool, expected: Optional[str]
) -> dict[str, Any]:
    """The end-to-end metrics of one workload, measured with tracing off."""
    ledger = Ledger(workload.name, expected)
    imports = cold_import_seconds(1 if quick else 5)
    try:
        builds = _build_seconds(workload, seed, quick, 2 if quick else 5)
    except Exception as exc:  # noqa: BLE001 - a raising set-up is a failed operation
        traceback.print_exc(file=sys.stdout)
        ledger.fail(f"set-up raised {type(exc).__name__}: {exc}")
        builds = [0.0]

    walls: dict[str, list[float]] = {}
    units = [calibrate()]
    rep_walls: list[float] = []
    work = 0.0
    started = time.perf_counter()
    while True:
        rep, wall = _timed_rep(ledger, workload, seed, quick, walls, units)
        if rep is None or rep.work_units <= 0:
            break  # already a failed operation; more of the same teaches nothing
        rep_walls.append(wall)
        work = rep.work_units
        enough = len(rep_walls) >= (1 if quick else MIN_REPS)
        if enough and time.perf_counter() - started >= seconds:
            break

    unit = best(units)
    norm_wall = first = wall = None
    if rep_walls:
        # a part that raised mid-run leaves uneven series; best() does not mind
        norm_wall = sum(best(series) for series in walls.values()) / unit / work
        first = sum(series[0] for series in walls.values()) / unit / work / norm_wall
        wall = statistics.median(rep_walls)
    else:
        ledger.fail("no rep completed")
    setup = best(imports) + best(builds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": workload.name,
        "seed": seed,
        "metrics": {
            "norm_wall": norm_wall,
            "setup_s": setup,
            "peak_rss_mb": rss,
        },
        "failed_share": ledger.failed / max(1, ledger.attempted),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "reasons": ledger.reasons,
        "sim_digest": ledger.digest,
        "samples": {
            "reps": len(rep_walls),
            "calibration_passes": len(units),
            "rep_wall_s": _quartiles(rep_walls) if rep_walls else None,
            "calib_wall_s": _quartiles(units),
        },
        # raw host-dependent numbers, for humans: not end-to-end metrics
        "info": {
            "work_units": work,
            "work_unit": workload.unit,
            "wall_s": wall,
            "units_per_s": work / wall if wall else None,
            "calib_s": unit,
            "first_rep_over_best": first,
            "import_s": _quartiles(imports),
            "build_s": _quartiles(builds),
            "part_wall_s": walls,
            "calib_wall_s": units,
        },
    }


# ----------------------------------------------------------------------- #
# per layer (traced run, counts, probes)
# ----------------------------------------------------------------------- #


def _profiled_rep(ledger: Ledger, rep: Callable[[], Rep]):
    """One rep under cProfile: (python-level calls, raw profiler stats)."""
    profile = cProfile.Profile(builtins=False)
    gc.collect()
    profile.enable()
    try:
        ledger.run(rep)
    finally:
        profile.disable()
    stats = profile.getstats()
    return sum(entry.callcount for entry in stats), stats


def _calls_beneath(stats: list) -> dict[Any, float]:
    """Python-level calls made beneath each profiled function (estimated).

    cProfile records caller -> callee counts, not whole subtrees; a callee's
    own subtree is attributed to its callers in proportion to their share of
    its calls, iterated to a fixed point (recursion is shallow here).
    """
    entries = {entry.code: entry for entry in stats}
    beneath = dict.fromkeys(entries, 0.0)
    for _ in range(50):
        updated = {}
        for code, entry in entries.items():
            total = 0.0
            for sub in entry.calls or ():
                callee = entries.get(sub.code)
                if callee is not None and callee.callcount:
                    total += sub.callcount * (1.0 + beneath[sub.code] / callee.callcount)
            updated[code] = total
        settled = all(abs(updated[c] - beneath[c]) <= 1e-6 * (1.0 + beneath[c]) for c in entries)
        beneath = updated
        if settled:
            break
    return beneath


def crosscheck_rows(
    tracer: Tracer, summary: dict, stats: list, plain_wall_s: float
) -> list[dict[str, Any]]:
    """Span inclusive share vs cProfile cumulative share, per span.

    Each side is a share of its own run's root wall.  cProfile charges every
    Python-level call a near-constant fee and native code none, which
    inflates call-heavy layers (the engine loop) against NumPy-heavy ones
    (app-instance construction); ``cprofile_net_share`` removes that fee -
    (profiled wall - untraced wall) / calls, times the calls beneath each
    function - from both numerator and root.  Part of the fee falls outside
    the profiler's own timing windows, so the net figure over-corrects: the
    raw and net shares bracket the truth.  A span is flagged when its share
    lies more than 5 points of root wall outside that bracket.
    """
    by_code = {entry.code: entry for entry in stats}
    root_s = summary.get(ROOT_SPAN, {}).get("inclusive_s", 0.0)
    # the profiled rep runs under ``Ledger.run``: its cumulative time is the root
    root_entry = by_code.get(Ledger.run.__code__)
    if root_entry is None or root_s <= 0:
        return []
    beneath = _calls_beneath(stats)
    profile_root = root_entry.totaltime
    root_calls = beneath[root_entry.code]
    fee = max(0.0, profile_root - plain_wall_s) / root_calls if root_calls else 0.0
    rows = []
    for span in SPAN_NAMES:
        codes = tracer.target_codes.get(span, ())
        if span == ROOT_SPAN or not codes or span not in summary:
            continue
        cumulative = calls = 0.0
        for code in codes:
            entry = by_code.get(code)
            if entry is None:
                continue
            # a target called straight from another target of the same span
            # is already inside its caller's cumulative time
            nested = [sub for sub in entry.calls or () if sub.code in codes]
            cumulative += entry.totaltime - sum(sub.totaltime for sub in nested)
            calls += beneath[code] - sum(
                sub.callcount * (1.0 + beneath[sub.code] / by_code[sub.code].callcount)
                for sub in nested
            )
        span_share = summary[span]["inclusive_s"] / root_s
        raw_share = cumulative / profile_root
        net_share = max(0.0, cumulative - fee * calls) / (profile_root - fee * root_calls)
        low, high = sorted((raw_share, net_share))
        rows.append(
            {
                "span": span,
                "span_share": span_share,
                "cprofile_share": raw_share,
                "cprofile_net_share": net_share,
                "flag": not (low - 0.05 <= span_share <= high + 0.05),
            }
        )
    return rows


def package_shares(stats: list) -> dict[str, float]:
    """cProfile *self* time by ``src/repro`` package, as shares of the total."""
    totals: dict[str, float] = {}
    for entry in stats:
        code = entry.code
        filename = code if isinstance(code, str) else code.co_filename
        marker = "/repro/"
        if marker in filename:
            layer = filename.split(marker, 1)[1].split("/", 1)[0].removesuffix(".py")
        else:
            layer = "(outside repro)"
        totals[layer] = totals.get(layer, 0.0) + entry.inlinetime
    whole = sum(totals.values())
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])} if whole else {}


def measure_layers(
    workload: Workload,
    seed: int,
    seconds: float,
    quick: bool,
    expected: Optional[str],
    crosscheck: bool = False,
) -> dict[str, Any]:
    """The per-layer metrics of one workload: traced reps, counts, probes."""
    ledger = Ledger(workload.name, expected)

    tracer = Tracer()

    def rep() -> Rep:
        return workload.rep(seed, quick)

    def traced_rep() -> Rep:
        with tracer, tracer.root():
            return workload.rep(seed, quick)

    def timed(which: Callable[[], Rep], before: float):
        """(rep or None, wall seconds, cost in calibration units, pass after)."""
        gc.collect()
        t0 = time.perf_counter()
        done = ledger.run(which)
        wall = time.perf_counter() - t0
        after = calibrate()
        return done, wall, wall / ((before + after) / 2.0), after

    ledger.run(rep)  # warm-up: lazy imports, interned cost rows
    plain: list[float] = []
    plain_walls: list[float] = []
    traced: list[float] = []
    extra_counts: dict[str, float] = {}
    unit = calibrate()
    started = time.perf_counter()
    while True:
        done, wall, cost, unit = timed(rep, unit)
        if done is not None:
            plain.append(cost)
            plain_walls.append(wall)
        done, _, cost, unit = timed(traced_rep, unit)
        if done is not None:
            traced.append(cost)
            extra_counts = done.counts
        if time.perf_counter() - started >= 0.4 * seconds or quick:
            break
    n_traced = max(1, len(traced))

    py_calls, stats = _profiled_rep(ledger, rep)
    probes = run_probes(0.02 if quick else 0.08)
    for name, value in probes.items():
        if value is None:
            ledger.fail(f"probe {name} raised")
    import_s = statistics.median(cold_import_seconds(1 if quick else 3))

    metrics: dict[str, Optional[float]] = {name: None for name, _, _ in PER_LAYER}
    summary = tracer.summary()
    root_s = summary.get(ROOT_SPAN, {}).get("inclusive_s", 0.0)
    for span in SPAN_NAMES:
        row = summary.get(span)
        if row is None or span in tracer.missing:
            continue  # not on this workload's path, or the target is gone
        metrics[f"{span}.self_s"] = row["self_s"] / n_traced
        metrics[f"{span}.calls"] = row["calls"] / n_traced
        metrics[f"{span}.share"] = row["self_s"] / root_s if root_s > 0 else None

    c = {name: value / n_traced for name, value in tracer.counts.items()}
    c["runtime.ready_depth_max"] = tracer.counts.get("runtime.ready_depth_max", 0.0)
    on_runtime = c.get("runtime.sched_rounds", 0.0) > 0
    if "simcore.events" in c:
        metrics["simcore.events"] = c["simcore.events"]
        metrics["simcore.timers_fired"] = c["simcore.timers_fired"]
        batches = c["simcore.drain_batches"]
        metrics["simcore.mean_batch"] = c["simcore.drain_events"] / batches if batches else None
    if on_runtime:
        rounds = c["runtime.sched_rounds"]
        tasks = c["runtime.tasks"]
        metrics["simcore.events_per_task"] = c["simcore.events"] / tasks if tasks else None
        metrics["runtime.apps"] = c["runtime.apps"]
        metrics["runtime.tasks"] = tasks
        metrics["runtime.sched_rounds"] = rounds
        metrics["runtime.ready_depth_mean"] = c["runtime.ready_depth_sum"] / rounds
        metrics["runtime.ready_depth_max"] = c["runtime.ready_depth_max"]
        metrics["sched.tasks_per_call"] = tasks / rounds
        for name in ("faults.injected", "faults.retries", "faults.task_failures",
                     "faults.apps_failed", "telemetry.samples"):
            if name in c:  # only where a fault injector / telemetry was live
                metrics[name] = c[name]
    if "serve.offered" in c:
        for name in ("offered", "admitted", "shed", "held"):
            metrics[f"serve.{name}"] = c[f"serve.{name}"]
    if "audit.violations" in extra_counts:
        metrics["audit.violations"] = extra_counts["audit.violations"]
    metrics["host.py_calls"] = float(py_calls)
    metrics.update(probes)
    metrics["host.import_s"] = import_s

    overhead = None
    if plain and traced:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    share_sum = sum(
        v for k, v in metrics.items() if k.endswith(".share") and v is not None
    )
    out: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "reasons": ledger.reasons,
        "sim_digest": ledger.digest,
        "info": {
            "trace_overhead": overhead,
            "traced_reps": len(traced),
            "span_share_sum": share_sum,
            "spans_recorded": len(tracer.span_starts),
            "missing_targets": sorted(tracer.missing),
        },
    }
    if crosscheck:
        out["crosscheck"] = {
            "spans": crosscheck_rows(
                tracer, summary, stats, statistics.median(plain_walls)
            ),
            "cprofile_self_share_by_package": package_shares(stats),
        }
    return out
