#!/usr/bin/env python3
"""The end-to-end and per-layer performance ledger of the CEDR simulator.

Two ways in, one measuring core (:mod:`harness`):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    measure one workload in this process and print, as the last line of
    standard output, one JSON object ``{"correct", "attempted", "failed",
    "metrics"}``: the end-to-end metrics with ``--trace 0`` (tracing off),
    the per-layer metrics with ``--trace 1``.  This is the form the
    benchmark driver calls (see ``BENCHMARK.json``).

``run.py [--seed 0] [--workload NAME] [--out PATH]``
    the ledger: run every workload both ways, each in a fresh child
    process, one at a time; print every metric by name with its unit and
    write one JSON document.  ``--aa`` runs the end-to-end suite twice on
    the same code and checks the two against the bounds in
    ``BENCHMARK.json``; ``--crosscheck`` compares the tracer's attribution
    with ``cProfile``; ``--repin`` rewrites ``expected_digests.json``.

Exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402 - needs src/ on the path
from digest import sim_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 10
DEFAULT_OUT = HERE / "out" / "ledger.json"
DETAIL_PREFIX = "detail: "

UNITS = {name: unit for name, unit, *_ in harness.END_TO_END + harness.PER_LAYER}


def _show(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ----------------------------------------------------------------------- #
# one workload, in this process (the driver's protocol)
# ----------------------------------------------------------------------- #


def measure(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    expected = None
    if args.seed == harness.PINNED_SEED:
        expected = harness.load_expected(args.expected, args.quick).get(workload.name)
    print(f"# {json.dumps(harness.fingerprint(), sort_keys=True)}")
    print(f"# workload {workload.name}: {workload.why}")
    if args.trace:
        detail = harness.measure_layers(
            workload, args.seed, args.seconds, args.quick, expected, args.crosscheck
        )
    else:
        detail = harness.measure_end_to_end(
            workload, args.seed, args.seconds, args.quick, expected
        )
    for name, value in detail["metrics"].items():
        print(f"{workload.name}.{name} = {_show(value)} {UNITS[name]}")
    for name, value in detail["info"].items():
        if not isinstance(value, (dict, list)):  # raw series stay in the detail record
            print(f"{workload.name}.info.{name} = {_show(value)}")
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    # the driver's line: numbers only - a layer off this workload's path did
    # no work here, which reads 0 (the ledger document keeps it as null)
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": int(detail["attempted"]),
                "failed": int(detail["failed"]),
                "metrics": {
                    name: {"value": 0.0 if value is None else value, "unit": UNITS[name]}
                    for name, value in detail["metrics"].items()
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------- #
# the ledger: every workload, each in a fresh child process
# ----------------------------------------------------------------------- #


def _child(args: argparse.Namespace, workload: str, trace: int) -> Optional[dict[str, Any]]:
    """Run one workload in a fresh interpreter; its detail record or None."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--expected", str(args.expected),
    ]
    if args.quick:
        cmd.append("--quick")
    if args.crosscheck and trace:
        cmd.append("--crosscheck")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        elif line.startswith("FAILED") or line.startswith("probe "):
            print(line)
    if done.returncode != 0 or detail is None:
        print(f"FAILED {workload}: child exited {done.returncode} without a result")
        print(done.stdout[-2000:])
        return None
    return detail


def _selected(args: argparse.Namespace) -> list[str]:
    return [args.workload] if args.workload else list(WORKLOADS)


def _end_to_end_suite(args: argparse.Namespace) -> dict[str, Optional[dict[str, Any]]]:
    suite = {}
    for name in _selected(args):
        t0 = time.perf_counter()
        detail = _child(args, name, 0)
        suite[name] = detail
        if detail is not None and detail["metrics"]["norm_wall"] is None:
            print(f"{name:14s} no rep completed: {detail['reasons']}")
        elif detail is not None:
            reps = detail["samples"]["rep_wall_s"]
            print(
                f"{name:14s} norm_wall {detail['metrics']['norm_wall']:.4f} calib/unit "
                f"(n={reps['n']} reps; wall q1 {reps['q1']:.3f} median {reps['median']:.3f} "
                f"q3 {reps['q3']:.3f} s)  "
                f"setup_s {detail['metrics']['setup_s']:.3f} s  "
                f"peak_rss_mb {detail['metrics']['peak_rss_mb']:.1f} MiB  "
                f"failed_share {detail['failed_share']:.3g} "
                f"({detail['failed']}/{detail['attempted']})  "
                f"[{time.perf_counter() - t0:.0f} s]",
                flush=True,
            )
    return suite


def _failed(records: list[Optional[dict[str, Any]]]) -> bool:
    return any(r is None or r["failed"] for r in records)


def ledger(args: argparse.Namespace) -> int:
    header = harness.fingerprint()
    print(f"# {json.dumps(header, sort_keys=True)}")
    print(f"# seed {args.seed}, {args.seconds} s per run, quick={args.quick}")
    print("## end to end (tracing off)")
    end_to_end = _end_to_end_suite(args)
    print("## per layer (traced rep, counts, probes)")
    layers = {}
    for name in _selected(args):
        detail = _child(args, name, 1)
        layers[name] = detail
        if detail is None:
            continue
        plain = end_to_end.get(name)
        info = detail["info"]
        print(
            f"{name}: trace_overhead {_show(info['trace_overhead'])}, "
            f"span shares sum to {info['span_share_sum']:.4f}, "
            f"missing targets {info['missing_targets']}"
        )
        if plain is not None and plain["sim_digest"] != detail["sim_digest"]:
            print(f"FAILED {name}: traced sim_digest differs from the untraced run's")
            detail["failed"] += 1
        for metric, value in detail["metrics"].items():
            if value is not None:
                print(f"  {name}.{metric} = {_show(value)} {UNITS[metric]}")
        if "crosscheck" in detail:
            _print_crosscheck(name, detail["crosscheck"])
    doc = {
        "schema": "repro.benchmarks.e2e/1",
        "header": header,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    bad = _failed(list(end_to_end.values()) + list(layers.values()))
    print("RESULT: " + ("FAILED - an output check did not hold" if bad else "ok"))
    return 1 if bad else 0


def _print_crosscheck(name: str, check: dict[str, Any]) -> None:
    print(f"  crosscheck {name}: span inclusive share | cProfile cumulative, raw | net of fee")
    for row in check["spans"]:
        if max(row["span_share"], row["cprofile_share"]) < 0.005:
            continue
        flag = "  <-- more than 5 points outside the bracket" if row["flag"] else ""
        print(
            f"    {row['span']:24s} {row['span_share']:7.1%}  {row['cprofile_share']:7.1%}"
            f"  {row['cprofile_net_share']:7.1%}{flag}"
        )
    shares = ", ".join(
        f"{k} {v:.1%}" for k, v in check["cprofile_self_share_by_package"].items() if v >= 0.01
    )
    print(f"    cProfile self time by package: {shares}")


# ----------------------------------------------------------------------- #
# --aa: the same code twice, against the bounds in BENCHMARK.json
# ----------------------------------------------------------------------- #


def aa(args: argparse.Namespace) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}
    print("## A/A set 1")
    first = _end_to_end_suite(args)
    print("## A/A set 2")
    second = _end_to_end_suite(args)
    bad = _failed(list(first.values()) + list(second.values()))
    print("## A/A: second set against the first, same code")
    for name in _selected(args):
        a, b = first[name], second[name]
        if a is None or b is None or None in (*a["metrics"].values(), *b["metrics"].values()):
            continue  # already counted as failed
        if a["sim_digest"] != b["sim_digest"]:
            print(f"{name:14s} sim_digest differs between sets  FAIL")
            bad = True
        for metric, (better, bound) in bounds.items():
            va, vb = a["metrics"][metric], b["metrics"][metric]
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            verdict = "PASS" if worse <= bound else "FAIL"
            bad = bad or verdict == "FAIL"
            print(
                f"{name:14s} {metric:12s} {va:10.4f} {vb:10.4f} "
                f"{(vb - va) / va:+8.2%}  bound {bound:.0%}  {verdict}"
            )
    print("RESULT: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


# ----------------------------------------------------------------------- #
# --repin: rewrite expected_digests.json (benchmark-archetype changes only)
# ----------------------------------------------------------------------- #


def repin(args: argparse.Namespace) -> int:
    path = Path(args.expected)
    old = {size: harness.load_expected(path, size == "quick") for size in ("full", "quick")}
    new: dict[str, dict[str, str]] = {"full": {}, "quick": {}}
    for size in new:
        for name in _selected(args):
            rep = WORKLOADS[name].rep(harness.PINNED_SEED, size == "quick")
            if rep.problems:
                print(f"FAILED {name} ({size}): {rep.problems}")
                return 1
            new[size][name] = sim_digest(rep.fields)
            was = old[size].get(name)
            if was != new[size][name]:
                print(f"{size}.{name}: {was} -> {new[size][name]}")
        new[size] = {**old[size], **new[size]}
    doc = {
        "_comment": (
            "sim_digest of every workload at seed 0, per size; rewritten only by "
            "`run.py --repin` in a change that redefines the benchmark"
        ),
        "seed": harness.PINNED_SEED,
        **new,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}" + ("" if new != old else " (no digest moved)"))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default all)")
    parser.add_argument("--seed", type=int, default=harness.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure one workload in-process: 0 end to end, 1 per layer")
    parser.add_argument("--quick", action="store_true", help="small sizes (harness tests)")
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="ledger document path")
    parser.add_argument("--expected", default=str(harness.EXPECTED_PATH),
                        help="pinned digests file")
    parser.add_argument("--aa", action="store_true", help="run the suite twice, check bounds")
    parser.add_argument("--crosscheck", action="store_true",
                        help="compare span shares with cProfile")
    parser.add_argument("--repin", action="store_true", help="rewrite the pinned digests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.quick else DEFAULT_SECONDS
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return measure(args)
    if args.repin:
        return repin(args)
    if args.aa:
        return aa(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
