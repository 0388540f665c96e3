"""Command-line interface: run workloads and regenerate paper figures.

The real CEDR ships command-line tools (``sub_dag`` and friends) that
submit applications to the daemon over IPC.  This module is the
reproduction's equivalent front end::

    python -m repro list
    python -m repro run --platform zcu102 --fft 2 --apps PD:3,TX:3 \\
        --mode api --scheduler heft_rt --rate 200
    python -m repro run --platform jetson --apps LD:1,PD:2 --trace out.json
    python -m repro run --apps PD:2 --metrics-out out/metrics --metrics-interval 0.01
    python -m repro scenario run examples/scenarios/radar_zcu102.toml
    python -m repro figure fig5
    python -m repro figure fig10a --trials 2
    python -m repro telemetry

``run`` prints the paper's three metrics for the run (plus optional energy
and a Chrome trace dump); ``scenario`` validates/lists/executes declarative
TOML/JSON experiment documents; ``figure`` prints the regenerated series
tables of the requested evaluation figure; ``telemetry`` prints the metric
catalog the telemetry subsystem exports (names, types, bucket ladders).

Every extension axis the CLI exposes - platforms, applications, workload
presets, schedulers, arrival processes, fault kinds, figures - is driven
by the corresponding :mod:`repro.registry` registry, so argparse choices,
``repro list`` output, and dispatch are all one table, and third-party
plugins appear everywhere at once.

``run`` and ``serve`` construct nothing themselves: their flags lower to a
:class:`~repro.scenario.ScenarioSpec` (:func:`_lower`) and the spec's
``build_*`` methods are the one construction route; ``run``, ``serve`` and
``scenario run`` print their trials by ``report_lines``.  ``audit`` replays
the invariant catalog over a saved logbook dump.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.apps import available_apps
from repro.platforms import PLATFORMS, available_platforms
from repro.sched import available_schedulers
from repro.scenario_keys import CHECKS, KEYS
from repro.serve.admission import ADMISSION_POLICIES
from repro.telemetry.config import SampleCapError

__all__ = ["main", "build_parser"]

# --------------------------------------------------------------------- #
# spec flags: declared and lowered from the key table
# --------------------------------------------------------------------- #


def _add_spec_flags(parser, verb: str) -> None:
    """Declare every key-table flag *verb* exposes (one per spelling)."""
    from repro.faults import available_fault_kinds
    from repro.serve import available_arrivals

    lists = {"apps": ",".join(available_apps()),
             "arrivals": ", ".join(available_arrivals()),
             "fault_kinds": ",".join(available_fault_kinds())}
    declared = set()
    for row in KEYS:
        if verb not in row.verbs or row.flag in declared:
            continue
        declared.add(row.flag)
        help = row.help.format(**lists)
        if row.type == "bool":
            parser.add_argument(row.flag, action="store_true", help=help)
            continue
        default = row.default
        if row.attr.startswith("platform_params."):
            default = None  # so _lower tells a given flag from an omitted one
        if row.type == "kinds":
            default = ",".join(kind.value for kind in default)
        choices = row.choices() if row.choices else (
            row.check if isinstance(row.check, tuple) else None)
        parser.add_argument(row.flag, default=default, choices=choices, help=help,
                            type={"int": int, "int?": int, "float": float}.get(row.type))


def _lower(args):
    """Lower a flag namespace to a validated ``ScenarioSpec``: each key-table
    flag of the verb becomes its ``[section] key`` of a scenario document.
    Every given flag is placed and checked - a platform parameter the
    platform does not take, or a bad ``--fault-*`` value at rate 0, fails
    like the same document key.  Every validation failure (``ScenarioError``
    and ``RegistryError`` are both ``ValueError``) exits on one line."""
    from repro.scenario import ScenarioSpec

    verb = kind = args.command  # "run" or "serve"
    doc = {"scenario": {"name": "cli", "kind": kind}}
    accepted = PLATFORMS.get(args.platform).params
    for row in KEYS:
        if verb not in row.verbs or not row.in_scope(kind):
            continue
        value = getattr(args, row.dest)
        if row.attr.startswith("platform_params.") and value is None:
            # omitted: the row default, only on a platform that takes the key
            if row.key not in accepted or row.default is None:
                continue
            value = row.default
        row.place(doc, value)
    # the flags that are not "this key = this value"
    if verb == "run":
        doc["run"]["execute"] = not args.timing_only
        if not args.metrics_out and args.metrics_interval == 0.0:
            del doc["telemetry"]  # a bad interval stays, so the key's check sees it
    try:
        spec = ScenarioSpec.from_mapping(doc, source=f"repro {verb}")
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if spec.faults is not None and spec.faults.rate == 0.0:
        spec = dataclasses.replace(spec, faults=None)  # checked, then off
    return spec


def _add_cache_options(parser) -> None:
    """The sweep-cache block shared by figure and ``scenario run``."""
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument("--cache", action="store_true",
                       help="reuse previously simulated sweep cells from the "
                            "content-addressed cache (default dir "
                            ".repro-cache/; see also $REPRO_CACHE)")
    cache.add_argument("--no-cache", action="store_true",
                       help="force caching off, overriding $REPRO_CACHE")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache directory (implies --cache)")


def _add_logbook_option(parser) -> None:
    parser.add_argument("--logbook", metavar="PATH", default=None,
                        help="write the run's logbook dump (schema-versioned "
                             "JSON) to PATH; audit it later with "
                             "'repro audit PATH'")


def _save_logbook(book, path) -> None:
    path = book.save(path)
    print(f"logbook   : wrote {path} (audit offline with 'repro audit {path}')")


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import available_figures

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CEDR-API reproduction: run emulated DSSoC workloads "
                    "and regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list every registered plugin axis "
                                      "(platforms, apps, schedulers, ...)")
    lst.set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run a workload and print its metrics")
    run.set_defaults(func=_cmd_run)
    _add_spec_flags(run, "run")
    run.add_argument("--timing-only", action="store_true",
                     help="skip functional kernel execution")
    run.add_argument("--energy", action="store_true", help="print an energy estimate")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace (chrome://tracing) to PATH")
    run.add_argument("--gantt", action="store_true",
                     help="print an ASCII Gantt chart of the schedule")
    run.add_argument("--verbose", action="store_true",
                     help="also print simulator perf counters "
                          "(events processed per wall second)")
    run.add_argument("--perf-json", metavar="PATH", default=None,
                     help="dump the runtime's PerfCounters snapshot "
                          "(incl. fault/retry counters and the host-time "
                          "split by thread role) as JSON to PATH")
    run.add_argument("--metrics-out", metavar="BASE", default=None,
                     help="enable telemetry and write BASE.json + BASE.prom "
                          "(Prometheus exposition format) at shutdown")
    _add_logbook_option(run)

    serve = sub.add_parser(
        "serve",
        help="run the open-stream service mode for a fixed duration",
        description="Promote the runtime into a service: seeded arrival "
                    "streams feed an admission controller that submits "
                    "applications to the live daemon for --duration "
                    "simulated seconds, then drains gracefully and prints "
                    "the per-tenant SLO ledger.",
    )
    serve.set_defaults(func=_cmd_serve)
    _add_spec_flags(serve, "serve")
    _add_logbook_option(serve)

    audit = sub.add_parser(
        "audit",
        help="audit a saved logbook",
        description="Replay the invariant catalog over a saved run "
                    "('repro audit out/logbook.json').",
    )
    audit.set_defaults(func=_cmd_audit)
    audit.add_argument("target", help="path to a logbook JSON dump")

    tel = sub.add_parser(
        "telemetry",
        help="print the telemetry metric catalog (names, types, buckets)",
    )
    tel.set_defaults(func=_cmd_telemetry)
    tel.add_argument("--json", action="store_true",
                     help="emit the catalog as JSON instead of a table")

    scenario = sub.add_parser(
        "scenario",
        help="validate, list, or run declarative scenario specs",
        description="Scenario documents (.toml/.json) name platform + "
                    "workload + scheduler + faults + admission + telemetry "
                    "+ seeds declaratively; 'run' executes one through the "
                    "one run path (the run/serve flags lower to "
                    "the same spec).",
    )
    scn_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scn_run = scn_sub.add_parser("run", help="execute one scenario document")
    scn_run.set_defaults(func=_cmd_scenario_run)
    scn_run.add_argument("spec", help="path to a .toml/.json scenario document")
    scn_run.add_argument("--trials", type=int, default=None,
                         help="override the spec's trial count")
    scn_run.add_argument("--seed", type=int, default=None,
                         help="override the spec's base seed")
    scn_run.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the trial sweep "
                              "(-1 = all cores; default: $REPRO_JOBS or "
                              "serial)")
    scn_run.add_argument("--audit", action="store_true",
                         help="force the shutdown audit on, overriding the "
                              "spec's [engine] audit flag")
    _add_cache_options(scn_run)
    scn_validate = scn_sub.add_parser(
        "validate", help="validate scenario documents without running them")
    scn_validate.set_defaults(func=_cmd_scenario_validate)
    scn_validate.add_argument("specs", nargs="+",
                              help="scenario document paths")
    scn_list = scn_sub.add_parser(
        "list", help="list scenario documents with digests")
    scn_list.set_defaults(func=_cmd_scenario_list)
    scn_list.add_argument("paths", nargs="*", default=["examples/scenarios"],
                          help="spec files or directories to scan "
                               "(default: examples/scenarios)")

    corpus = sub.add_parser(
        "corpus",
        help="adversarial scenario corpus: generate, parity-run, report, "
             "minimize",
        description="A seeded generator emits random-but-valid scenario "
                    "documents (app mixes, PE pools, arrival processes, "
                    "fault storms); 'run' executes every registered "
                    "scheduler over every spec with the audit armed and "
                    "reports dominance/violation tables; failing "
                    "cells are shrunk by a delta-debugging minimizer into "
                    "counterexample artifacts.",
    )
    cor_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    def _add_generate_options(p) -> None:
        p.add_argument("--n", type=int, default=None,
                       help="corpus size (default: $REPRO_CORPUS_N or 8)")
        p.add_argument("--seed", type=int, default=0,
                       help="corpus seed - with the config, the whole "
                            "identity of the corpus")
        p.add_argument("--kind", choices=("mixed", "run", "serve"),
                       default="mixed",
                       help="restrict generated spec kinds (default mixed)")
        p.add_argument("--platforms", default=None,
                       help="comma-separated platform subset "
                            "(default: all registered)")

    cor_gen = cor_sub.add_parser(
        "generate", help="emit corpus spec documents (JSON)")
    cor_gen.set_defaults(func=_cmd_corpus_generate)
    _add_generate_options(cor_gen)
    cor_gen.add_argument("--out", default=None,
                         help="directory for one .json document per spec "
                              "(default: print digests only)")

    cor_run = cor_sub.add_parser(
        "run", help="run every scheduler over a corpus, audit armed")
    cor_run.set_defaults(func=_cmd_corpus_run)
    _add_generate_options(cor_run)
    cor_run.add_argument("--specs", default=None,
                         help="directory (or file) of scenario documents to "
                              "use instead of generating")
    cor_run.add_argument("--schedulers", default=None,
                         help="comma-separated scheduler subset "
                              "(default: all registered)")
    cor_run.add_argument("--jobs", type=int, default=None,
                         help="worker processes, one corpus cell each "
                              "(-1 = all cores; default: $REPRO_JOBS or "
                              "serial)")
    cor_run.add_argument("--report", default="corpus-report.json",
                         help="machine-readable report path")
    cor_run.add_argument("--artifacts", default="corpus-artifacts",
                         help="directory for minimized counterexamples")
    cor_run.add_argument("--anomaly-factor", type=float, default=5.0,
                         help="flag a scheduler doing this many times worse "
                              "than the cell's best (default 5)")
    cor_run.add_argument("--no-minimize", action="store_true",
                         help="skip counterexample minimization of failing "
                              "cells")
    cor_run.add_argument("--minimize-budget", type=int, default=120,
                         help="max probes per minimized counterexample")

    cor_rep = cor_sub.add_parser(
        "report", help="summarize a saved corpus report")
    cor_rep.set_defaults(func=_cmd_corpus_report)
    cor_rep.add_argument("report", help="path to a corpus-report.json")
    cor_rep.add_argument("--json", action="store_true",
                         help="re-emit the normalized JSON instead of the "
                              "summary table")

    cor_min = cor_sub.add_parser(
        "minimize", help="shrink one failing spec to a counterexample")
    cor_min.set_defaults(func=_cmd_corpus_minimize)
    cor_min.add_argument("spec", help="path to a .toml/.json scenario "
                                      "document that fails under audit")
    cor_min.add_argument("--scheduler", default=None,
                         help="scheduler to fail under (default: the "
                              "spec's own)")
    cor_min.add_argument("--artifacts", default="corpus-artifacts",
                         help="directory for the minimized counterexample")
    cor_min.add_argument("--budget", type=int, default=200,
                         help="max probes (default 200)")

    fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    fig.set_defaults(func=_cmd_figure)
    fig.add_argument("id", choices=available_figures())
    fig.add_argument("--rates", type=int, default=6, help="injection-rate grid points")
    fig.add_argument("--trials", type=int, default=1)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--jobs", type=int, default=None,
                     help="worker processes for the sweep (-1 = all cores; "
                          "default: $REPRO_JOBS or serial)")
    fig.add_argument("--fault-seed", type=int, default=None,
                     help="resilience figure only: pin one fault schedule "
                          "across trials (default: derive from trial seeds)")
    fig.add_argument("--duration", type=float, default=None,
                     help="saturation figure only: service window per cell, "
                          "simulated seconds")
    _add_cache_options(fig)
    fig.add_argument("--audit", action="store_true",
                     help="run every sweep cell with the shutdown audit on "
                          "(part of each cell's config, so audited cells are "
                          "simulated, not read from an unaudited cache); any "
                          "invariant violation fails the figure")
    return parser


def _cmd_list(args) -> int:
    from repro.experiments import available_figures
    from repro.faults import available_fault_kinds
    from repro.serve import available_arrivals
    from repro.workload import available_workloads

    print("platforms  :", ", ".join(available_platforms()))
    print("apps       :", ", ".join(available_apps()))
    print("workloads  :", ", ".join(available_workloads()))
    print("schedulers :", ", ".join(available_schedulers()))
    print("arrivals   :", ", ".join(available_arrivals()))
    print("fault kinds:", ", ".join(available_fault_kinds()))
    print("admission  :", ", ".join(ADMISSION_POLICIES))
    print("figures    :", ", ".join(available_figures()))
    return 0


def _cmd_run(args) -> int:
    from repro.experiments import run_to_completion
    from repro.metrics import RunResult
    from repro.scenario import report_lines

    spec = _lower(args)
    # the finished runtime, not just its RunResult: trace, Gantt, logbook,
    # metrics, perf and energy outputs all read the live object (which is
    # also why this verb does not go through the sweep cache)
    try:
        runtime = run_to_completion(
            spec.build_platform(), spec.build_workload(), spec.mode, spec.rate_mbps,
            spec.seed, spec.build_config(), attribute_host_time=bool(args.perf_json),
        )
    except SampleCapError as exc:
        raise SystemExit(f"repro run {exc}") from None
    print(*report_lines(spec, [RunResult.from_runtime(runtime)]), sep="\n")
    if runtime.config.audit:
        from repro.audit import audit_logbook

        # the run's shutdown fold passed; fold again for what it covered, so
        # "nothing fired" is distinguishable from "nothing ran"
        report = audit_logbook(runtime.logbook)
        print(f"audit     : ok ({report.invariants_checked} invariants over "
              f"{report.tasks} tasks, {report.apps} apps)")
    if args.logbook:
        _save_logbook(runtime.logbook, args.logbook)
    if args.metrics_out:
        from repro.telemetry import write_metrics

        json_path, prom_path = write_metrics(args.metrics_out, runtime.telemetry)
        print(f"metrics   : wrote {json_path} and {prom_path}")
    if args.perf_json:
        import json

        from repro.atomic import atomic_write

        with atomic_write(args.perf_json) as fh:
            json.dump(runtime.counters.snapshot(), fh, indent=2, sort_keys=True)
        print(f"perf json : wrote {args.perf_json}")
    if args.verbose:
        counters = runtime.counters
        print(f"perf      : {runtime.engine.events_processed} engine events in "
              f"{counters.wall_seconds * 1e3:.1f} ms wall "
              f"({counters.events_per_wall_sec:,.0f} events/s)")
    if args.energy:
        from repro.platforms.energy import estimate_energy

        energy = estimate_energy(runtime.platform)
        print(f"energy    : {energy.total_j:.2f} J "
              f"(cpu {energy.cpu_j:.2f} + little {energy.little_j:.2f} + "
              f"accel {energy.accel_j:.2f} + static {energy.static_j:.2f}), "
              f"avg {energy.average_power_w:.2f} W")
    if args.trace:
        from repro.runtime.trace import write_chrome_trace

        path = write_chrome_trace(args.trace, runtime.logbook)
        print(f"trace     : wrote {path} (open in chrome://tracing or Perfetto)")
    if args.gantt:
        from repro.metrics import render_gantt

        print()
        print(render_gantt(runtime.logbook))
    return 0


def _cmd_serve(args) -> int:
    """Run one open-stream service window and print the SLO ledger: the
    trial ``run_scenario(spec, trials=1)`` runs, with the runtime kept."""
    from repro.scenario import report_lines
    from repro.serve import serve_to_completion

    spec = _lower(args)
    driver = serve_to_completion(spec.build_platform(), spec.build_serve(), spec.seed,
                                 spec.build_config())
    print(*report_lines(spec, [driver.result()]), sep="\n")
    if args.logbook:
        _save_logbook(driver.runtime.logbook, args.logbook)
    return 0


def _cmd_telemetry(args) -> int:
    """Print the metric catalog the telemetry subsystem exports."""
    from repro.telemetry import CedrTelemetry

    families = CedrTelemetry().registry.families()
    if args.json:
        import json

        catalog = [
            {
                "name": fam.name,
                "type": fam.kind,
                "labels": list(fam.label_names),
                "help": fam.help,
                **({"buckets": list(fam.bounds)} if fam.bounds is not None else {}),
            }
            for fam in families
        ]
        print(json.dumps(catalog, indent=2))
        return 0
    width = max(len(fam.name) for fam in families)
    for fam in families:
        labels = "{%s}" % ",".join(fam.label_names) if fam.label_names else ""
        print(f"{fam.name:<{width}}  {fam.kind:<9}  {labels:<11}  {fam.help}")
        if fam.bounds is not None:
            bounds = ", ".join(f"{b:g}" for b in fam.bounds)
            print(f"{'':<{width}}  {'':<9}  {'':<11}  buckets: {bounds}, +Inf")
    return 0


def _cmd_audit(args) -> int:
    """Replay the invariant catalog over ``repro audit <logbook.json>``."""
    from repro.audit import audit_logbook
    from repro.runtime import Logbook

    try:
        logbook = Logbook.load(args.target)
    except FileNotFoundError:
        raise SystemExit(f"no logbook at {args.target!r}") from None
    except ValueError as exc:
        raise SystemExit(f"cannot load {args.target!r}: {exc}") from None
    report = audit_logbook(logbook)
    print(report.summary())
    print(f"  task-conservation: checked against {len(logbook.incidents)} incident rows")
    for violation in report.violations:
        print(f"  - {violation}")
    return 0 if report.ok else 1


def _scenario_paths(raw_paths) -> list:
    """Expand spec-file-or-directory arguments into spec files, sorted."""
    from pathlib import Path

    out = []
    for raw in raw_paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(p for p in path.iterdir()
                              if p.suffix.lower() in (".toml", ".json")))
        else:
            out.append(path)
    return out


def _load_spec(path):
    """``load_scenario``, a validation failure ending in a one-line exit."""
    from repro.scenario import ScenarioError, load_scenario

    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise SystemExit(str(exc)) from None


def _report_specs(paths, ok: str, fail: str) -> int:
    """Load each document and print one line for it; 1 if any failed."""
    from repro.scenario import ScenarioError, load_scenario

    rc = 0
    for path in paths:
        try:
            spec = load_scenario(path)
        except ScenarioError as exc:  # every ScenarioError names its document
            print(fail.format(path=path, exc=exc))
            rc = 1
            continue
        line = f"{spec.describe()}  [digest {spec.digest()[:12]}]"
        print(ok.format(path=path, line=line))
    return rc


def _cmd_scenario_validate(args) -> int:
    return _report_specs(args.specs, "ok   {path}: {line}", "FAIL {exc}")


def _cmd_scenario_list(args) -> int:
    paths = _scenario_paths(args.paths)
    if not paths:
        print(f"no scenario documents found under: {', '.join(args.paths)}")
        return 1
    return _report_specs(paths, "{path}: {line}", "{path}: INVALID ({exc})")


def _cmd_scenario_run(args) -> int:
    from repro.experiments import seed_invariant
    from repro.scenario import report_lines, run_scenario

    _check_counts(args, "scenario run")
    spec = _load_spec(args.spec)
    if args.audit:
        spec = dataclasses.replace(spec, audit=True)
    cache = _resolve_cache(args)
    trials = spec.trials if args.trials is None else args.trials
    base_seed = spec.seed if args.seed is None else args.seed
    try:
        results = run_scenario(
            spec, trials=trials, base_seed=base_seed, n_jobs=args.jobs, cache=cache
        )
    except SampleCapError as exc:
        raise SystemExit(f"repro scenario run {exc}") from None
    n = len(results)
    once = n > 1 and spec.kind == "run" and seed_invariant(
        spec.build_workload(), spec.build_config())
    print(f"scenario  : {spec.name} [{spec.kind}]  digest {spec.digest()[:12]}"
          f"  ({args.spec})")
    print(f"trials    : {n} (base seed {base_seed}"
          + (", audited" if spec.audit else "") + ")"
          + ("; the cell cannot read its seed and runs once" if once else ""))
    print(*report_lines(spec, results), sep="\n")
    _print_cache(cache)
    return 0


CORPUS_N_ENV = "REPRO_CORPUS_N"


def _corpus_config(args):
    """Translate the shared generate options into a CorpusConfig."""
    import os

    from repro.corpus import CorpusConfig

    if args.n is not None:
        n = args.n
    else:
        raw = os.environ.get(CORPUS_N_ENV, "").strip()
        try:
            n = int(raw) if raw else 8
        except ValueError:
            raise SystemExit(
                f"{CORPUS_N_ENV} must be an integer corpus size, got {raw!r}"
            ) from None
    platforms = tuple(
        p.strip() for p in (args.platforms or "").split(",") if p.strip()
    )
    run_fraction = {"mixed": 0.7, "run": 1.0, "serve": 0.0}[args.kind]
    try:
        return CorpusConfig(n=n, run_fraction=run_fraction, platforms=platforms)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _corpus_generate(args):
    from repro.corpus import generate_corpus

    config = _corpus_config(args)
    try:
        return generate_corpus(config, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_corpus_generate(args) -> int:
    from pathlib import Path

    _check_counts(args, "corpus generate")
    specs = _corpus_generate(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        line = f"{spec.digest()[:12]}  {spec.describe()}"
        if out_dir is not None:
            path = spec.save(out_dir / f"{spec.name}.json")
            line += f"  -> {path}"
        print(line)
    return 0


def _cmd_corpus_run(args) -> int:
    from repro.corpus import minimize_spec, run_corpus, write_artifacts

    _check_counts(args, "corpus run")
    if args.specs is not None:
        paths = _scenario_paths([args.specs])
        if not paths:
            raise SystemExit(f"no scenario documents under {args.specs}")
        specs, seed = [_load_spec(p) for p in paths], None
    else:
        specs = _corpus_generate(args)
        seed = args.seed
    schedulers = None
    if args.schedulers:
        schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    try:
        report = run_corpus(specs, schedulers, n_jobs=args.jobs,
                            anomaly_factor=args.anomaly_factor, seed=seed)
    except ValueError as exc:  # unknown scheduler, bad $REPRO_JOBS
        raise SystemExit(str(exc)) from None
    path = report.save(args.report)
    print(report.summary())
    print(f"\nreport    : {path}")
    failures = report.failures()
    if failures and not args.no_minimize:
        by_spec = {spec.digest(): spec for spec in specs}
        minimized = set()
        for cell in failures:
            key = (cell.digest, cell.scheduler)
            if key in minimized:
                continue
            minimized.add(key)
            result = minimize_spec(by_spec[cell.digest], scheduler=cell.scheduler,
                                   budget=args.minimize_budget)
            cell_dir = write_artifacts(result, args.artifacts)
            print(f"minimized : {cell.name} x {cell.scheduler} "
                  f"[{result.status} {result.code}] -> {cell_dir}")
    return 1 if failures else 0


def _cmd_corpus_report(args) -> int:
    from repro.corpus import CorpusReport

    try:
        report = CorpusReport.load(args.report)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_corpus_minimize(args) -> int:
    from repro.corpus import minimize_spec, write_artifacts

    try:
        result = minimize_spec(_load_spec(args.spec), scheduler=args.scheduler,
                               budget=args.budget)
    except ValueError as exc:  # spec does not fail
        raise SystemExit(str(exc)) from None
    cell_dir = write_artifacts(result, args.artifacts)
    print(f"failure   : {result.status} {result.code}")
    print(f"shrunk    : {len(result.steps)} step(s), "
          f"{result.evaluations} probe(s)")
    for step in result.steps:
        print(f"  - {step}")
    print(f"artifacts : {cell_dir}")
    print(f"reproduce : python -m repro scenario run {cell_dir / 'minimized.json'}")
    return 0


def _resolve_cache(args):
    """Translate the ``_add_cache_options`` flags into a SweepCache / False / None."""
    from repro.experiments import SweepCache, resolve_cache

    if args.no_cache:
        if args.cache_dir is not None:
            raise SystemExit("--cache-dir conflicts with --no-cache")
        return False
    if args.cache_dir is not None:
        return SweepCache(args.cache_dir)
    if args.cache:
        return SweepCache()
    # no explicit flag: honour $REPRO_CACHE, but pin one handle for the whole
    # command so hit/miss counters aggregate across its nested sweeps
    return resolve_cache(None)


def _print_cache(cache, lead: str = "") -> None:
    """The ``cache :`` line of a command that ran through a sweep cache."""
    if cache:
        print(f"{lead}cache     : {cache.stats.summary()} "
              f"({cache.stats.stores} stored in {cache.root})")


#: the count flags of ``figure`` / ``scenario run`` / ``corpus``: dest ->
#: (passes, what a passing value is); an unset flag (``None``) is not checked
_COUNTS = {
    "trials": CHECKS["at_least_1"],
    "n": CHECKS["at_least_1"],
    "rates": (lambda v: v >= 2, "must be >= 2"),
    "seed": CHECKS["nonnegative"],
    "fault_seed": CHECKS["nonnegative"],
    "jobs": (lambda v: v != 0, "must be >= 1, or <= -1 for every core"),
}


def _check_counts(args, verb: str) -> None:
    """Exit on one line naming the first count flag out of range."""
    for dest, (ok, must) in _COUNTS.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            flag = "--" + dest.replace("_", "-")
            raise SystemExit(f"repro {verb} {flag} {must}, got {value}")


def _cmd_figure(args) -> int:
    from repro.experiments import FIGURES, configure_cache

    _check_counts(args, "figure")
    cache = _resolve_cache(args)
    # pin the handle process-wide so every cell the figure runs goes through
    # it (and its hit/miss counters), then restore on the way out
    previous_cache = configure_cache(cache)
    try:
        code = FIGURES.get(args.id).render(args)
    finally:
        configure_cache(previous_cache)
    _print_cache(cache, "\n")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
