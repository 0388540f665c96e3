"""The six user-path workloads.

Each workload is a pair of plain functions over the public ``repro`` API:

``build(seed, quick)``
    the in-process set-up a user waits through before the first simulated
    event (spec load -> platform build -> runtime construct/``start()`` ->
    workload instantiate/submit), with nothing run.  Timed for ``setup_s``.
``parts(seed, quick)``
    one repetition ("rep") of the fixed input as its separately timed
    parts, each returning a :class:`Rep`: the named simulated statistics
    (for ``sim_digest``), any broken ledger identity, and the units of
    simulated work done.

All are closed-loop with one client - the harness runs one rep at a time;
any open arrival stream is in *simulated* time.  Nothing here uses a pool
(``n_jobs=1``), the sweep cache (``cache=False``) or an ``[engine]`` knob:
the benchmark measures the shipped default engine only.

``--seed`` feeds ``base_seed`` (the engine seed for the soak).  The corpus
is the exception: its eight specs carry their own seeds - at 30-odd
arrivals per cell a different seed is a different amount of work - so there
the seed shuffles the cell order and the work stays fixed.

Modules are reached through their packages (``scenario.load_scenario``, not
a name bound at import) so the tracer's in-memory wrappers are seen here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro import corpus, scenario
from repro.runtime import CedrRuntime
from repro.serve import ArrivalSpec, ServeDriver, arrival_rate
from repro.simcore import Compute, Engine

from digest import Field, cell_fields, run_fields, serve_fields

__all__ = ["Rep", "Workload", "WORKLOADS", "SPEC_DIR", "merge"]

SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: fig10-style pool of the soak: 16 threads pinned round-robin over 4 cores
SOAK_THREADS = 16
SOAK_CORES = 4

#: corpus schedulers: the two no other workload uses
CORPUS_SCHEDULERS = ("eft", "met")


@dataclass
class Rep:
    """What one repetition produced."""

    #: named simulated statistics, hashed into ``sim_digest``
    fields: list[Field]
    #: broken ledger identities; empty when the outputs are correct
    problems: list[str]
    #: simulated work done, in the workload's own unit (see README)
    work_units: float
    #: operations attempted / failed (one per rep; per cell for the corpus)
    ops: int = 1
    failed_ops: int = 0
    #: counts only the results know (``audit.violations``)
    counts: dict[str, float] = field(default_factory=dict)


#: the separately timed parts of one rep: (name, thunk) pairs
Parts = list[tuple[str, Callable[[], Rep]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: what ``Rep.work_units`` counts
    unit: str
    build: Callable[[int, bool], None]
    #: one rep as its timed parts; all but the corpus have a single part
    parts: Callable[[int, bool], Parts]

    def rep(self, seed: int, quick: bool) -> Rep:
        """One whole repetition, untimed (tracing, profiling, repinning)."""
        return merge([(name, part()) for name, part in self.parts(seed, quick)])


def merge(done: list[tuple[str, Rep]]) -> Rep:
    """The parts of one rep as one :class:`Rep`; fields in part-name order,
    so the digest does not depend on the order the parts ran in."""
    done = sorted(done, key=lambda item: item[0])
    counts: dict[str, float] = {}
    for _, rep in done:
        for key, value in rep.counts.items():
            counts[key] = counts.get(key, 0.0) + value
    return Rep(
        fields=[f for _, rep in done for f in rep.fields],
        problems=[p for _, rep in done for p in rep.problems],
        work_units=sum(rep.work_units for _, rep in done),
        ops=sum(rep.ops for _, rep in done),
        failed_ops=sum(rep.failed_ops for _, rep in done),
        counts=counts,
    )


def _single(rep: Callable[[int, bool], Rep]) -> Callable[[int, bool], Parts]:
    return lambda seed, quick: [("rep", lambda: rep(seed, quick))]


# ----------------------------------------------------------------------- #
# soak_engine: the bare event core
# ----------------------------------------------------------------------- #


def _soak_engine(seed: int, quick: bool) -> tuple[Engine, int]:
    events = 96_000 if quick else 1_000_000
    engine = Engine(cores=SOAK_CORES, seed=seed)
    # Requests are immutable value objects: every worker reuses one Compute,
    # so the rep times the event core, not the allocator.
    segment = Compute(1e-6)

    def worker(n: int):
        for _ in range(n):
            yield segment

    for i in range(SOAK_THREADS):
        engine.spawn(
            worker(events // SOAK_THREADS), f"w{i}", affinity=engine.cores[i % SOAK_CORES]
        )
    return engine, events


def _soak_build(seed: int, quick: bool) -> None:
    _soak_engine(seed, quick)


def _soak_rep(seed: int, quick: bool) -> Rep:
    engine, events = _soak_engine(seed, quick)
    final = engine.run()
    problems = []
    if engine.events_processed < events:
        problems.append(f"soak dispatched {engine.events_processed} < {events} events")
    return Rep(
        fields=[("events", int(engine.events_processed)), ("final_time", float(final))],
        problems=problems,
        work_units=engine.events_processed / 1e5,
    )


# ----------------------------------------------------------------------- #
# run-kind scenario workloads: batch_api, batch_dag, faulty_jetson
# ----------------------------------------------------------------------- #


def _load(name: str, quick: bool):
    spec = scenario.load_scenario(SPEC_DIR / f"{name}.toml")
    return spec, (1 if quick else spec.trials)


def _run_build(name: str) -> Callable[[int, bool], None]:
    def build(seed: int, quick: bool) -> None:
        spec, _ = _load(name, quick)
        platform = spec.build_platform()
        config = spec.build_config()
        workload = spec.build_workload()
        runtime = CedrRuntime(platform.build(seed=seed), config)
        runtime.start()
        for app, arrival in workload.instantiate(spec.mode, spec.rate_mbps, seed):
            runtime.submit(app, at=arrival)
        runtime.seal()

    return build


def _run_rep(name: str) -> Callable[[int, bool], Rep]:
    def rep(seed: int, quick: bool) -> Rep:
        spec, trials = _load(name, quick)
        results = scenario.run_scenario(
            spec, trials=trials, base_seed=seed, n_jobs=1, cache=False
        )
        fields: list[Field] = []
        problems = []
        for i, result in enumerate(results):
            fields += run_fields(result, f"trial{i}.")
            if result.tasks_completed <= 0:
                problems.append(f"{name} trial {i}: no task completed")
        if len(results) != trials:
            problems.append(f"{name}: {len(results)} results for {trials} trials")
        return Rep(
            fields=fields,
            problems=problems,
            work_units=sum(r.tasks_completed for r in results) / 1e3,
        )

    return rep


# ----------------------------------------------------------------------- #
# serve_knee: the open-stream service tier just below saturation
# ----------------------------------------------------------------------- #


def _serve_spec(seed: int, quick: bool):
    """The serve_knee spec with its arrival instants drawn from *seed*.

    The spec names the nominal process (Poisson, 60 apps/s for 6 s).  What
    the program is given is that process *conditioned on its count*: exactly
    rate x duration instants, uniform over the window, sorted - so every
    seed offers the same 360 applications in a different random pattern.
    Left unconditioned, the count alone moves work and peak memory by +-5 %
    from seed to seed.
    """
    spec, trials = _load("serve_knee", quick)
    serve = spec.serve
    duration = 0.4 if quick else serve.duration
    count = round(arrival_rate(ArrivalSpec.parse(serve.arrival)) * duration)
    rng = random.Random(seed)
    instants = sorted(rng.uniform(0.0, duration) for _ in range(count))
    trace = "trace:times=" + ";".join(repr(t) for t in instants)
    return replace(spec, serve=replace(serve, duration=duration, arrival=trace)), trials


def _serve_build(seed: int, quick: bool) -> None:
    spec, _ = _serve_spec(seed, quick)
    platform = spec.build_platform()
    config = spec.build_config()
    serve = spec.build_serve()
    runtime = CedrRuntime(platform.build(seed=seed), config)
    runtime.start()
    ServeDriver(runtime, serve, seed).arm()


def _serve_rep(seed: int, quick: bool) -> Rep:
    spec, trials = _serve_spec(seed, quick)
    results = scenario.run_scenario(
        spec, trials=trials, base_seed=seed, n_jobs=1, cache=False
    )
    fields: list[Field] = []
    problems = []
    for i, result in enumerate(results):
        fields += serve_fields(result, f"trial{i}.")
        if result.offered != result.admitted + result.shed:
            problems.append(
                f"serve trial {i}: offered {result.offered} != "
                f"admitted {result.admitted} + shed {result.shed}"
            )
        if result.completed > result.admitted:
            problems.append(
                f"serve trial {i}: completed {result.completed} > admitted {result.admitted}"
            )
        if result.completed <= 0:
            problems.append(f"serve trial {i}: nothing completed")
    return Rep(
        fields=fields,
        problems=problems,
        work_units=sum(r.run.tasks_completed for r in results) / 1e3,
    )


# ----------------------------------------------------------------------- #
# corpus_sweep: the breadth guard
# ----------------------------------------------------------------------- #


def _corpus_specs(seed: int, quick: bool) -> list:
    paths = sorted((SPEC_DIR / "corpus").glob("*.json"))
    if quick:
        paths = paths[3:6]  # the three cheapest run-kind specs
    specs = [scenario.load_scenario(path) for path in paths]
    random.Random(seed).shuffle(specs)
    return specs


def _corpus_build(seed: int, quick: bool) -> None:
    for spec in _corpus_specs(seed, quick):
        spec.build_platform()
        spec.build_config()
        if spec.kind == "serve":
            spec.build_serve()
        else:
            spec.build_workload()


def _corpus_spec_rep(spec) -> Rep:
    """One spec under both schedulers: two cells, two operations."""
    report = corpus.run_corpus([spec], CORPUS_SCHEDULERS, n_jobs=1)
    cells = sorted(report.cells, key=lambda c: c.scheduler)
    fields: list[Field] = []
    problems = []
    for cell in cells:
        fields += cell_fields(cell, f"{cell.name}.{cell.scheduler}.")
        if cell.status != "ok":
            problems.append(
                f"corpus cell {cell.name}/{cell.scheduler}: {cell.status} {cell.code}"
            )
    if len(cells) != len(CORPUS_SCHEDULERS):
        problems.append(f"corpus ran {len(cells)} cells of {spec.name}")
    return Rep(
        fields=fields,
        problems=problems,
        work_units=float(len(cells)),
        ops=max(1, len(cells)),
        failed_ops=sum(1 for c in cells if c.status != "ok"),
        counts={
            "audit.violations": float(sum(1 for c in cells if c.status == "violation"))
        },
    )


def _corpus_parts(seed: int, quick: bool) -> Parts:
    # one part per spec: a sweep is seconds long, and timing it spec by
    # spec gives every spec its own series of samples across sweeps
    return [
        (spec.name, lambda spec=spec: _corpus_spec_rep(spec))
        for spec in _corpus_specs(seed, quick)
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "soak_engine",
            "bare Engine, 16 pinned threads of reused Compute(1e-6): simcore does all the "
            "work, every other layer none - the floor and the bypass workload",
            "100k engine events",
            _soak_build,
            _single(_soak_rep),
        ),
        Workload(
            "batch_api",
            "Fig. 5 cell as repro run executes it (radar-comms, rr, API mode): ready depth 1, "
            "one scheduling round and one condvar hop per kernel call - per-call overheads",
            "1000 completed tasks",
            _run_build("batch_api"),
            _single(_run_rep("batch_api")),
        ),
        Workload(
            "batch_dag",
            "the same cell in DAG mode under etf: 18 rounds at depth ~300 through the batched "
            "columnar kernels plus DAG build - the paper's DAG-vs-API comparison",
            "1000 completed tasks",
            _run_build("batch_dag"),
            _single(_run_rep("batch_dag")),
        ),
        Workload(
            "serve_knee",
            "6 simulated seconds of Poisson 60 apps/s just below the 64/s knee, shed "
            "admission, heft_rt: serve, app-instance construction and daemon round in the loop",
            "1000 completed tasks",
            _serve_build,
            _single(_serve_rep),
        ),
        Workload(
            "faulty_jetson",
            "Jetson, etf, 200 faults/s/PE with retries and telemetry sampled every 10 ms: "
            "the only workload with faults, watchdogs and telemetry on the path",
            "1000 completed tasks",
            _run_build("faulty_jetson"),
            _single(_run_rep("faulty_jetson")),
        ),
        Workload(
            "corpus_sweep",
            "eight smoke-corpus specs x eft, met through run_corpus with the auditor armed: "
            "breadth guard for audit and rarely-taken admission and arrival paths",
            "corpus cell",
            _corpus_build,
            _corpus_parts,
        ),
    )
}
