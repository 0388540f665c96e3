"""Seed-invariant trials: a batch cell that cannot read its seed runs once.

``run_cells`` simulates each group of :func:`seed_invariant` cells that
differ only in their seed once, at the lowest seed, and hands every trial
slot its own copy.  These tests hold what makes that safe:

* the cells the predicate admits give bit-identical results at every seed
  (an oracle that simulates them, so a seed consumer the predicate misses
  fails here);
* the cells it refuses still simulate every trial;
* the places a seed can enter a run are the ones the predicate names (a
  structural pin over ``src/repro``);
* caching, the process pool and the per-slot copies behave as one
  simulation per trial would.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

import repro.experiments.common as common
from repro.apps import PulseDoppler
from repro.experiments import SweepCache, cell_digest, run_cells, run_once, seed_invariant
from repro.experiments import figures
from repro.faults import FaultConfig
from repro.metrics import diff_results
from repro.platforms import zcu102
from repro.runtime import RuntimeConfig
from repro.scenario import load_scenario
from repro.telemetry import TelemetryConfig
from repro.workload import WorkloadEntry, WorkloadSpec

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (0, 1000, 2000)


def _figure_cell(fig, group, key, x, fault_seed=None) -> tuple:
    opts = {"fault_seed": fault_seed, "duration": figures.SATURATION_DURATION}
    return figures._TABLE[fig].cell(group, key, x, 0, opts)


def _spec_cell(path: Path) -> tuple:
    spec = load_scenario(path)
    return (spec.build_platform(), spec.build_workload(), spec.mode, spec.rate_mbps,
            spec.scheduler, 0, spec.execute, spec.build_config())


#: shared, as a sweep shares its workload: applications compare by identity
SMALL = WorkloadSpec(name="seed-test", entries=(WorkloadEntry(PulseDoppler(batch=2), 2),))


def _small_cell(**overrides) -> tuple:
    """Two small PulseDoppler instances on a small ZCU102: a cell that runs in ms."""
    parts = {
        "platform": zcu102(n_cpu=2, n_fft=1),
        "workload": SMALL,
        "mode": "api", "rate": 200.0, "scheduler": "rr", "seed": 0,
        "execute": False, "config": None,
    }
    parts.update(overrides)
    return tuple(parts.values())


def _trials(cell: tuple, seeds=SEEDS) -> list[tuple]:
    return [cell[:5] + (seed,) + cell[6:] for seed in seeds]


def _invariant(cell: tuple) -> bool:
    return seed_invariant(cell[1], cell[6], cell[7])


# --------------------------------------------------------------------- #
# the oracle: what the predicate admits really ignores the seed
# --------------------------------------------------------------------- #

ORACLE = {
    "fig5-api": lambda: _figure_cell("fig5", None, "api", 200.0),
    "fig5-dag": lambda: _figure_cell("fig5", None, "dag", 200.0),
    "fig67-dag-etf": lambda: _figure_cell("fig67", "dag", "etf", 200.0),
    "fig9-zcu-8fft-eft": lambda: _figure_cell("fig9", figures._ZCU_8FFT, "eft", 200.0),
    "fig10b-rr": lambda: _figure_cell("fig10b", None, "rr", 3),
    "faulty_jetson": lambda: _spec_cell(ROOT / "benchmarks/e2e/specs/faulty_jetson.toml"),
    "resilience-fault-seed": lambda: _figure_cell("resilience", None, "etf", 20.0,
                                                  fault_seed=3),
}


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_admitted_cell_is_bit_identical_at_every_seed(name):
    platform, workload, mode, rate, scheduler, _, execute, config = ORACLE[name]()
    assert seed_invariant(workload, execute, config)
    first, *rest = (
        run_once(platform, workload, mode, rate, scheduler,
                 seed=seed, execute=execute, config=config)
        for seed in SEEDS
    )
    for seed, result in zip(SEEDS[1:], rest):
        assert diff_results(first, result) == [], f"{name} drifts at seed {seed}"


# --------------------------------------------------------------------- #
# which cells simulate once, and which every trial
# --------------------------------------------------------------------- #


@pytest.fixture
def simulated(monkeypatch):
    """The seeds ``_run_cell`` simulates at; each result is a fresh dict."""
    seeds = []

    def fake(platform, workload, mode, rate, scheduler, seed=0, execute=False,
             config=None):
        seeds.append(seed)
        return {"seed": seed}

    monkeypatch.setattr(common, "run_once", fake)
    return seeds


REFUSED = {
    "poisson": lambda: _small_cell(workload=dataclasses.replace(
        SMALL, arrival_process="poisson")),
    "cost-noise": lambda: _small_cell(config=RuntimeConfig(cost_noise_sigma=0.1)),
    "unpinned-faults": lambda: _small_cell(
        config=RuntimeConfig(faults=FaultConfig(rate=10.0))),
    "execute": lambda: _small_cell(execute=True),
    "resilience-no-fault-seed": lambda: _figure_cell("resilience", None, "etf", 20.0),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_cell_simulates_every_trial(name, simulated):
    cell = REFUSED[name]()
    assert not _invariant(cell)
    results = run_cells(_trials(cell), cache=False)
    assert simulated == list(SEEDS)
    assert [r["seed"] for r in results] == list(SEEDS)


@pytest.mark.parametrize("config", [
    None,
    RuntimeConfig(faults=FaultConfig(rate=10.0, seed=5)),
    RuntimeConfig(faults=FaultConfig(rate=0.0)),
], ids=["plain", "pinned-faults", "zero-rate-faults"])
def test_admitted_cell_simulates_once_at_its_lowest_seed(config, simulated):
    cells = _trials(_small_cell(config=config), (2000, 0, 1000))
    results = run_cells(cells, cache=False)
    assert simulated == [0]
    assert results == [{"seed": 0}] * 3
    assert len({id(r) for r in results}) == 3


def test_trace_arrivals_are_seed_free(simulated):
    workload = dataclasses.replace(
        SMALL, arrival_process="trace",
        arrival_params=(("times", "0.0;0.01"),))
    run_cells(_trials(_small_cell(workload=workload)), cache=False)
    assert simulated == [0]


def test_only_cells_equal_but_for_the_seed_share_a_simulation(simulated):
    """Equal platforms built apart merge (fig10 builds one per cell); a
    different rate or platform does not."""
    cells = (
        _trials(_small_cell(), (0, 1000))
        + _trials(_small_cell(platform=zcu102(n_cpu=2, n_fft=1)), (2000,))
        + _trials(_small_cell(rate=100.0), (0, 1000))
        + _trials(_small_cell(platform=zcu102(n_cpu=3, n_fft=1)), (0, 1000))
    )
    results = run_cells(cells, cache=False)
    assert simulated == [0, 0, 0]
    assert [r["seed"] for r in results] == [0] * 7


def test_other_workers_are_never_collapsed():
    """Serve cells draw a per-app stream from their seed: every slot runs."""
    seen = []
    cells = _trials(_small_cell())
    run_cells(cells, cache=False, worker=seen.append)
    assert seen == cells


# --------------------------------------------------------------------- #
# cache, pool and per-slot copies, on real runs
# --------------------------------------------------------------------- #


@pytest.fixture
def counted(monkeypatch):
    """Seeds really simulated at, in order."""
    seeds = []
    real = common.run_once

    def counting(*args, seed=0, **kwargs):
        seeds.append(seed)
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(common, "run_once", counting)
    return seeds


def test_collapsed_sweep_stores_every_trial_and_reruns_warm(tmp_path, counted):
    cells = _trials(_small_cell())
    cache = SweepCache(tmp_path)
    cold = run_cells(cells, cache=cache)
    assert counted == [0]
    assert (cache.stats.misses, cache.stats.stores) == (3, 3)
    assert all((tmp_path / f"{cell_digest(c)[0]}.json").exists() for c in cells)
    warm_cache = SweepCache(tmp_path)
    assert run_cells(cells, cache=warm_cache) == cold
    assert counted == [0]
    assert (warm_cache.stats.hits, warm_cache.stats.misses) == (3, 0)


def test_pool_gets_only_the_unique_cells_and_equals_serial(monkeypatch):
    handed = []
    real = common._simulate_cells

    def recording(cells, n_jobs, worker):
        handed.append(len(cells))
        return real(cells, n_jobs, worker)

    monkeypatch.setattr(common, "_simulate_cells", recording)
    poisson = dataclasses.replace(SMALL, arrival_process="poisson")
    cells = _trials(_small_cell()) + _trials(_small_cell(workload=poisson), (0, 1000))
    serial = run_cells(cells, n_jobs=1, cache=False)
    pooled = run_cells(cells, n_jobs=2, cache=False)
    assert handed == [3, 3]
    assert pooled == serial
    assert repr(pooled) == repr(serial)


def test_slots_of_one_collapsed_cell_do_not_alias(counted):
    config = RuntimeConfig(telemetry=TelemetryConfig())
    results = run_cells(_trials(_small_cell(config=config)), cache=False)
    assert counted == [0]
    assert results[0].telemetry is not None
    before = copy.deepcopy(results[0])
    results[1].telemetry["extra"] = 1
    results[1].pe_task_histogram["cpu0"] = -1
    results[2].exec_times_by_app.clear()
    assert results[0] == before
    assert diff_results(results[0], results[1]) == ["pe_task_histogram", "telemetry"]


def test_collapsed_telemetry_slots_are_bit_equal_and_independent(counted):
    """Four trials of a faulty Jetson cell with sampled telemetry and a
    pinned fault seed: one simulation, every other slot its own unpickled
    copy, equal to the float bit (``repr``) and sharing no dict."""
    cell = _spec_cell(ROOT / "examples/scenarios/jetson_faults.toml")
    assert cell[7].telemetry == TelemetryConfig(0.01) and cell[7].faults.seed is not None
    cells = _trials(cell, (0, 1000, 2000, 3000))
    results = run_cells(cells, n_jobs=1, cache=False)
    assert counted == [0]
    assert len(results[0].telemetry["samples"]) > 1
    assert all(r == results[0] and repr(r) == repr(results[0]) for r in results[1:])
    assert len({id(r.telemetry["samples"][0]["values"]) for r in results}) == 4
    before = [copy.deepcopy(r) for r in results]
    results[1].telemetry["samples"][0]["values"]["cedr_sched_rounds"] = -1.0
    assert [r == b for r, b in zip(results, before)] == [True, False, True, True]
    pooled = run_cells(cells, n_jobs=2, cache=False)
    assert pooled == before and repr(pooled) == repr(before)


# --------------------------------------------------------------------- #
# the structural pin: every place a seed can enter a run
# --------------------------------------------------------------------- #

#: (``child_rng`` call or ``.seed`` read, module, enclosing function) ->
#: count, over src/repro.  A trial seed reaches a simulation through the
#: workload, cost-noise, fault and serve rows only; the rest read spec, CLI
#: or corpus seeds.  ``repro.experiments.common.seed_invariant`` covers the
#: batch ones.
SEED_READERS = {
    ("child_rng", "corpus/generator.py", "_axis_rng"): 1,
    ("child_rng", "faults/model.py", "fault_stream"): 1,
    ("child_rng", "runtime/daemon.py", "CedrRuntime.__init__"): 1,
    ("child_rng", "serve/driver.py", "ServeDriver.__init__"): 2,
    ("child_rng", "workload/workload.py", "WorkloadSpec.instantiate"): 2,
    (".seed", "cli.py", "_cmd_corpus_run"): 1,
    (".seed", "cli.py", "_cmd_run"): 1,
    (".seed", "cli.py", "_cmd_scenario_run"): 3,
    (".seed", "cli.py", "_cmd_serve"): 1,
    (".seed", "cli.py", "_corpus_generate"): 1,
    (".seed", "corpus/parity.py", "CorpusReport.to_json_dict"): 1,
    (".seed", "experiments/common.py", "seed_invariant"): 1,
    (".seed", "experiments/figures.py", "_render"): 2,
    (".seed", "faults/inject.py", "FaultInjector.arm"): 1,
    (".seed", "faults/model.py", "FaultConfig.__post_init__"): 3,
    (".seed", "faults/model.py", "fault_stream"): 2,
    (".seed", "runtime/daemon.py", "CedrRuntime.__init__"): 1,
    (".seed", "scenario/runner.py", "run_scenario"): 1,
}


class _Readers(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module, self.scope, self.found = module, [], Counter()

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node) -> None:
        if getattr(node.func, "id", None) == "child_rng":
            self.found["child_rng", self.module, ".".join(self.scope)] += 1
        self.generic_visit(node)

    def visit_Attribute(self, node) -> None:
        if node.attr == "seed" and isinstance(node.ctx, ast.Load):
            self.found[".seed", self.module, ".".join(self.scope)] += 1
        self.generic_visit(node)


def test_seed_readers_are_the_pinned_ones():
    src = ROOT / "src" / "repro"
    found = Counter()
    for path in sorted(src.rglob("*.py")):
        visitor = _Readers(path.relative_to(src).as_posix())
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert dict(found) == SEED_READERS, (
        "a child_rng stream or a .seed read was added, moved or removed. If a "
        "simulation can now read its seed, make repro.experiments.common."
        "seed_invariant refuse the cells it reaches (and docs/INTERNALS.md "
        "'Determinism' list it), then update SEED_READERS"
    )
