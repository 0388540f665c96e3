"""A process loads only what its run uses.

A serial, timing-only run needs neither plugin discovery (``importlib.metadata``
and the ``email`` / ``csv`` / ``zipfile`` / ``socket`` it pulls in), nor the
process-pool stack (``concurrent.futures`` -> ``multiprocessing``,
``logging``, ``socket``), nor ``numpy.ma`` (``np.setdiff1d`` / ``np.unique``),
nor ``difflib`` (did-you-mean hints).  Together they were ~4 MiB of every
process's peak RSS.  A run that draws no random number builds no random
stream, so it loads neither ``numpy.random`` nor the ``secrets`` -> ``hmac``
-> OpenSSL ``_hashlib`` stack that imports (~5 MiB more).  Nor does it compile
``repro``'s own off-path modules: the applications, kernels, schedulers'
neighbours and subsystems a timing-only PD/TX batch never calls (the
package roots declare their surface lazily, the app and figure registries
hold ``module:attr`` refs).  Each check runs in
a fresh interpreter and is compared with a baseline interpreter that imports
only numpy and what the check itself uses, so a module the environment loads
anyway (a ``.pth`` hook, say) cancels out.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

SRC = str(Path(repro.__file__).parents[1])
ROOT = Path(SRC).parent
HEAVY = (
    "numpy.ma", "importlib.metadata", "email", "concurrent.futures",
    "multiprocessing", "logging", "socket", "difflib",
)
#: the random and hashing stack: ``numpy.random`` imports ``secrets``
RANDOM = ("numpy.random", "secrets", "hmac", "_hashlib")
PACKAGES = (
    "repro.corpus", "repro.scenario", "repro.runtime", "repro.serve",
    "repro.simcore", "repro.experiments", "repro.audit", "repro.cli",
)


def loaded_heavy(body: str, names: tuple[str, ...] = HEAVY) -> set[str]:
    """The *names* in ``sys.modules`` after *body* ran in a fresh interpreter
    that first imported numpy."""
    code = (
        f"import json, sys; sys.path.insert(0, {SRC!r}); import numpy\n"
        f"{body}\n"
        f"print(json.dumps([m for m in {names!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT
    )
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_serial_runs_load_no_pool_discovery_or_masked_arrays():
    baseline = loaded_heavy("pass")
    run = loaded_heavy(
        f"import {', '.join(PACKAGES)}\n"
        "from repro.scenario import run_scenario\n"
        "batch = run_scenario('examples/scenarios/fig5_cell_zcu102.toml',"
        " trials=1, n_jobs=1, cache=False)\n"
        "serve = run_scenario('examples/scenarios/serve_poisson.toml',"
        " trials=1, n_jobs=1, cache=False)\n"
        "assert batch[0].n_apps == 10 and serve[0].completed > 0"
    )
    assert run - baseline == set()


#: a timing-only serve cell whose arrivals never draw: ``{arrival}`` is filled in
SEED_FREE_SERVE = (
    "spec = ScenarioSpec.from_mapping({{'scenario': {{'name': 'seed-free', 'kind': 'serve'}},"
    " 'platform': {{'name': 'zcu102'}}, 'serve': {{'duration': 0.1,"
    " 'arrival': {arrival!r}, 'apps': 'PD:1,TX:1'}}}})\n"
    "served = run_scenario(spec, trials=1, n_jobs=1, cache=False)\n"
    "assert served[0].completed > 0\n"
)


def test_runs_that_draw_nothing_load_no_random_stack():
    """A timing-only periodic batch cell and timing-only serve cells with
    ``periodic`` / ``trace:`` arrivals build no random stream: none of them
    (nor importing every package) loads ``numpy.random`` or ``_hashlib``."""
    baseline = loaded_heavy("pass", RANDOM)
    run = loaded_heavy(
        f"import {', '.join(PACKAGES)}\n"
        "from repro.scenario import ScenarioSpec, run_scenario\n"
        "batch = run_scenario('examples/scenarios/fig5_cell_zcu102.toml',"
        " trials=1, n_jobs=1, cache=False)\n"
        "assert batch[0].n_apps == 10\n"
        + SEED_FREE_SERVE.format(arrival="periodic:rate=100")
        + SEED_FREE_SERVE.format(arrival="trace:times=0.01;0.02;0.05,loop=0.06"),
        RANDOM,
    )
    assert run - baseline == set()


def test_a_run_that_draws_still_loads_the_random_stack():
    """The positive control: a Poisson serve cell draws its arrivals, so the
    guard above is not vacuous."""
    run = loaded_heavy(
        "from repro.scenario import run_scenario\n"
        "serve = run_scenario('examples/scenarios/serve_poisson.toml',"
        " trials=1, n_jobs=1, cache=False)\n"
        "assert serve[0].completed > 0",
        RANDOM,
    )
    assert "numpy.random" in run


def test_data_carriers_are_the_setdiff_plan():
    """``DATA_CARRIERS`` is built without ``np.setdiff1d``; it must stay the
    sorted used bins minus the pilots, as the same int64 array."""
    from repro.kernels.wifi import DATA_CARRIERS, PILOT_CARRIERS, _used

    expected = np.setdiff1d(_used, PILOT_CARRIERS)[:64]
    assert np.array_equal(DATA_CARRIERS, expected)
    assert DATA_CARRIERS.dtype == expected.dtype == np.int64
    assert len(DATA_CARRIERS) == 64


#: repro's own modules a timing-only PD/TX batch never calls into
OFF_PATH = tuple(f"repro.{m}" for m in (
    "apps.lane_detection", "apps.wifi_rx", "apps.temporal_mitigation", "kernels.vision",
    "telemetry.registry", "telemetry.runtime_metrics", "telemetry.exporters",
    "faults.inject", "serve.driver", "experiments.figures", "dag.collapse", "dag.io",
    "metrics.gantt", "runtime.trace", "platforms.energy", "core.standalone", "core.modules",
))


def cli_loads(*argv: str) -> set[str]:
    """The :data:`OFF_PATH` modules loaded after ``repro.cli.main(argv)``
    (after ``import repro.cli`` alone when *argv* is empty)."""
    call = f"assert repro.cli.main({list(argv)!r}) == 0" if argv else ""
    return loaded_heavy(f"import repro.cli\n{call}", OFF_PATH)


def test_cli_and_a_timing_only_batch_compile_no_off_path_module():
    """``import repro.cli`` and the benchmark's ``batch_api`` cell as ``repro
    run`` executes it load none of the off-path modules."""
    assert cli_loads() == set()
    assert cli_loads("run", "--apps", "PD:5,TX:5", "--mode", "api", "--scheduler", "rr",
                     "--rate", "200", "--timing-only") == set()


def test_commands_load_the_modules_they_use(tmp_path):
    """The positive controls: telemetry, faults, serve and a figure each load
    their own off-path modules, so the guard above is not vacuous."""
    base = ("run", "--apps", "PD:1,TX:1", "--timing-only")
    metrics = cli_loads(*base, "--metrics-out", str(tmp_path / "m"))
    assert {"repro.telemetry.registry", "repro.telemetry.runtime_metrics",
            "repro.telemetry.exporters"} <= metrics
    assert "repro.faults.inject" in cli_loads(*base, "--fault-rate", "200")
    assert "repro.serve.driver" in cli_loads("serve", "--duration", "0.05")
    assert "repro.experiments.figures" in cli_loads("figure", "fig5", "--rates", "2",
                                                   "--no-cache")
