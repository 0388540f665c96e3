"""A process loads only what its run uses.

A serial, timing-only run needs neither plugin discovery (``importlib.metadata``
and the ``email`` / ``csv`` / ``zipfile`` / ``socket`` it pulls in), nor the
process-pool stack (``concurrent.futures`` -> ``multiprocessing``,
``logging``, ``socket``), nor ``numpy.ma`` (``np.setdiff1d`` / ``np.unique``),
nor ``difflib`` (did-you-mean hints).  Together they were ~4 MiB of every
process's peak RSS.  Each check runs in a fresh interpreter and is compared
with a baseline interpreter that imports only numpy and what the check itself
uses, so a module the environment loads anyway (a ``.pth`` hook, say) cancels
out.
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
PACKAGES = (
    "repro.corpus", "repro.scenario", "repro.runtime", "repro.serve",
    "repro.simcore", "repro.experiments", "repro.audit", "repro.cli",
)


def loaded_heavy(body: str) -> set[str]:
    """The names of ``HEAVY`` in ``sys.modules`` after *body* ran in a fresh
    interpreter that first imported numpy and numpy.random."""
    code = (
        f"import json, sys; sys.path.insert(0, {SRC!r}); import numpy, numpy.random\n"
        f"{body}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
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


def test_data_carriers_are_the_setdiff_plan():
    """``DATA_CARRIERS`` is built without ``np.setdiff1d``; it must stay the
    sorted used bins minus the pilots, as the same int64 array."""
    from repro.kernels.wifi import DATA_CARRIERS, PILOT_CARRIERS, _used

    expected = np.setdiff1d(_used, PILOT_CARRIERS)[:64]
    assert np.array_equal(DATA_CARRIERS, expected)
    assert DATA_CARRIERS.dtype == expected.dtype == np.int64
    assert len(DATA_CARRIERS) == 64
