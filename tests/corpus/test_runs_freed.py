"""The `corpus` tier's memory check: no runtime outlives its cell.

Every checked-in smoke-corpus spec runs under every registered scheduler
with the cycle collector off.  A ``CedrRuntime`` still alive after
``run_cell`` returned sits in a reference cycle, and with it the run's
whole record stays resident until a full collection - in a long corpus
sweep, into the next cells.  The check counts objects, so it is
deterministic and needs no RSS threshold.
"""

import gc
from pathlib import Path

import pytest

from repro.corpus.parity import run_cell
from repro.runtime import CedrRuntime
from repro.scenario import load_scenario
from repro.sched import SCHEDULERS

pytestmark = pytest.mark.corpus

SMOKE_DIR = Path(__file__).resolve().parents[2] / "examples" / "corpus"


def _live_runtimes() -> int:
    return sum(isinstance(o, CedrRuntime) for o in gc.get_objects())


@pytest.mark.parametrize("path", sorted(SMOKE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_no_runtime_outlives_its_cell(path):
    spec = load_scenario(path)
    kept = []
    gc.collect()
    gc.disable()
    try:
        for scheduler in SCHEDULERS.names():
            before = _live_runtimes()
            outcome = run_cell(spec, scheduler)
            assert outcome.status == "ok", (scheduler, outcome.code, outcome.message)
            if _live_runtimes() > before:
                kept.append(scheduler)
    finally:
        gc.enable()
    assert not kept, f"{path.stem}: a CedrRuntime outlived the cell under {kept}"
