"""The deletion stays deleted: one estimate lane, one table shape, no selector.

A scheduling round used to be priced three ways - a single-task scalar
lane, a batched NumPy lane over an ndarray mirror of the cost table, and a
plain-callable path kept alive by ``RuntimeConfig.scalar_estimates`` so the
oracle's ``scalar`` variant could prove the copies agreed.  These checks
fail the moment a second lane, the mirror or a selector creeps back in.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.sched
import repro.sched.base
from repro.audit import DEFAULT_VARIANTS
from repro.cli import main
from repro.platforms import CostTable
from repro.runtime import RuntimeConfig

SCHED = Path(repro.sched.__file__).parent
#: ``random`` keeps NumPy for its seeded generator, not for estimates
LANE_MODULES = ("base", "rr", "eft", "etf", "met", "heft_rt")


@pytest.mark.parametrize("module", LANE_MODULES)
def test_heuristics_import_no_numpy(module):
    tree = ast.parse((SCHED / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


def test_batched_lane_helpers_are_gone():
    for name in (
        "candidate_mask",
        "estimate_matrix",
        "round_matrices",
        "free_vector",
        "single_task_lane",
        "earliest_finish_one",
    ):
        assert not hasattr(repro.sched.base, name), name
    assert not hasattr(repro.sched.base.Scheduler, "compatible")


def test_cost_table_keeps_no_array_mirror():
    for name in (
        "rows_for",
        "estimate_rows",
        "support_rows",
        "support_row",
        "support_cells",
        "mean_estimate",
    ):
        assert not hasattr(CostTable, name), name


def test_no_estimate_path_selector():
    names = {f.name for f in dataclasses.fields(RuntimeConfig)}
    assert "scalar_estimates" not in names
    assert "scalar" not in DEFAULT_VARIANTS
    assert len(DEFAULT_VARIANTS) == 3


@pytest.mark.parametrize("extra", ([], ["--serve"]), ids=("run", "serve"))
def test_cli_rejects_the_scalar_variant(extra):
    with pytest.raises(SystemExit) as err:
        main(["audit", "diff", "--variants", "scalar", *extra])
    assert "unknown variant(s) ['scalar']" in str(err.value)
