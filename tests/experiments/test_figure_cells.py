"""Every figure's cells are pinned: what ``repro figure <id>`` hands ``run_cells``.

``golden_figure_cells.json`` holds, per figure, the ``cell_digest`` of each
cell ``repro figure <id> --rates 3 --trials 2`` (fig9 at ``--rates 6``)
built when every figure still had its own driver module.  The pins moved
once since, by transform only, when a cell became ``(platform, workload,
mode, rate, seed, config)``: each old cell's scheduler and kernel
execution were folded into its config (a ``config=None`` cell took the
config its row now builds), ``ServeConfig`` lost its scheduler and
``TimingModel`` its unread ``noise_sigma``, and the new rows had to hand
exactly the transformed cells.  A digest is the sweep-cache key, so this
pins every cached result of every figure without simulating anything:
``run_cells`` is replaced by a recorder that answers each cell with a stub
result the reducers can read.
"""

import json
import re
from pathlib import Path

import pytest

import repro.experiments.figures as figures
from repro.cli import main
from repro.experiments import available_figures, cell_digest
from repro.scenario import load_scenario

GOLDEN = json.loads(Path(__file__).with_name("golden_figure_cells.json").read_text())


class _Stub:
    """Stands in for every trial result: each reducer reads one of these."""

    mean_exec_time = runtime_overhead_per_app = sched_overhead_per_app = 1.0
    makespan = ready_depth_mean = goodput = throughput = p99_response_s = 1.0


@pytest.fixture
def handed(monkeypatch):
    """The cells the figure hands ``run_cells``, in the order it hands them."""
    cells = []

    def record(batch, n_jobs=None, cache=None, **_):
        cells.extend(batch)
        return [_Stub() for _ in batch]

    monkeypatch.setattr(figures, "run_cells", record)
    return cells


def test_every_figure_has_pinned_cells():
    assert sorted(GOLDEN) == sorted(available_figures())


@pytest.mark.parametrize("fid", sorted(GOLDEN))
def test_figure_cell_digests_unchanged(fid, handed, capsys):
    rates = "6" if fid == "fig9" else "3"
    assert main(["figure", fid, "--rates", rates, "--trials", "2", "--no-cache"]) == 0
    digests = [cell_digest(cell)[0] for cell in handed]
    # compared as multisets: the fig10 drivers built their cells x-major and
    # the table builds every figure series-major, and the order of cells in
    # one run_cells call reaches neither a cache key nor an output
    assert sorted(digests) == sorted(GOLDEN[fid])


def test_fig9_honours_rates(handed, capsys):
    assert main(["figure", "fig9", "--rates", "2", "--trials", "1", "--no-cache"]) == 0
    panels = capsys.readouterr().out.split("== ")[1:]
    assert [p.split(":")[0] for p in panels] == ["fig9a", "fig9b"]
    for panel in panels:
        rows = [ln for ln in panel.splitlines() if re.match(r"\s+\d+\.\d \|", ln)]
        assert len(rows) == 2, panel


def test_a_scenario_spelling_a_figure_cell_shares_its_key():
    """Figure cells carry their resolved config, as spec-built cells do, so
    the fig5 cell document and the fig5 row's cell are one cache entry."""
    spec = load_scenario(Path(__file__).parents[2] / "examples/scenarios/fig5_cell_zcu102.toml")
    opts = {"fault_seed": None, "audit": False, "duration": None}
    figure_cell = figures._TABLE["fig5"].cell(None, spec.mode, spec.rate_mbps, spec.seed, opts)
    spec_cell = (spec.build_platform(), spec.build_workload(), spec.mode, spec.rate_mbps,
                 spec.seed, spec.build_config())
    assert cell_digest(spec_cell) == cell_digest(figure_cell)
