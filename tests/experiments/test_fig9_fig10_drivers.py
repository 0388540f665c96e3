"""Small-grid tests of the fig9/fig10 table rows (bench-independent coverage)."""

import json
from pathlib import Path

from repro.experiments import run_figure
from repro.workload import av_workload_scaled

#: the mini-grid panels (``FigureSeries.as_dict()``) each figure produced
#: before figures became table rows
GOLDEN = json.loads(Path(__file__).with_name("golden_figure_panels.json").read_text())


def as_dicts(panels):
    return {pid: fig.as_dict() for pid, fig in panels.items()}


def test_av_workload_scaled_composition():
    wl = av_workload_scaled(ld_batch=64, app_batch=8)
    assert sum(e.count for e in wl.entries) == 11
    by_name = {e.app.name: e for e in wl.entries}
    assert by_name["LD"].app.batch == 64
    assert by_name["PD"].app.batch == 8
    assert by_name["TX"].app.batch == 8


def test_fig9_driver_mini_grid():
    panels = run_figure("fig9", xs=[100.0, 600.0], trials=1, schedulers=("rr", "heft_rt"))
    assert as_dicts(panels) == GOLDEN["fig9"]
    assert set(panels) == {"fig9a", "fig9b"}
    for panel in panels.values():
        assert {s.label for s in panel.series} == {"RR", "HEFT_RT"}
        for s in panel.series:
            assert len(s.xs) == 2
            assert all(y > 0 for y in s.ys)
    # the platform gap: Jetson clearly below the ZCU102 at the high rate
    zcu = panels["fig9a"].get("HEFT_RT").ys[-1]
    jet = panels["fig9b"].get("HEFT_RT").ys[-1]
    assert jet < zcu


def test_fig10a_driver_mini_grid():
    panels = run_figure("fig10a", xs=[0, 8], trials=1, schedulers=("rr",))
    assert as_dicts(panels) == GOLDEN["fig10a"]
    series = panels["fig10a"].get("RR")
    assert series.xs == (0.0, 8.0)
    assert series.ys[1] > series.ys[0]  # more FFTs, worse exec time


def test_fig10b_driver_mini_grid():
    panels = run_figure("fig10b", xs=[1, 5, 7], trials=1, schedulers=("rr",))
    assert as_dicts(panels) == GOLDEN["fig10b"]
    series = panels["fig10b"].get("RR")
    assert series.y_at(5.0) < series.y_at(1.0)
    assert series.y_at(5.0) < series.y_at(7.0)
