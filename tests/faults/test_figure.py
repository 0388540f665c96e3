"""Resilience-figure test on a miniature grid."""

import json
from pathlib import Path

from repro.experiments import run_figure

#: the mini-grid panels (``FigureSeries.as_dict()``) the resilience figure
#: produced before figures became table rows
GOLDEN = json.loads(Path(__file__).with_name("golden_resilience_panels.json").read_text())


def as_dicts(panels):
    return {pid: fig.as_dict() for pid, fig in panels.items()}


def test_resilience_driver_mini_grid():
    panels = run_figure(
        "resilience", xs=(0.0, 40.0), trials=1, schedulers=("rr", "eft"),
    )
    assert as_dicts(panels) == GOLDEN["mini"]
    assert set(panels) == {"resilience_exec", "resilience_goodput"}
    for panel in panels.values():
        assert {s.label for s in panel.series} == {"RR", "EFT"}
        for s in panel.series:
            assert s.xs == (0.0, 40.0)
            assert len(s.ys) == 2
    goodput = panels["resilience_goodput"]
    for s in goodput.series:
        assert s.ys[0] == 1.0          # no faults -> every app completes
        assert 0.0 <= s.ys[1] <= 1.0
    exec_panel = panels["resilience_exec"]
    for s in exec_panel.series:
        assert s.ys[0] > 0


def test_resilience_driver_pinned_fault_seed_reproduces():
    a = run_figure("resilience", xs=(30.0,), trials=1,
                   schedulers=("rr",), fault_seed=5)
    b = run_figure("resilience", xs=(30.0,), trials=1,
                   schedulers=("rr",), fault_seed=5)
    assert as_dicts(a) == GOLDEN["pinned"]
    assert a["resilience_exec"].as_dict() == b["resilience_exec"].as_dict()
    assert a["resilience_goodput"].as_dict() == b["resilience_goodput"].as_dict()
