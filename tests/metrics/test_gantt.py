"""ASCII Gantt renderer tests."""

import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.metrics import render_gantt
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec


@pytest.fixture(scope="module")
def runtime():
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=2)
    rt = CedrRuntime(platform, RuntimeConfig(scheduler="rr", execute_kernels=False))
    rt.start()
    wl = WorkloadSpec("g", (WorkloadEntry(PulseDoppler(batch=8), 2),
                            WorkloadEntry(WifiTx(batch=10), 2)))
    for app, arrival in wl.instantiate("api", 300.0, seed=2):
        rt.submit(app, at=arrival)
    rt.seal()
    rt.run()
    return rt


def test_gantt_has_one_row_per_pe(runtime):
    chart = render_gantt(runtime.logbook, width=40)
    lines = chart.splitlines()
    pe_rows = [l for l in lines if "|" in l]
    assert len(pe_rows) == len(runtime.platform.pes)
    for row in pe_rows:
        body = row.split("|")[1]
        assert len(body) == 40


def test_gantt_shows_both_apps_and_idle(runtime):
    chart = render_gantt(runtime.logbook, width=60)
    assert "P" in chart.upper()
    assert "T" in chart.upper()
    assert "." in chart
    assert "P=PD" in chart and "T=TX" in chart
    assert "ms" in chart


def test_gantt_width_validation(runtime):
    with pytest.raises(ValueError):
        render_gantt(runtime.logbook, width=4)


def test_gantt_window_validation(runtime):
    with pytest.raises(ValueError):
        render_gantt(runtime.logbook, t_start=1.0, t_end=0.5)


def test_gantt_sub_window(runtime):
    makespan = runtime.logbook.makespan
    chart = render_gantt(runtime.logbook, width=20, t_start=0.0, t_end=makespan / 2)
    assert f"{makespan / 2 * 1e3:.1f} ms" in chart


def test_gantt_without_logs():
    platform = zcu102(n_cpu=3).build(seed=0)
    rt = CedrRuntime(platform, RuntimeConfig(scheduler="rr"))
    rt.start()
    rt.seal()
    rt.run()
    assert "no task records" in render_gantt(rt.logbook)


def test_cli_gantt_flag(capsys):
    from repro.cli import main

    rc = main(["run", "--apps", "PD:1", "--rate", "200", "--timing-only", "--gantt"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "|" in out and "apps: P=PD" in out
