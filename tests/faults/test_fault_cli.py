"""CLI tests for the fault-injection and perf-json flags."""

import json

import pytest

from repro.cli import main


def test_run_with_fault_flags(capsys):
    rc = main([
        "run", "--apps", "PD:1", "--timing-only", "--scheduler", "rr",
        "--fault-rate", "30", "--fault-seed", "1", "--max-retries", "5",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "faults    :" in out
    assert "goodput" in out


def test_perf_json_snapshot_includes_fault_counters(tmp_path, capsys):
    path = tmp_path / "perf.json"
    rc = main([
        "run", "--apps", "PD:1", "--timing-only",
        "--fault-rate", "30", "--fault-seed", "1",
        "--perf-json", str(path),
    ])
    assert rc == 0
    assert "perf json : wrote" in capsys.readouterr().out
    snap = json.loads(path.read_text())
    assert {"tasks_completed", "sched_rounds", "faults"} <= set(snap)
    faults = snap["faults"]
    for key in ("injected", "by_kind", "task_failures", "retries",
                "tasks_lost", "stale_dispatches", "pe_quarantines",
                "pe_revivals", "recoveries", "mean_time_to_recovery"):
        assert key in faults
    assert faults["injected"] >= 0


def test_perf_json_works_without_faults(tmp_path, capsys):
    path = tmp_path / "perf.json"
    rc = main(["run", "--apps", "TX:1", "--timing-only", "--perf-json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "faults    :" not in out  # no fault summary line when inactive
    snap = json.loads(path.read_text())
    assert snap["faults"]["injected"] == 0
    assert snap["tasks_completed"] > 0


def test_perf_json_attributes_host_time_by_role(tmp_path):
    """--perf-json arms the per-role split: every engine resumption is
    charged to exactly one thread role, every timer callback to ``timers``
    and to its owner, and the roles plus the loop remainder account for
    the whole of ``wall_seconds``."""
    path = tmp_path / "perf.json"
    assert main(["run", "--apps", "TX:1", "--timing-only", "--mode", "api",
                 "--perf-json", str(path)]) == 0
    snap = json.loads(path.read_text())
    host_ns, resumes = snap["host_ns_by_role"], snap["resumes_by_role"]
    by_owner = snap["timer_ns_by_owner"]
    assert set(host_ns) == {"daemon", "worker", "app", "timers", "loop"}
    assert set(resumes) == {"daemon", "worker", "app", "timers"}
    assert all(count > 0 for count in resumes.values())
    assert sum(resumes.values()) - resumes["timers"] == snap["engine_events"]
    assert resumes["timers"] == snap["event_core"]["timers_fired"]
    assert all(ns > 0 for ns in host_ns.values())
    assert sum(host_ns.values()) == round(snap["wall_seconds"] * 1e9)
    # signal-latency wakes are partial(engine.wake, waiter): charged to
    # Engine.wake; the arrival closure is the daemon's own
    assert "Engine.wake" in by_owner
    assert any(owner.endswith("_arrive") for owner in by_owner)
    assert sum(by_owner.values()) == host_ns["timers"]


def test_fault_runs_are_deterministic_via_cli(tmp_path):
    def snapshot(name):
        path = tmp_path / name
        main(["run", "--apps", "PD:1", "--timing-only",
              "--fault-rate", "40", "--fault-seed", "9",
              "--perf-json", str(path)])
        return json.loads(path.read_text())

    a, b = snapshot("a.json"), snapshot("b.json")
    a.pop("wall_seconds", None), b.pop("wall_seconds", None)
    a.pop("events_per_wall_sec", None), b.pop("events_per_wall_sec", None)
    for key in ("host_ns_by_role", "timer_ns_by_owner"):  # host time, like the two above
        a.pop(key), b.pop(key)
    assert a == b


def test_bad_fault_kinds_exit_with_message(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--apps", "PD:1", "--timing-only",
              "--fault-rate", "1", "--fault-kinds", "meltdown"])


def test_list_mentions_resilience_figure(capsys):
    assert main(["list"]) == 0
    assert "resilience" in capsys.readouterr().out
