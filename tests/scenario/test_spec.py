"""ScenarioSpec parsing, validation, and canonical-form guarantees."""

import json

import pytest

from repro.faults import FaultKind
from repro.scenario import AppCount, ScenarioError, ScenarioSpec, load_scenario

RUN_TOML = """
[scenario]
name = "t-run"
kind = "run"
seed = 3
trials = 2

[platform]
name = "zcu102"
fft = 2

[scheduler]
name = "etf"

[workload]
apps = [ {name = "PD", count = 2}, {name = "TX"} ]
arrival = "periodic"

[run]
mode = "dag"
rate_mbps = 150.0
execute = false
"""

SERVE_TOML = """
[scenario]
name = "t-serve"
kind = "serve"

[serve]
duration = 0.25
arrival = "poisson:rate=120"
tenants = 2
slo_ms = 40.0
apps = "PD:1,TX:1"

[serve.admission]
policy = "block"
queue_cap = 8
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_run_toml(tmp_path):
    spec = load_scenario(_write(tmp_path, "run.toml", RUN_TOML))
    assert spec.name == "t-run"
    assert spec.kind == "run"
    assert spec.seed == 3 and spec.trials == 2
    assert spec.platform == "zcu102"
    assert dict(spec.platform_params) == {"fft": 2}
    assert spec.scheduler == "etf"
    assert spec.apps == (AppCount("PD", 2), AppCount("TX", 1))
    assert spec.mode == "dag" and spec.rate_mbps == 150.0
    assert spec.execute is False
    assert spec.workload_name == "cli"  # flag-path RNG label by default


def test_load_serve_toml(tmp_path):
    spec = load_scenario(_write(tmp_path, "serve.toml", SERVE_TOML))
    assert spec.kind == "serve"
    serve = spec.serve
    assert serve.duration == 0.25
    assert serve.tenants == 2
    assert serve.admission.policy == "block" and serve.admission.queue_cap == 8
    config = spec.build_serve()
    assert [t.name for t in config.tenants] == ["tenant0", "tenant1"]
    assert config.tenants[0].slo_s == pytest.approx(0.04)
    assert config.admission.queue_cap == 8


def test_json_documents_load_too(tmp_path):
    doc = {
        "scenario": {"name": "j", "kind": "run"},
        "run": {"rate_mbps": 123.0},
    }
    spec = load_scenario(_write(tmp_path, "j.json", json.dumps(doc)))
    assert spec.rate_mbps == 123.0


def test_unknown_extension_rejected(tmp_path):
    path = _write(tmp_path, "spec.yaml", "scenario:\n  name: x\n")
    with pytest.raises(ScenarioError, match="unknown scenario format"):
        load_scenario(path)


def test_unknown_section_suggests(tmp_path):
    bad = RUN_TOML.replace("[workload]", "[worload]")
    with pytest.raises(ScenarioError, match="did you mean 'workload'"):
        load_scenario(_write(tmp_path, "bad.toml", bad))


def test_unknown_key_suggests():
    with pytest.raises(ScenarioError, match="did you mean 'rate_mbps'"):
        ScenarioSpec.from_mapping({
            "scenario": {"name": "x"},
            "run": {"rate_mbp": 100.0},
        })


def test_unknown_scheduler_lists_available():
    with pytest.raises(ValueError, match="unknown scheduler 'hft_rt'"):
        ScenarioSpec(name="x", scheduler="hft_rt")


def test_unknown_platform_param_lists_accepted():
    with pytest.raises(ScenarioError, match="accepts: cpu, fft, mmult"):
        ScenarioSpec(name="x", platform_params=(("little", 2),))


def test_unknown_app_name_suggests():
    with pytest.raises(ValueError, match="unknown application"):
        ScenarioSpec(name="x", apps=(AppCount("PX"),))


def test_preset_and_apps_conflict():
    with pytest.raises(ScenarioError, match="either preset or apps"):
        ScenarioSpec.from_mapping({
            "scenario": {"name": "x"},
            "workload": {"preset": "radar-comms", "apps": "PD:1"},
        })


def test_kind_section_mismatch_rejected():
    with pytest.raises(ScenarioError, match="run-kind section"):
        ScenarioSpec.from_mapping({
            "scenario": {"name": "x", "kind": "serve"},
            "workload": {"apps": "PD:1"},
        })
    with pytest.raises(ScenarioError, match="serve-kind section"):
        ScenarioSpec.from_mapping({
            "scenario": {"name": "x", "kind": "run"},
            "serve": {"duration": 0.1},
        })


def test_bad_admission_policy_rejected():
    with pytest.raises(ScenarioError, match="unknown admission policy"):
        ScenarioSpec.from_mapping({
            "scenario": {"name": "x", "kind": "serve"},
            "serve": {"admission": {"policy": "drop"}},
        })


def test_faults_section_builds_config():
    spec = ScenarioSpec.from_mapping({
        "scenario": {"name": "x"},
        "faults": {"rate": 25.0, "kinds": ["transient", "hang"], "seed": 7},
    })
    assert spec.faults is not None
    assert spec.faults.rate == 25.0
    assert spec.faults.kinds == (FaultKind.TRANSIENT, FaultKind.HANG)
    assert spec.faults.seed == 7


def test_faults_unknown_kind_suggests():
    with pytest.raises(ValueError, match="unknown fault kind"):
        ScenarioSpec.from_mapping({
            "scenario": {"name": "x"},
            "faults": {"rate": 1.0, "kinds": ["transiennt"]},
        })


def test_apps_string_and_table_forms_agree():
    table = ScenarioSpec.from_mapping({
        "scenario": {"name": "x"},
        "workload": {"apps": [{"name": "PD", "count": 2}, {"name": "TX"}]},
    })
    string = ScenarioSpec.from_mapping({
        "scenario": {"name": "x"},
        "workload": {"apps": "PD:2,TX"},
    })
    assert table.apps == string.apps
    assert table.digest() == string.digest()


def test_canonical_digest_ignores_spelling(tmp_path):
    # same experiment, different document spellings: defaults omitted vs
    # explicit, TOML vs JSON, key order shuffled
    terse = ScenarioSpec.from_mapping({"scenario": {"name": "t"}})
    explicit = ScenarioSpec.from_mapping({
        "platform": {"name": "zcu102"},
        "scheduler": {"name": "heft_rt"},
        "run": {"rate_mbps": 200.0, "mode": "api", "execute": True},
        "scenario": {"kind": "run", "name": "t", "seed": 0, "trials": 1},
        "workload": {"apps": "PD:2,TX:2", "arrival": "periodic"},
    })
    assert terse.canonical() == explicit.canonical()
    assert terse.digest() == explicit.digest()


def test_digest_moves_with_the_experiment():
    base = ScenarioSpec(name="t")
    assert base.digest() != ScenarioSpec(name="t", rate_mbps=300.0).digest()
    assert base.digest() != ScenarioSpec(name="t", scheduler="etf").digest()
    assert base.digest() != ScenarioSpec(name="t", seed=1).digest()


def test_canonical_is_json_able_and_kind_scoped():
    run_doc = ScenarioSpec(name="t").canonical()
    json.dumps(run_doc)  # must not raise
    assert "serve" not in run_doc and "workload" in run_doc
    serve_doc = ScenarioSpec(name="s", kind="serve").canonical()
    json.dumps(serve_doc)
    assert "workload" not in serve_doc and "serve" in serve_doc


def test_build_workload_matches_flag_path():
    spec = ScenarioSpec(name="t")
    workload = spec.build_workload()
    assert workload.name == "cli"  # the RNG label the CLI uses
    assert [(e.app.name, e.count) for e in workload.entries] == [
        ("PD", 2), ("TX", 2),
    ]


def test_build_workload_preset():
    spec = ScenarioSpec.from_mapping({
        "scenario": {"name": "t"},
        "workload": {"preset": "radar-comms", "params": {"n_pd": 3}},
    })
    workload = spec.build_workload()
    assert workload.name == "radar-comms"
    counts = {e.app.name: e.count for e in workload.entries}
    assert counts["PD"] == 3


def test_checked_in_example_scenarios_validate(repo_root):
    specs = sorted((repo_root / "examples" / "scenarios").glob("*.toml"))
    assert len(specs) >= 4
    kinds = set()
    for path in specs:
        spec = load_scenario(path)
        kinds.add(spec.kind)
        assert spec.digest()
    assert kinds == {"run", "serve"}  # both flavors are exercised
