"""Scenario validation negative paths: unknown names and unknown keys
across every registry axis, all surfacing as ScenarioError (so the CLI
reports them instead of crashing)."""

import json

import pytest

from repro.scenario import ScenarioError, ScenarioSpec


def _doc(**overrides):
    doc = {
        "scenario": {"name": "neg"},
        "platform": {"name": "zcu102"},
        "scheduler": {"name": "etf"},
        "workload": {"apps": [{"name": "PD", "count": 1}]},
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------------ #
# unknown registry names, one per axis, all as ScenarioError
# ------------------------------------------------------------------ #

UNKNOWN_NAMES = [
    pytest.param(
        _doc(scheduler={"name": "hefd_rt"}), "heft_rt", id="scheduler"
    ),
    pytest.param(
        _doc(platform={"name": "zcu103"}), "zcu102", id="platform"
    ),
    pytest.param(
        _doc(workload={"apps": [{"name": "PDD"}]}), "PD", id="app"
    ),
    pytest.param(
        _doc(workload={"preset": "radar-coms"}), "radar-comms", id="workload-preset"
    ),
    pytest.param(
        _doc(workload={"apps": "PD:1", "arrival": "poison"}),
        "poisson",
        id="arrival",
    ),
    pytest.param(
        _doc(faults={"rate": 10.0, "kinds": ["transiert"]}),
        "transient",
        id="fault-kind",
    ),
]


@pytest.mark.parametrize("doc,intended", UNKNOWN_NAMES)
def test_unknown_name_is_scenario_error_with_hint(doc, intended):
    with pytest.raises(ScenarioError) as ei:
        ScenarioSpec.from_mapping(doc, source="<test>")
    message = str(ei.value)
    assert intended in message  # listing or did-you-mean names the fix


def test_unknown_app_name_does_not_leak_raw_registry_error():
    """Regression: app names are validated inside section parsing; the
    raw RegistryError must be wrapped so `scenario validate` catches it."""
    try:
        ScenarioSpec.from_mapping(
            _doc(workload={"apps": [{"name": "PDD"}]}), source="<test>"
        )
    except ScenarioError:
        pass  # the required outcome
    else:
        pytest.fail("unknown app name validated successfully")


# ------------------------------------------------------------------ #
# unknown keys, with did-you-mean, in every section
# ------------------------------------------------------------------ #

UNKNOWN_KEYS = [
    pytest.param({"scenari": {}}, "scenario", id="top-level-section"),
    pytest.param(
        _doc(scenario={"name": "neg", "sede": 1}), "seed", id="scenario-key"
    ),
    pytest.param(
        _doc(scheduler={"nam": "etf"}), "name", id="scheduler-key"
    ),
    pytest.param(
        _doc(engine={"audt": True}), "audit", id="engine-key"
    ),
    pytest.param(
        _doc(telemetry={"interval": 0.1}), "interval_s", id="telemetry-key"
    ),
    pytest.param(
        _doc(workload={"apps": "PD:1", "arival": "periodic"}),
        "arrival",
        id="workload-key",
    ),
    pytest.param(
        _doc(run={"rate_mbp": 100.0}), "rate_mbps", id="run-key"
    ),
    pytest.param(
        _doc(faults={"rate": 5.0, "kind": ["hang"]}), "kinds", id="faults-key"
    ),
]


@pytest.mark.parametrize("doc,suggestion", UNKNOWN_KEYS)
def test_unknown_key_suggests_the_spelling(doc, suggestion):
    with pytest.raises(ScenarioError) as ei:
        ScenarioSpec.from_mapping(doc, source="<test>")
    message = str(ei.value)
    assert "unknown key" in message
    assert f"did you mean {suggestion!r}?" in message


def test_unknown_serve_keys():
    doc = {
        "scenario": {"name": "neg", "kind": "serve"},
        "serve": {"duratoin": 0.1},
    }
    with pytest.raises(ScenarioError, match="did you mean 'duration'"):
        ScenarioSpec.from_mapping(doc, source="<test>")
    doc = {
        "scenario": {"name": "neg", "kind": "serve"},
        "serve": {"admission": {"polcy": "shed"}},
    }
    with pytest.raises(ScenarioError, match="did you mean 'policy'"):
        ScenarioSpec.from_mapping(doc, source="<test>")


def test_unknown_platform_parameter_lists_accepted():
    with pytest.raises(ScenarioError, match="accepts: cpu, fft, mmult"):
        ScenarioSpec.from_mapping(
            _doc(platform={"name": "zcu102", "gpu": 1}), source="<test>"
        )


def test_unknown_app_parameter_lists_accepted():
    """An override the app factory does not take dies at validation, not as
    a bare TypeError out of ``build_workload``."""
    apps = [{"name": "PD", "count": 1, "n_samples": 4096}, {"name": "TX", "batc": 2}]
    with pytest.raises(ScenarioError) as ei:
        ScenarioSpec.from_mapping(_doc(workload={"apps": apps[:1]}), source="<test>")
    message = str(ei.value)
    assert "app 'PD'" in message and "unknown key(s) 'n_samples'" in message
    assert message.endswith(
        "allowed: batch, geom, snr_db, target_range_bin, target_velocity"
    )
    with pytest.raises(ScenarioError, match="did you mean 'batch'"):
        ScenarioSpec.from_mapping(_doc(workload={"apps": apps[1:]}), source="<test>")
    # accepted overrides still build
    ok = _doc(workload={"apps": [{"name": "PD", "batch": 4}]})
    ScenarioSpec.from_mapping(ok, source="<test>").build_workload()


def test_kind_mismatched_sections_rejected():
    doc = _doc()
    doc["scenario"]["kind"] = "serve"
    with pytest.raises(ScenarioError, match="run-kind section"):
        ScenarioSpec.from_mapping(doc, source="<test>")
    with pytest.raises(ScenarioError, match="serve-kind section"):
        ScenarioSpec.from_mapping(
            _doc(serve={"duration": 0.1}), source="<test>"
        )


# ------------------------------------------------------------------ #
# numeric fields: validate rejects what build_* (or the run) would
# ------------------------------------------------------------------ #


def _serve_doc(**serve):
    return {"scenario": {"name": "neg", "kind": "serve"}, "serve": serve}


#: each of these printed "ok ... [digest ...]" (or crashed validate with a
#: bare ValueError out of canonical()) before the small frozen configs were
#: constructed with the spec; the message names section and key
BAD_NUMBERS = [
    pytest.param(_doc(run={"rate_mbps": float("nan")}), "[run] rate_mbps",
                 id="run-rate-nan"),
    pytest.param(_doc(run={"rate_mbps": 0.0}), "[run] rate_mbps", id="run-rate-zero"),
    pytest.param(_serve_doc(duration=float("inf")), "[serve] duration",
                 id="serve-duration-inf"),
    pytest.param(_serve_doc(duration=-0.5), "[serve] duration",
                 id="serve-duration-negative"),
    pytest.param(_serve_doc(slo_ms=-5), "[serve] slo_ms", id="serve-slo-negative"),
    pytest.param(_serve_doc(tenants=0), "[serve] tenants", id="serve-tenants-zero"),
    pytest.param(_serve_doc(admission={"max_in_system": -3}),
                 "[serve.admission] max_in_system", id="admission-cap-negative"),
    pytest.param(_serve_doc(admission={"quota_rate": -1.0}),
                 "[serve.admission] token-bucket quota", id="admission-quota-negative"),
    # non-finite quotas / limits built, validated and got a digest, to_toml()
    # raised on them, and a NaN quota_rate ran as "unlimited"
    pytest.param(_serve_doc(admission={"quota_rate": float("nan")}),
                 "[serve.admission] token-bucket quota", id="admission-quota-rate-nan"),
    pytest.param(_serve_doc(admission={"quota_rate": float("inf")}),
                 "[serve.admission] token-bucket quota", id="admission-quota-rate-inf"),
    pytest.param(_serve_doc(admission={"quota_burst": float("inf")}),
                 "[serve.admission] token-bucket quota", id="admission-quota-burst-inf"),
    pytest.param(_serve_doc(admission={"p99_limit_s": float("nan")}),
                 "[serve.admission] backpressure limits", id="admission-p99-nan"),
    pytest.param(_doc(telemetry={"interval_s": -1}), "[telemetry] interval_s",
                 id="telemetry-interval-negative"),
    pytest.param(_doc(telemetry={"interval_s": float("nan")}),
                 "[telemetry] interval_s", id="telemetry-interval-nan"),
    pytest.param(_doc(platform={"name": "zcu102", "fft": 9}), "[platform]",
                 id="platform-fft-range"),
    pytest.param(_doc(platform={"name": "jetson", "cpu": 0}), "[platform]",
                 id="platform-cpu-range"),
    # a negative seed died in make_rng with NumPy's error; a ZCU102 with no
    # CPU worker built, then died mid-run on the first CPU-only call
    pytest.param(_doc(scenario={"name": "neg", "seed": -1}), "[scenario] seed",
                 id="seed-negative"),
    pytest.param(_doc(platform={"name": "zcu102", "cpu": 0}),
                 "[platform] platform needs at least one CPU worker", id="zcu102-cpu-zero"),
    # arrival numbers validated with a digest and failed only mid-run (a NaN
    # rate reached the engine as a NaN timer instant)
    pytest.param(_serve_doc(arrival="poisson:rate=nan"),
                 "[serve]: arrival parameter rate must be finite", id="arrival-rate-nan"),
    pytest.param(_serve_doc(arrival="poisson:rate=0"),
                 "[serve]: arrival parameter rate must be positive", id="arrival-rate-zero"),
    pytest.param(_serve_doc(arrival="periodic:period=0"),
                 "[serve]: arrival parameter period must be positive",
                 id="arrival-period-zero"),
    pytest.param(_serve_doc(arrival="bursty:rate=10,burst_len=0"),
                 "[serve]: arrival parameter burst_len must be positive",
                 id="arrival-burst-len-zero"),
    pytest.param(_serve_doc(arrival="diurnal:rate=10,floor=2"),
                 "[serve]: arrival parameter floor must be in [0, 1]",
                 id="arrival-floor-range"),
    pytest.param(_doc(workload={"apps": "PD:1", "arrival": "bursty",
                                "arrival_params": {"idle_len": -1.0}}),
                 "arrival parameter idle_len must be >= 0", id="run-arrival-idle-negative"),
    # NaN fault knobs constructed (ordered compares are all false for NaN),
    # and nothing checked quarantine_s at all
    pytest.param(_doc(faults={"rate": float("nan")}), "[faults] fault rate",
                 id="faults-rate-nan"),
    pytest.param(_doc(faults={"rate": 5.0, "hang_s": float("nan")}),
                 "[faults] hang_s", id="faults-hang-nan"),
    pytest.param(_doc(faults={"rate": 5.0, "slowdown_s": float("nan")}),
                 "[faults] hang_s and slowdown_s", id="faults-slowdown-s-nan"),
    pytest.param(_doc(faults={"rate": 5.0, "slowdown_factor": float("nan")}),
                 "[faults] slowdown_factor", id="faults-slowdown-factor-nan"),
    pytest.param(_doc(faults={"rate": 5.0, "watchdog_factor": float("nan")}),
                 "[faults] watchdog parameters", id="faults-watchdog-nan"),
    pytest.param(_doc(faults={"rate": 5.0, "quarantine_s": -1.0}),
                 "[faults] quarantine_s", id="faults-quarantine-negative"),
]


@pytest.mark.parametrize("doc,where", BAD_NUMBERS)
def test_bad_number_is_scenario_error_naming_section_and_key(doc, where):
    with pytest.raises(ScenarioError) as ei:
        ScenarioSpec.from_mapping(doc, source="<test>")
    message = str(ei.value)
    assert message.startswith("<test>") and where in message
    assert "\n" not in message


def test_bad_number_rejected_on_direct_construction_too():
    """The checks live in ``__post_init__``, so ``dataclasses.replace`` and
    hand-built specs (corpus generator, minimizer) get them as well."""
    import dataclasses

    from repro.serve import AdmissionConfig

    spec = ScenarioSpec(name="neg")
    with pytest.raises(ScenarioError, match="rate_mbps"):
        dataclasses.replace(spec, rate_mbps=float("inf"))
    with pytest.raises(ScenarioError, match="interval_s"):
        dataclasses.replace(spec, telemetry_interval_s=-1.0)
    with pytest.raises(ValueError, match="max_in_system"):
        AdmissionConfig(max_in_system=0)  # what ServeSection.admission holds
    with pytest.raises(ValueError, match="finite"):
        AdmissionConfig(quota_rate=float("nan"))


def test_scripted_fault_at_nan_is_rejected():
    from repro.faults import FaultKind, FaultSpec

    with pytest.raises(ValueError, match="fault time must be finite"):
        FaultSpec(at=float("nan"), pe="cpu0", kind=FaultKind.HANG)


#: each of these once validated - a string bool read as true, a float count
#: truncated - or named no key, or crashed validate with a traceback; the
#: key table's typed coercion rejects each on one line naming section and key
BAD_TYPES = [
    pytest.param(_doc(engine={"audit": "false"}), "[engine] audit", id="audit-string"),
    pytest.param(_doc(run={"execute": "no"}), "[run] execute", id="execute-string"),
    pytest.param(_doc(scenario={"name": "neg", "trials": 2.7}), "[scenario] trials",
                 id="trials-float"),
    pytest.param(_doc(scenario={"name": "neg", "seed": 1.9}), "[scenario] seed",
                 id="seed-float"),
    pytest.param(_doc(workload={"apps": [{"name": "PD", "count": 1.5}]}),
                 "[workload] apps", id="app-count-float"),
    pytest.param(_serve_doc(tenants=2.5), "[serve] tenants", id="tenants-float"),
    pytest.param(_doc(run={"rate_mbps": "fast"}), "[run] rate_mbps", id="rate-string"),
    pytest.param(_doc(telemetry={"interval_s": "x"}), "[telemetry] interval_s",
                 id="interval-string"),
]


@pytest.mark.parametrize("doc,where", BAD_TYPES)
def test_bad_type_is_scenario_error_naming_section_and_key(doc, where):
    with pytest.raises(ScenarioError) as ei:
        ScenarioSpec.from_mapping(doc, source="<test>")
    message = str(ei.value)
    assert message.startswith(f"<test> {where}") and "expected" in message
    assert "\n" not in message


def test_whole_numbers_keep_their_float_digest():
    """A float key stores a float: ``rate_mbps = 200`` is ``200.0``."""
    assert (
        ScenarioSpec.from_mapping(_doc(run={"rate_mbps": 200})).digest()
        == ScenarioSpec.from_mapping(_doc(run={"rate_mbps": 200.0})).digest()
    )


def test_validate_cli_fails_hostile_numbers_without_traceback(tmp_path, capsys):
    """The five documents of the issue, through the verb: exit 1, one FAIL
    line each, and no digest printed for any of them."""
    from repro.cli import main

    docs = {
        "rate": _doc(run={"rate_mbps": float("nan")}),
        "duration": _serve_doc(duration=float("inf")),
        "interval": _doc(telemetry={"interval_s": -1}),
        "cap": _serve_doc(admission={"max_in_system": -3}),
        "slo": _serve_doc(slo_ms=-5),
    }
    paths = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))  # json spells them NaN / Infinity
        paths.append(str(path))
    assert main(["scenario", "validate", *paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(docs)
    assert all(line.startswith("FAIL ") and "digest" not in line for line in lines)


def test_serve_flag_with_bad_arrival_number_exits_on_one_line():
    """``repro serve --arrival poisson:rate=nan`` used to die mid-run with
    the engine's ``SimTimeError``; it now fails while the flags lower."""
    from repro.cli import main

    with pytest.raises(SystemExit) as ei:
        main(["serve", "--duration", "0.05", "--arrival", "poisson:rate=nan"])
    message = str(ei.value.code)
    assert message.startswith("repro serve [serve]: arrival parameter rate")
    assert "must be finite" in message and "\n" not in message


@pytest.mark.parametrize("argv,where", [
    pytest.param(["run", "--seed", "-1"], "repro run [scenario] seed", id="run-seed"),
    pytest.param(["serve", "--seed", "-1"], "repro serve [scenario] seed", id="serve-seed"),
    pytest.param(["run", "--cpu", "0"], "repro run [platform]", id="run-cpu-zero"),
    # without --metrics-out these ran with telemetry silently off
    pytest.param(["run", "--metrics-interval", "-1"], "repro run [telemetry] interval_s",
                 id="run-interval-negative"),
    pytest.param(["run", "--metrics-interval", "nan"], "repro run [telemetry] interval_s",
                 id="run-interval-nan"),
    # these ran fault-free, or without the device, and exited 0
    pytest.param(["run", "--fault-rate", "-1"], "repro run [faults] fault rate",
                 id="run-fault-rate-negative"),
    pytest.param(["run", "--fault-rate", "nan"], "repro run [faults] fault rate",
                 id="run-fault-rate-nan"),
    pytest.param(["run", "--fault-rate", "0", "--fault-kinds", "bogus"],
                 "repro run [faults] kinds", id="run-fault-kinds-at-rate-0"),
    pytest.param(["run", "--fault-rate", "0", "--max-retries", "-1"],
                 "repro run [faults] max_retries", id="run-max-retries-at-rate-0"),
    pytest.param(["run", "--platform", "jetson", "--fft", "2"],
                 "repro run [platform] platform 'jetson' does not take parameter(s) ['fft']",
                 id="run-jetson-fft"),
    pytest.param(["run", "--platform", "zcu102", "--gpu", "1"],
                 "repro run [platform] platform 'zcu102' does not take parameter(s) ['gpu']",
                 id="run-zcu102-gpu"),
    pytest.param(["run", "--platform", "zcu102", "--little", "1"],
                 "repro run [platform] platform 'zcu102' does not take parameter(s) ['little']",
                 id="run-zcu102-little"),
])
def test_bad_run_or_serve_flag_exits_on_one_line(argv, where):
    """Each of these ended in a traceback or was dropped; now the flags
    lower to a spec that fails its check on one line."""
    from repro.cli import main

    with pytest.raises(SystemExit) as ei:
        main(argv)
    message = str(ei.value.code)
    assert message.startswith(where) and "\n" not in message


@pytest.mark.parametrize("argv,where", [
    pytest.param(["figure", "fig5", "--trials", "0"], "repro figure --trials must be >= 1",
                 id="figure-trials-zero"),
    pytest.param(["figure", "fig5", "--trials", "-3"], "repro figure --trials must be >= 1",
                 id="figure-trials-negative"),
    pytest.param(["figure", "fig5", "--rates", "0"], "repro figure --rates must be >= 2",
                 id="figure-rates-zero"),
    pytest.param(["figure", "fig5", "--jobs", "0"], "repro figure --jobs must be >= 1",
                 id="figure-jobs-zero"),
    pytest.param(["figure", "resilience", "--fault-seed", "-1"],
                 "repro figure --fault-seed must be finite and >= 0", id="figure-fault-seed"),
    pytest.param(["scenario", "run", "examples/scenarios/fig5_cell_zcu102.toml", "--trials",
                  "0"], "repro scenario run --trials must be >= 1", id="scenario-trials-zero"),
    pytest.param(["scenario", "run", "examples/scenarios/fig5_cell_zcu102.toml", "--jobs",
                  "0"], "repro scenario run --jobs must be >= 1", id="scenario-jobs-zero"),
])
def test_bad_count_flag_exits_on_one_line(argv, where):
    """Each of these printed a ValueError traceback from inside the sweep."""
    from repro.cli import main

    with pytest.raises(SystemExit) as ei:
        main(argv)
    message = str(ei.value.code)
    assert message.startswith(where) and "\n" not in message


@pytest.mark.parametrize("interval,samples", [
    pytest.param("1e-300", "1.72e+299", id="interval-1e-300"),
    pytest.param("1e-6", "1.72e+05", id="interval-1e-6"),
])
def test_too_fine_metrics_interval_is_refused_on_one_line(tmp_path, interval, samples):
    """``1e-300`` used to hang the run (the sampler re-armed its timer at the
    same instant for ever) and ``1e-6`` wrote a 373 MB export: the fold now
    counts the samples from the makespan first and refuses past the cap,
    writing nothing."""
    from repro.cli import main
    from repro.telemetry import MAX_SAMPLES

    base = tmp_path / "m"
    with pytest.raises(SystemExit) as ei:
        main(["run", "--metrics-out", str(base), "--metrics-interval", interval])
    message = str(ei.value.code)
    assert message.startswith(
        f"repro run [telemetry] interval_s / --metrics-interval {float(interval)!r} "
        f"would take {samples} samples"
    )
    assert message.endswith(f"the cap is {MAX_SAMPLES}") and "\n" not in message
    assert not list(tmp_path.iterdir())


def test_too_fine_scenario_interval_is_refused_on_one_line(tmp_path):
    from repro.cli import main

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_doc(telemetry={"interval_s": 1e-300})))
    with pytest.raises(SystemExit) as ei:
        main(["scenario", "run", str(path), "--trials", "1", "--no-cache"])
    message = str(ei.value.code)
    assert message.startswith("repro scenario run [telemetry] interval_s")
    assert "\n" not in message


def test_negative_seeds_fail_where_they_are_built():
    """A negative seed used to fail only by accident, inside NumPy (or be
    masked into 2**31 - 1 for a fault seed)."""
    from repro.faults import FaultConfig
    from repro.simcore import Engine, SimStateError

    with pytest.raises(SimStateError, match="engine seed must be >= 0"):
        Engine(seed=-1)
    with pytest.raises(ValueError, match="fault seed must be >= 0"):
        FaultConfig(rate=5.0, seed=-1)


def test_seeds_past_2_31_are_their_own_streams():
    """``child_rng`` used to mask the seed to 31 bits, so 2**31 was seed 0."""
    from repro.simcore import child_rng

    assert child_rng(2**31, "x").random() != child_rng(0, "x").random()
    assert child_rng(2**31 - 1, "x").random() != child_rng(2**32 - 1, "x").random()


def test_validate_cli_reports_unknown_app(tmp_path, capsys):
    """End to end: the CLI prints FAIL for a bad app name, exit code 1."""
    from repro.cli import main

    path = tmp_path / "bad.json"
    path.write_text(
        '{"scenario": {"name": "bad"}, '
        '"workload": {"apps": [{"name": "PDD"}]}}'
    )
    assert main(["scenario", "validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "did you mean 'PD'?" in out
