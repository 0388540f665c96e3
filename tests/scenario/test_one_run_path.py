"""The deletion stays deleted: one construction route, one submit loop, one
cell runner, one oracle loop.

``repro run`` / ``serve`` / ``audit diff`` used to build platform, workload,
``RuntimeConfig`` and ``ServeConfig`` from argparse beside the spec builders
that build the same objects, and a ``scenario`` oracle pairing (plus three CI
commands) existed only to prove the two constructions agreed.  Flags now
lower to a ``ScenarioSpec``; these checks fail the moment a second route,
the pairing or one of the duplicate runners creeps back in.
"""

from pathlib import Path

import pytest

import repro
import repro.audit.oracle
import repro.cli
import repro.serve.driver
from repro.audit import DEFAULT_VARIANTS, diff_run, diff_serve
from repro.cli import main
from repro.platforms import zcu102
from repro.workload import radar_comms_workload

SRC = Path(repro.__file__).parent


def test_cedr_runtime_is_constructed_in_two_places():
    """The batch submit loop (``run_to_completion``) and ``serve_once``.
    ``runtime/`` defines the class; the package docstring shows a usage
    example."""
    calls = {}
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "runtime" or rel == Path("__init__.py"):
            continue
        count = path.read_text().count("CedrRuntime(")
        if count:
            calls[rel.as_posix()] = count
    assert calls == {"experiments/common.py": 1, "serve/driver.py": 1}


@pytest.mark.parametrize("ctor", [
    "RuntimeConfig(", "WorkloadSpec(", "ServeConfig(", "TenantSpec(",
    "AdmissionConfig(", "TelemetryConfig(", "CedrRuntime(", "FaultConfig(",
])
def test_cli_constructs_no_run_objects(ctor):
    assert ctor not in Path(repro.cli.__file__).read_text()


def test_second_route_helpers_are_gone():
    for name in ("_parse_apps", "_make_platform", "_serve_config_from_args",
                 "_audit_scenario_template", "_make_audit_platform",
                 "_cmd_audit_diff_serve"):
        assert not hasattr(repro.cli, name), name
    assert not hasattr(repro.serve.driver, "_serve_cells")
    assert not hasattr(repro.audit.oracle, "_compare_serve")


def test_scenario_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["audit", "diff", "--scenario"])
    assert err.value.code == 2
    assert "unrecognized arguments: --scenario" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ([], ["--serve"]), ids=("run", "serve"))
def test_cli_rejects_the_scenario_variant(extra):
    with pytest.raises(SystemExit) as err:
        main(["audit", "diff", "--variants", "scenario", *extra])
    assert "unknown variant(s) ['scenario']" in str(err.value)


def test_oracle_drivers_take_no_scenario_template():
    assert "scenario" not in DEFAULT_VARIANTS
    platform = zcu102(n_cpu=3, n_fft=1)
    with pytest.raises(TypeError, match="scenario"):
        diff_run(platform, radar_comms_workload(), "api", [100.0], "etf",
                 scenario=None)
    with pytest.raises(TypeError, match="scenario"):
        diff_serve(platform, None, scenario=None)
    with pytest.raises(KeyError, match="unknown oracle variant"):
        diff_run(platform, radar_comms_workload(), "api", [100.0], "etf",
                 variants=("scenario",))
