"""The deletion stays deleted: one construction route, one submit loop, one
cell runner, no differential oracle.

``repro run`` / ``serve`` (and the since-deleted ``audit diff``) used to build
platform, workload, ``RuntimeConfig`` and ``ServeConfig`` from argparse beside
the spec builders that build the same objects, and a ``scenario`` oracle
pairing (plus three CI commands) existed only to prove the two constructions
agreed.  Flags now lower to a ``ScenarioSpec``, and the oracle's last two
pairings (pool jobs, cache) are tests of ``run_cells``; these checks fail the
moment a second route, the oracle or one of the duplicate runners creeps
back in.
"""

from pathlib import Path

import pytest

import repro
import repro.audit
import repro.cli
import repro.serve.driver
from repro.cli import main

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


def test_scenario_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["audit", "diff", "--scenario"])
    assert err.value.code == 2
    assert "unrecognized arguments: --scenario" in capsys.readouterr().err


def test_repro_audit_has_no_oracle():
    for name in ("diff_run", "diff_serve", "OracleReport", "VariantOutcome",
                 "DEFAULT_VARIANTS"):
        assert not hasattr(repro.audit, name), name
    assert not (SRC / "audit" / "oracle.py").exists()
    assert not hasattr(repro.cli, "AUDIT_DEFAULTS")
    assert not hasattr(repro.cli, "_cmd_audit_diff")


def test_audit_diff_is_a_missing_dump():
    """``diff`` is no longer a target: it is a dump path that is not there."""
    with pytest.raises(SystemExit) as err:
        main(["audit", "diff"])
    assert str(err.value.code) == "no logbook at 'diff'"
