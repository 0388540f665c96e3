"""repro.scenario - declarative experiment specs over the plugin registries.

A scenario is one TOML/JSON document naming platform + workload +
scheduler + faults + admission + telemetry + seeds.  It is the one run
path: ``repro scenario run spec.toml`` executes a document, and the
flag verbs (``repro run`` / ``serve``) lower their flags
to the same :class:`ScenarioSpec` before anything is constructed.  Its
canonical form content-addresses into the sweep cache alongside figure
sweeps.  See docs/INTERNALS.md, "Plugin registries & scenario specs".
"""

from .runner import report_lines, run_scenario
from .spec import (
    AppCount,
    ScenarioError,
    ScenarioSpec,
    ServeSection,
    dump_toml,
    load_scenario,
)

__all__ = [
    "AppCount",
    "ScenarioError",
    "ScenarioSpec",
    "ServeSection",
    "dump_toml",
    "load_scenario",
    "report_lines",
    "run_scenario",
]
