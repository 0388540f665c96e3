"""One declared key table for scenario documents and the run/serve flags.

Every key a scenario document takes is one :class:`Key` row of :data:`KEYS`:
section, type, document default, spec-side check and - for the keys
``repro run`` / ``serve`` / ``audit diff`` expose - flag spelling and help.
``ScenarioSpec.from_mapping`` walks a document against the rows, ``canonical``
emits them in row order, ``__post_init__`` runs their checks, and the CLI
declares and lowers its spec flags from them.  The ``[faults]`` and
``[serve.admission]`` rows are read off ``FaultConfig`` / ``AdmissionConfig``.
Typed coercion: a ``bool`` key takes only ``true`` / ``false``, an ``int``
key an integer (not a bool), a ``float`` key an integer or a float and
stores a float, so ``rate_mbps = 200`` and ``200.0`` are one experiment.
Imports nothing ``import repro.cli`` does not load, never :mod:`repro.scenario`.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.faults.model import FaultConfig
from repro.platforms import available_platforms
from repro.serve.admission import ADMISSION_POLICIES, AdmissionConfig

__all__ = ["KEYS", "MODES", "SECTIONS", "Key", "coerce"]

MODES = ("dag", "api")

#: every section a document may carry -> the scenario kind it belongs to
#: (``None``: both); ``serve.admission`` is the ``admission`` table in ``[serve]``
SECTIONS = {
    "scenario": None, "platform": None, "scheduler": None, "engine": None,
    "telemetry": None, "workload": "run", "run": "run", "faults": "run",
    "serve": "serve", "serve.admission": "serve",
}

#: named spec-side checks: (predicate, what a passing value is)
CHECKS = {
    "positive": (lambda v: 0 < v < math.inf, "must be finite and positive"),
    "nonnegative": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "at_least_1": (lambda v: v >= 1, "must be >= 1"),
}

#: scalar types: (accepts, what was expected)
TYPES = {
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@dataclass(frozen=True)
class Key:
    """One document key, ``[section] key``.

    ``type`` is a :data:`TYPES` name, ``int?`` (an integer or ``None``) or a
    structured value the spec parses: ``apps``, ``params`` (a name = value
    table), ``kinds`` (fault kinds).  ``attr`` is the dotted ``ScenarioSpec``
    attribute the value lands on; ``check`` a :data:`CHECKS` name or the
    allowed values; ``optional`` keys leave the canonical form when empty.
    ``flag`` / ``verbs`` / ``help`` / ``choices`` declare the CLI flag.
    """

    section: str
    key: str
    type: str
    default: Any
    attr: str
    check: Union[str, tuple, None] = None
    optional: bool = False
    flag: Optional[str] = None
    verbs: tuple[str, ...] = ()
    help: str = ""
    choices: Optional[Callable[[], tuple]] = None

    @property
    def dest(self) -> str:
        """The argparse destination of :attr:`flag`."""
        return self.flag.lstrip("-").replace("-", "_")

    def in_scope(self, kind: str) -> bool:
        """Whether a scenario of *kind* carries this key's section."""
        return SECTIONS[self.section] in (None, kind)

    def place(self, doc: dict, value: Any) -> None:
        """Set this key to *value* in a nested scenario document."""
        for part in self.section.split("."):
            doc = doc.setdefault(part, {})
        doc[self.key] = value

    def validate(self, value: Any) -> None:
        """``ValueError`` naming section and key unless *value* passes the check."""
        if isinstance(self.check, tuple):
            ok, must = self.check.__contains__, f"must be one of {', '.join(self.check)}"
        else:
            ok, must = CHECKS[self.check]
        if not ok(value):
            raise ValueError(f"[{self.section}] {self.key} {must}, got {value!r}")


def coerce(type_: str, value: Any) -> Any:
    """*value* as a key of scalar type *type_* holds it, or ``ValueError``."""
    if type_ == "int?":
        if value is None:
            return None
        type_ = "int"
    ok, expected = TYPES[type_]
    if not ok(value):
        raise ValueError(f"expected {expected}, got {value!r}")
    return float(value) if type_ == "float" else value


_HINTS = {bool: "bool", int: "int", float: "float", str: "str", Optional[int]: "int?"}


def _config_rows(section: str, cls, flags: dict) -> tuple[Key, ...]:
    """One row per config field (``script`` is library-only); *flags* maps a
    field to its ``(flag, verbs, help[, choices])``; ``kinds`` is parsed by name."""
    hints = typing.get_type_hints(cls)
    return tuple(
        Key(section, f.name, _HINTS.get(hints[f.name], f.name), f.default,
            f"{section}.{f.name}",
            **dict(zip(("flag", "verbs", "help", "choices"), flags.get(f.name, ()))))
        for f in dataclasses.fields(cls) if f.name != "script"
    )


_R, _S, _A = ("run",), ("serve",), ("audit",)
_APPS = "comma list of NAME:COUNT (apps: {apps})"

#: the table, in canonical-form order
KEYS: tuple[Key, ...] = (
    Key("scenario", "name", "str", None, "name"),
    Key("scenario", "kind", "str", "run", "kind", ("run", "serve")),
    Key("scenario", "seed", "int", 0, "seed", "nonnegative", flag="--seed", verbs=_R + _S + _A,
        help="base seed of the run's random streams"),
    Key("scenario", "trials", "int", 1, "trials", "at_least_1", flag="--trials",
        verbs=_A, help="trials per cell"),
    Key("platform", "name", "str", "zcu102", "platform", flag="--platform",
        verbs=_R + _S + _A, help="registered platform", choices=available_platforms),
    # platform parameters: the flag default is the platform's own, and a flag
    # reaches only the platforms that declare the parameter
    *(Key("platform", key, "int?", default, f"platform_params.{key}", flag=f"--{key}",
          verbs=_R + _S, help=help)
      for key, default, help in (
          ("cpu", None, "CPU worker PEs (platform default if omitted)"),
          ("fft", 1, "FFT accelerators (ZCU102)"),
          ("mmult", 0, "MMULT accelerators (ZCU102)"),
          ("little", 4, "LITTLE cores (zcu102-biglittle only)"),
          ("gpu", None, "GPU accelerators (jetson only)"))),
    Key("scheduler", "name", "str", "heft_rt", "scheduler", flag="--scheduler",
        verbs=_R + _S + _A, help="registered scheduler"),
    Key("engine", "audit", "bool", False, "audit", flag="--audit", verbs=_R + _S,
        help="check every scheduling round and task completion against the "
             "invariant catalog online, and replay it whole at shutdown"),
    Key("telemetry", "interval_s", "float", 0.0, "telemetry_interval_s", "nonnegative",
        optional=True, flag="--metrics-interval", verbs=_R,
        help="periodic telemetry snapshot interval, simulated seconds (0 = final "
             "snapshot only; implies telemetry even without --metrics-out)"),
    Key("workload", "name", "str", "cli", "workload_name"),
    Key("workload", "preset", "str", None, "preset", optional=True),
    Key("workload", "params", "params", (), "preset_params", optional=True),
    Key("workload", "apps", "apps", "PD:2,TX:2", "apps", flag="--apps", verbs=_R + _A,
        help=_APPS),
    Key("workload", "arrival", "str", "periodic", "arrival"),
    Key("workload", "arrival_params", "params", (), "arrival_params", optional=True),
    Key("run", "mode", "str", "api", "mode", MODES, flag="--mode", verbs=_R + _A,
        help="how applications reach the runtime"),
    Key("run", "rate_mbps", "float", 200.0, "rate_mbps", "positive", flag="--rate",
        verbs=_R, help="injection rate, Mbps"),
    Key("run", "execute", "bool", True, "execute", flag="--execute", verbs=_A,
        help="execute kernels functionally instead of timing-only"),
    *_config_rows("faults", FaultConfig, {
        "rate": ("--fault-rate", _R, "per-PE faults per simulated second (0 = none)"),
        "seed": ("--fault-seed", _R, "fault-schedule seed (default: derive from --seed)"),
        "kinds": ("--fault-kinds", _R, "comma list of fault kinds ({fault_kinds})"),
        "max_retries": ("--max-retries", _R, "per-task retries before the app fails"),
    }),
    Key("serve", "duration", "float", 0.5, "serve.duration", "positive",
        flag="--duration", verbs=_S + _A, help="service window, simulated seconds"),
    Key("serve", "arrival", "str", "poisson:rate=100", "serve.arrival", flag="--arrival",
        verbs=_S + _A, help="arrival process per tenant, KIND:k=v,... (kinds: "
                            "{arrivals}); each tenant draws an independent stream"),
    Key("serve", "tenants", "int", 1, "serve.tenants", "at_least_1", flag="--tenants",
        verbs=_S, help="number of identically configured tenants"),
    Key("serve", "slo_ms", "float", 50.0, "serve.slo_ms", "positive", flag="--slo-ms",
        verbs=_S + _A, help="per-tenant response-time objective, ms"),
    Key("serve", "mode", "str", "api", "mode", MODES, flag="--mode", verbs=_S + _A,
        help="how applications reach the runtime"),
    Key("serve", "apps", "apps", "PD:1,TX:1", "serve.apps", flag="--apps",
        verbs=_S + _A, help="app mix cycled round-robin per tenant, " + _APPS),
    *_config_rows("serve.admission", AdmissionConfig, {
        "policy": ("--admission", _S + _A, "policy for arrivals the system cannot take",
                   lambda: ADMISSION_POLICIES),
        "max_in_system": ("--max-in-system", _S, "admitted-but-unfinished cap, all tenants"),
        "queue_cap": ("--queue-cap", _S, "per-tenant hold-queue bound (block policy)"),
        "quota_rate": ("--quota-rate", _S, "per-tenant token refill, arrivals/s (0 = no cap)"),
    }),
)
