"""Declarative scenario specs: one TOML/JSON document per experiment.

A :class:`ScenarioSpec` names everything a run needs - platform, workload
or serve tenants, scheduler, faults, admission, telemetry, seeds - as
*data*, validated against the plugin registries.  It is the one
construction route: ``repro run`` / ``repro serve`` lower their flags to a
spec (``repro.cli._lower``) and only the builders below turn a spec into
platform/workload/config objects, so a flag-path bug is a spec-path bug.  The builders produce objects equal to hand-built
library ones (``WorkloadSpec(...)``, ``ServeConfig(...)``), so a scenario
cell, the same run spelled as ``repro run`` flags and the equal figure
cell share one sweep-cache key: every cell carries its resolved
``RuntimeConfig``.

A document is one TOML (or JSON) table per section; every key, its type,
default and check is one row of the key table,
:data:`repro.scenario_keys.KEYS`, and ``examples/scenarios/*.toml`` shows
both kinds::

    [scenario]
    name = "radar-zcu102"        # required; kind = "run" (default) or "serve"

    [workload]                   # run kind; [serve] for the serve kind
    apps = [ {name = "PD", count = 2}, {name = "TX", count = 2} ]

Unknown sections, unknown keys (an app's parameter overrides included),
values of the wrong type and unknown registry names all fail validation
naming the section and key, with the available entries and a did-you-mean
hint - a typo'd scheduler name dies at ``repro scenario validate``, not
three sweeps in.  Validation rejects what the builders would: the small
frozen configs (platform, faults, admission) are constructed when the spec
is, and the table's checks (rates/windows/SLOs finite and positive, counts
>= 1) run in ``__post_init__``.  Application objects are not instantiated
until ``build_*``.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.apps import APPS, make_app
from repro.atomic import atomic_write
from repro.faults import FAULT_KINDS, FaultConfig
from repro.platforms import PlatformConfig, make_platform
from repro.registry import did_you_mean
from repro.runtime import RuntimeConfig
from repro.scenario_keys import KEYS, SECTIONS, coerce
from repro.sched import SCHEDULERS
from repro.serve import AdmissionConfig, ArrivalSpec
from repro.telemetry import TelemetryConfig
from repro.workload import WORKLOADS, WorkloadEntry, WorkloadSpec, make_workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve import ServeConfig

__all__ = [
    "AppCount",
    "ScenarioError",
    "ScenarioSpec",
    "ServeSection",
    "dump_toml",
    "load_scenario",
]

class ScenarioError(ValueError):
    """A scenario document failed validation (shape or registry names)."""


def _unknown_keys(given, allowed, where: str = "") -> None:
    unknown = sorted(set(given) - set(allowed))
    if not unknown:
        return
    hints = [f"{key!r}{did_you_mean(key, sorted(allowed))}" for key in unknown]
    raise ScenarioError(
        f"{where}{': ' if where else ''}unknown key(s) {', '.join(hints)}; "
        f"allowed: {', '.join(sorted(allowed))}"
    )


def _toml_scalar(value: Any) -> str:
    """Render one scalar as TOML.  Floats use ``repr`` - exact round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is a subset of TOML basic-string syntax
        return json.dumps(value)
    raise ScenarioError(f"cannot render {value!r} as TOML")


def dump_toml(doc: Mapping[str, Any]) -> str:
    """Serialize a canonical scenario document as TOML.

    Understands exactly the shapes :meth:`ScenarioSpec.canonical` emits:
    tables of scalars, nested tables, scalar lists (fault kinds), and
    lists of scalar tables (app streams, rendered as arrays of tables).
    ``None`` values are skipped - TOML has no null; an absent key parses
    back to the same default, keeping dump -> parse bit-identical.
    """
    lines: list[str] = []

    def emit_table(path: str, table: Mapping[str, Any], header: str) -> None:
        if header:
            lines.extend(["", header] if lines else [header])
        nested = []
        for key, value in table.items():
            if isinstance(value, Mapping) or (
                isinstance(value, list) and any(isinstance(v, Mapping) for v in value)
            ):
                nested.append((f"{path}.{key}" if path else key, value))
            elif isinstance(value, (list, tuple)):
                lines.append(f"{key} = [{', '.join(map(_toml_scalar, value))}]")
            elif value is not None:
                lines.append(f"{key} = {_toml_scalar(value)}")
        for sub, value in nested:
            if isinstance(value, Mapping):
                emit_table(sub, value, f"[{sub}]")
            else:
                for item in value:
                    emit_table(sub, item, f"[[{sub}]]")

    emit_table("", doc, "")
    return "\n".join(lines) + "\n"


def _checked(where: str, build, *args, **kwargs):
    """``build(...)``, a failure re-raised as a ``ScenarioError`` after *where*."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where} {exc}".lstrip()) from None


def _params_tuple(value) -> tuple[tuple[str, Any], ...]:
    if value is None:
        return ()
    if not isinstance(value, Mapping):
        raise ScenarioError("must be a table of name = value pairs")
    return tuple(sorted((str(k), v) for k, v in value.items()))


def _parse_kinds(value) -> tuple:
    if isinstance(value, str):
        return FaultConfig.parse_kinds(value)
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"expected a list of fault kinds, got {value!r}")
    return tuple(FAULT_KINDS.get(str(k)).kind for k in value)


def _factory_keys(factory) -> Optional[set[str]]:
    """Keyword names an app factory takes; ``None`` for a ``**`` catch-all,
    whose signature does not say."""
    params = inspect.signature(factory).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return {p.name for p in params}


@dataclass(frozen=True)
class AppCount:
    """One application stream: registered name, instance count, overrides."""

    name: str
    count: int = 1
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        entry = APPS.get(self.name)  # RegistryError lists + suggests
        object.__setattr__(self, "name", entry.name)
        if self.count < 1:
            raise ScenarioError(f"app {self.name!r} count must be >= 1, got {self.count}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        if self.params:
            accepted = _factory_keys(entry.factory)
            if accepted is not None:
                _unknown_keys(dict(self.params), accepted, f"app {self.name!r}")


def _parse_app_list(value) -> tuple[AppCount, ...]:
    """Parse ``apps`` - a CLI-style string or a list of app tables."""
    if isinstance(value, str):
        out = []
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, count = part.partition(":")
            try:
                n = int(count) if count else 1
            except ValueError:
                raise ScenarioError(f"bad count in {part!r}") from None
            out.append(AppCount(name.strip(), n))
        if not out:
            raise ScenarioError("empty app list")
        return tuple(out)
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(
            'must be a non-empty list of app tables or a "NAME:COUNT,..." string'
        )
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, Mapping):
            raise ScenarioError(f"entry {i}: each app must be a table")
        row = dict(item)
        name = row.pop("name", None)
        if name is None:
            raise ScenarioError(f"entry {i}: app table needs a name")
        count = _checked(f"entry {i} count:", coerce, "int", row.pop("count", 1))
        out.append(AppCount(str(name), count, tuple(sorted(row.items()))))
    return tuple(out)


@dataclass(frozen=True)
class ServeSection:
    """The serve-kind half of a spec: tenants, window, admission.  Its keys
    are checked by the :class:`ScenarioSpec` that holds it."""

    duration: float = 0.5
    arrival: str = "poisson:rate=100"
    tenants: int = 1
    slo_ms: float = 50.0
    apps: tuple[AppCount, ...] = (AppCount("PD"), AppCount("TX"))
    admission: AdmissionConfig = AdmissionConfig()


#: key type -> parser: the structured types here, the scalar ones ``coerce``
_PARSE = {"apps": _parse_app_list, "params": _params_tuple, "kinds": _parse_kinds,
          **{name: partial(coerce, name) for name in ("bool", "int", "int?", "float", "str")}}
_ROWS = {(row.section, row.key): row for row in KEYS}
_ALLOWED = {s: {row.key for row in KEYS if row.section == s} for s in SECTIONS}
_ALLOWED["serve"].add("admission")
#: rows with a spec-side check, run by ``ScenarioSpec.__post_init__``
_CHECKED = tuple(row for row in KEYS if row.check is not None)
#: the dotted attributes below a spec field, innermost first, and what
#: their collected keys construct; ``platform_params`` is open - undeclared
#: ``[platform]`` keys are the platform entry's to accept or reject
_NESTED = (
    ("platform_params", lambda **params: tuple(params.items())),
    ("faults", FaultConfig),
    ("serve.admission", AdmissionConfig),
    ("serve", ServeSection),
)
_ABSENT = object()


def _attr(obj, path: str):
    """The value at a dotted attribute path; ``_ABSENT`` below a ``None``."""
    for name in path.split("."):
        if obj is None:
            return _ABSENT
        obj = getattr(obj, name)
    return obj


def _read_section(section: str, body, kind: str, groups: dict) -> None:
    """Coerce one section's keys into ``groups`` (attribute prefix -> name -> value)."""
    if body is None:
        return
    if not isinstance(body, Mapping):
        raise ScenarioError(f"[{section}] must be a table")
    scope = SECTIONS[section]
    if scope not in (None, kind):
        if body:
            raise ScenarioError(
                f"[{section}] is a {scope}-kind section; this scenario is kind = {kind!r}"
            )
        return
    if section != "platform":
        _unknown_keys(body, _ALLOWED[section], f"[{section}]")
    for key, value in body.items():
        if section == "serve" and key == "admission":
            _read_section("serve.admission", value, kind, groups)
            continue
        row = _ROWS.get((section, key))
        if row is None:  # an undeclared platform parameter
            groups.setdefault("platform_params", {})[key] = value
            continue
        prefix, _, name = row.attr.rpartition(".")
        value = _checked(f"[{section}] {key}:", _PARSE[row.type], value)
        groups.setdefault(prefix, {})[name] = value


def _read_document(data) -> dict:
    """Walk a document against the key table: ``ScenarioSpec`` keyword arguments."""
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario document must be a table")
    _unknown_keys(data, [s for s in SECTIONS if "." not in s])
    values: dict[str, Any] = {}
    groups = {"": values}
    _read_section("scenario", data.get("scenario"), "", groups)
    kind = values.get("kind", "run")
    _ROWS["scenario", "kind"].validate(kind)  # scopes the other sections
    if not values.get("name"):
        raise ScenarioError("[scenario] needs a name")
    for section, body in data.items():  # [scenario] again: the same values
        _read_section(section, body, kind, groups)
    if "telemetry" in data:  # the section's presence enables collection
        values.setdefault("telemetry_interval_s", 0.0)
    if "preset" in values and "apps" in values:
        raise ScenarioError("[workload]: give either preset or apps, not both")
    for prefix, build in _NESTED:
        if prefix in groups:
            parent, _, name = prefix.rpartition(".")
            value = _checked(f"[{prefix}]", build, **groups.pop(prefix))
            groups.setdefault(parent, {})[name] = value
    return values


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully named experiment, validated against the registries."""

    name: str
    kind: str = "run"
    seed: int = 0
    trials: int = 1
    platform: str = "zcu102"
    platform_params: tuple[tuple[str, Any], ...] = ()
    scheduler: str = "heft_rt"
    audit: bool = False
    telemetry_interval_s: Optional[float] = None
    # run kind ----------------------------------------------------------- #
    #: RNG label of the workload; "cli" is what ``repro run`` lowers to
    #: (the name participates in arrival/payload stream derivation, so it
    #: is part of the determinism contract)
    workload_name: str = "cli"
    preset: Optional[str] = None
    preset_params: tuple[tuple[str, Any], ...] = ()
    apps: tuple[AppCount, ...] = (AppCount("PD", 2), AppCount("TX", 2))
    arrival: str = "periodic"
    arrival_params: tuple[tuple[str, Any], ...] = ()
    mode: str = "api"
    rate_mbps: float = 200.0
    execute: bool = True
    faults: Optional[FaultConfig] = None
    # serve kind --------------------------------------------------------- #
    serve: Optional[ServeSection] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "platform_params", tuple(sorted(self.platform_params)))
        if self.kind == "serve" and self.serve is None:
            object.__setattr__(self, "serve", ServeSection())
        # the key table's checks (the kind row first), on this kind's keys
        for row in _CHECKED:
            if row.in_scope(self.kind):
                value = _attr(self, row.attr)
                if value is not None:  # an unset telemetry interval
                    _checked("", row.validate, value)
        # the platform config is constructed here, so validation rejects
        # what build_platform would (unknown, wrong type, out of range)
        _checked("[platform]", self.build_platform)
        SCHEDULERS.get(self.scheduler)
        if self.kind == "run":
            # kind + parameter numbers; AppCount validates each app name
            _checked("[workload]:", ArrivalSpec, self.arrival, self.arrival_params)
            if self.preset is not None:
                WORKLOADS.get(self.preset)
        else:
            _checked("[serve]:", ArrivalSpec.parse, self.serve.arrival)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any], *, source: str = "<mapping>") -> "ScenarioSpec":
        """Build a validated spec from a parsed TOML/JSON document.

        Every failure - shape, type, range or registry name - is one
        ``ScenarioError`` naming the document (and its section and key),
        so ``repro scenario validate`` reports it instead of crashing.
        """
        try:
            return cls(**_read_document(data))
        except ValueError as exc:
            sep = " " if str(exc).startswith("[") else ": "  # "<doc> [section] key ..."
            raise ScenarioError(f"{source}{sep}{exc}") from exc

    def canonical(self) -> dict:
        """Fully resolved, JSON-able form: every default explicit.

        Two spellings of the same scenario (key order, omitted defaults,
        TOML vs JSON) canonicalize identically, so :meth:`digest` names
        the experiment, not the document.  Only kind-relevant sections
        appear - a run spec's digest does not move when serve defaults do.
        """
        doc: dict[str, Any] = {}
        for row in KEYS:
            if not row.in_scope(self.kind) or row.attr.startswith("platform_params."):
                continue
            value = _attr(self, row.attr)  # _ABSENT: no [faults]
            empty = value is _ABSENT or (row.optional and value in (None, ()))
            if empty or (row.attr == "apps" and self.preset is not None):
                continue
            if row.type == "apps":
                value = [{"name": a.name, "count": a.count, **dict(a.params)} for a in value]
            elif row.type == "params":
                value = dict(value)
            elif row.type == "kinds":
                value = [k.value for k in value]
            row.place(doc, value)
        doc["platform"].update(self.platform_params)
        return doc

    def digest(self) -> str:
        """Content address of the canonical form (sha256 hex)."""
        import hashlib  # here, not at the top: `repro run` / `serve` take no digest
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # serialization: canonical form back out as a document
    # ------------------------------------------------------------------ #

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """The canonical form as a JSON document (parses back bit-identically)."""
        return json.dumps(self.canonical(), indent=indent, sort_keys=True) + "\n"

    def to_toml(self) -> str:
        """The canonical form as a TOML document (parses back bit-identically;
        an unset fault seed is omitted - TOML has no null)."""
        return dump_toml(self.canonical())

    def save(self, path: Union[str, Path]) -> Path:
        """Write the canonical form to ``path`` (.toml or .json by suffix)."""
        path = Path(path)
        text = self.to_toml() if _format(path) == ".toml" else self.to_json()
        with atomic_write(path) as fh:
            fh.write(text)
        return path

    # ------------------------------------------------------------------ #
    # builders: the only place a run's objects are constructed
    # ------------------------------------------------------------------ #

    def build_platform(self) -> PlatformConfig:
        return make_platform(self.platform, **dict(self.platform_params))

    def build_config(self) -> RuntimeConfig:
        telemetry = None
        if self.telemetry_interval_s is not None:
            telemetry = TelemetryConfig(sample_interval_s=self.telemetry_interval_s)
        return RuntimeConfig(
            scheduler=self.scheduler,
            # serve runs are always timing-only, exactly like ``repro serve``
            execute_kernels=self.execute if self.kind == "run" else False,
            faults=self.faults,
            telemetry=telemetry,
            audit=self.audit,
        )

    def build_workload(self) -> WorkloadSpec:
        if self.kind != "run":
            raise ScenarioError(f"scenario {self.name!r} is serve-kind")
        if self.preset is not None:
            return make_workload(self.preset, **dict(self.preset_params))
        entries = tuple(
            WorkloadEntry(make_app(a.name, **dict(a.params)), a.count)
            for a in self.apps
        )
        return WorkloadSpec(
            name=self.workload_name,
            entries=entries,
            arrival_process=self.arrival,
            arrival_params=self.arrival_params,
        )

    def build_serve(self) -> ServeConfig:
        from repro.serve import ServeConfig, TenantSpec

        if self.kind != "serve":
            raise ScenarioError(f"scenario {self.name!r} is run-kind")
        serve = self.serve
        arrival = ArrivalSpec.parse(serve.arrival)
        apps = tuple(
            make_app(a.name, **dict(a.params))
            for a in serve.apps
            for _ in range(a.count)
        )
        # "tenant" when single, "tenant<i>" otherwise - the names feed RNG
        # labels downstream, so they are part of the determinism contract
        return ServeConfig(
            tenants=tuple(
                TenantSpec(f"tenant{i}" if serve.tenants > 1 else "tenant", arrival,
                           apps=apps, slo_s=serve.slo_ms / 1e3)
                for i in range(serve.tenants)
            ),
            duration=serve.duration,
            admission=serve.admission,
            mode=self.mode,
        )

    def describe(self) -> str:
        """One summary line for CLI listings."""
        if self.kind == "serve":
            serve = self.serve
            body = f"{serve.arrival} x {serve.tenants} tenant(s), {serve.duration:g} s window"
        else:
            workload = self.preset or ",".join(f"{a.name}:{a.count}" for a in self.apps)
            body = f"{workload} @ {self.rate_mbps:g} Mbps {self.mode}"
        return f"{self.name} [{self.kind}] {self.platform}/{self.scheduler}: {body}"


def _format(path: Path) -> str:
    """The document format a path names by its suffix."""
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise ScenarioError(f"{path}: unknown scenario format {suffix!r} (use .toml or .json)")
    return suffix


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Load and validate a ``.toml`` or ``.json`` scenario document."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if _format(path) == ".json":
        parse, errors, name = json.loads, json.JSONDecodeError, "JSON"
    else:
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - Python 3.10
            raise ScenarioError(
                f"{path}: TOML scenario specs need Python >= 3.11 "
                f"(or rewrite the spec as JSON)"
            ) from None
        parse, errors, name = tomllib.loads, tomllib.TOMLDecodeError, "TOML"
    try:
        data = parse(raw.decode("utf-8"))
    except (UnicodeDecodeError, errors) as exc:
        raise ScenarioError(f"{path}: invalid {name}: {exc}") from exc
    return ScenarioSpec.from_mapping(data, source=str(path))
