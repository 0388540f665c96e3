"""Declarative scenario specs: one TOML/JSON document per experiment.

A :class:`ScenarioSpec` names everything a run needs - platform, workload
or serve tenants, scheduler, faults, admission, telemetry, seeds - as
*data*, validated against the plugin registries.  It is the one
construction route: ``repro run`` / ``repro serve`` / ``repro audit diff``
lower their flags to a spec (``repro.cli._lower``) and only the builders
below turn a spec into platform/workload/config objects, so a flag-path
bug is a spec-path bug.  The builders produce objects equal to hand-built
library ones (``WorkloadSpec(...)``, ``ServeConfig(...)``), hence the
sweep cache content-addresses scenario cells together with figure sweeps.

Document shape (TOML; JSON mirrors it)::

    [scenario]
    name = "radar-zcu102"        # required
    kind = "run"                 # "run" (default) or "serve"
    seed = 0
    trials = 1

    [platform]
    name = "zcu102"              # any registered platform
    fft = 1                      # params the platform entry accepts

    [scheduler]
    name = "heft_rt"

    [engine]                     # optional
    audit = false

    [telemetry]                  # optional; presence enables collection
    interval_s = 0.01

    [workload]                   # run kind
    apps = [ {name = "PD", count = 2}, {name = "TX", count = 2} ]
    # or: preset = "radar-comms" (+ params = {n_pd = 5})
    arrival = "periodic"         # any registered arrival process

    [run]                        # run kind
    mode = "api"
    rate_mbps = 200.0
    execute = true

    [faults]                     # optional, run kind
    rate = 25.0
    kinds = ["transient", "hang"]

    [serve]                      # serve kind
    duration = 0.5
    arrival = "poisson:rate=100"
    tenants = 1
    slo_ms = 50.0
    apps = "PD:1,TX:1"

    [serve.admission]
    policy = "shed"
    max_in_system = 32

Unknown sections, unknown keys (an app's parameter overrides included),
and unknown registry names all fail validation with the available entries
and a did-you-mean hint - a typo'd scheduler name dies at ``repro scenario
validate``, not three sweeps in.  Validation rejects what the builders
would: the small frozen configs (platform, telemetry, admission) are
constructed when the spec is, and rates/windows/SLOs must be finite and
positive.  Application objects are not instantiated until ``build_*``.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.apps import APPS, make_app
from repro.faults import FAULT_KINDS, FaultConfig
from repro.platforms import PlatformConfig, make_platform
from repro.runtime import RuntimeConfig
from repro.sched import SCHEDULERS
from repro.serve import AdmissionConfig, ArrivalSpec, ServeConfig, TenantSpec
from repro.telemetry import TelemetryConfig
from repro.workload import WORKLOADS, WorkloadEntry, WorkloadSpec, make_workload

__all__ = [
    "AppCount",
    "ScenarioError",
    "ScenarioSpec",
    "ServeSection",
    "dump_toml",
    "load_scenario",
]

MODES = ("dag", "api")


class ScenarioError(ValueError):
    """A scenario document failed validation (shape or registry names)."""


def _unknown_keys(given, allowed, where: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if not unknown:
        return
    hints = []
    for key in unknown:
        close = difflib.get_close_matches(key, sorted(allowed), n=1)
        hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    raise ScenarioError(
        f"{where}: unknown key(s) {', '.join(hints)}; "
        f"allowed: {', '.join(sorted(allowed))}"
    )


def _positive(value: float, where: str) -> None:
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise ScenarioError(f"{where} must be finite and positive, got {value}")


def _toml_scalar(value: Any, where: str) -> str:
    """Render one scalar as TOML.  Floats use ``repr`` - exact round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ScenarioError(f"{where}: non-finite float {value!r}")
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is a subset of TOML basic-string syntax
        return json.dumps(value)
    raise ScenarioError(f"{where}: cannot render {type(value).__name__} as TOML")


def dump_toml(doc: Mapping[str, Any]) -> str:
    """Serialize a canonical scenario document as TOML.

    Understands exactly the shapes :meth:`ScenarioSpec.canonical` emits:
    tables of scalars, nested tables, scalar lists (fault kinds), and
    lists of scalar tables (app streams, rendered as arrays of tables).
    ``None`` values are skipped - TOML has no null; an absent key parses
    back to the same default, keeping dump -> parse bit-identical.
    """
    lines: list[str] = []

    def is_scalar_list(value: Any) -> bool:
        return isinstance(value, (list, tuple)) and not any(
            isinstance(item, Mapping) for item in value
        )

    def emit_table(path: str, table: Mapping[str, Any], *, array: bool = False) -> None:
        if path:
            if lines:
                lines.append("")
            lines.append(f"[[{path}]]" if array else f"[{path}]")
        nested: list[tuple[str, Any]] = []
        for key, value in table.items():
            where = f"{path or '<root>'}.{key}"
            if value is None:
                continue
            if isinstance(value, Mapping):
                nested.append((key, value))
            elif is_scalar_list(value):
                items = ", ".join(_toml_scalar(v, where) for v in value)
                lines.append(f"{key} = [{items}]")
            elif isinstance(value, (list, tuple)):
                nested.append((key, value))
            else:
                lines.append(f"{key} = {_toml_scalar(value, where)}")
        for key, value in nested:
            sub = f"{path}.{key}" if path else key
            if isinstance(value, Mapping):
                emit_table(sub, value)
            else:
                for item in value:
                    if not isinstance(item, Mapping):
                        raise ScenarioError(
                            f"{sub}: mixed scalar/table list is not TOML-able"
                        )
                    emit_table(sub, item, array=True)

    emit_table("", doc)
    return "\n".join(lines) + "\n"


def _params_tuple(value, where: str) -> tuple[tuple[str, Any], ...]:
    if value is None:
        return ()
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where} must be a table of name = value pairs")
    return tuple(sorted((str(k), v) for k, v in value.items()))


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
            raise ScenarioError(
                f"app {self.name!r} count must be >= 1, got {self.count}"
            )
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        if self.params:
            accepted = _factory_keys(entry.factory)
            if accepted is not None:
                _unknown_keys(dict(self.params), accepted, f"app {self.name!r}")


def _parse_app_list(value, where: str) -> tuple[AppCount, ...]:
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
                raise ScenarioError(f"{where}: bad count in {part!r}") from None
            out.append(AppCount(name.strip(), n))
        if not out:
            raise ScenarioError(f"{where}: empty app list")
        return tuple(out)
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(
            f"{where}: apps must be a non-empty list of app tables "
            f'or a "NAME:COUNT,..." string'
        )
    out = []
    for i, item in enumerate(value):
        if isinstance(item, AppCount):
            out.append(item)
            continue
        if not isinstance(item, Mapping):
            raise ScenarioError(f"{where}[{i}]: each app must be a table")
        row = dict(item)
        name = row.pop("name", None)
        if name is None:
            raise ScenarioError(f"{where}[{i}]: app table needs a name")
        count = row.pop("count", 1)
        out.append(AppCount(str(name), int(count), tuple(sorted(row.items()))))
    return tuple(out)


@dataclass(frozen=True)
class ServeSection:
    """The serve-kind half of a spec: tenants, window, admission."""

    duration: float = 0.5
    arrival: str = "poisson:rate=100"
    tenants: int = 1
    slo_ms: float = 50.0
    apps: tuple[AppCount, ...] = (AppCount("PD"), AppCount("TX"))
    admission: AdmissionConfig = AdmissionConfig()

    def __post_init__(self) -> None:
        ArrivalSpec.parse(self.arrival)  # validates kind, shape and numbers
        if self.tenants < 1:
            raise ScenarioError(f"[serve] tenants must be >= 1, got {self.tenants}")
        _positive(self.duration, "[serve] duration")
        _positive(self.slo_ms, "[serve] slo_ms")


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
        if self.kind not in ("run", "serve"):
            raise ScenarioError(
                f"scenario kind must be 'run' or 'serve', got {self.kind!r}"
            )
        if self.trials < 1:
            raise ScenarioError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in MODES:
            raise ScenarioError(
                f"unknown mode {self.mode!r}; options: {', '.join(MODES)}"
            )
        object.__setattr__(
            self, "platform_params", tuple(sorted(self.platform_params))
        )
        # the small frozen configs are constructed here, so validation
        # rejects what build_platform/build_config would
        try:
            self.build_platform()
        except (TypeError, ValueError) as exc:  # unknown, wrong type, out of range
            raise ScenarioError(f"[platform] {exc}") from None
        if self.telemetry_interval_s is not None:
            try:
                TelemetryConfig(sample_interval_s=self.telemetry_interval_s)
            except ValueError as exc:
                raise ScenarioError(f"[telemetry] interval_s: {exc}") from None
        SCHEDULERS.get(self.scheduler)
        if self.kind == "run":
            _positive(self.rate_mbps, "[run] rate_mbps")
            ArrivalSpec(self.arrival, self.arrival_params)  # kind + parameter numbers
            if self.preset is not None:
                WORKLOADS.get(self.preset)
            # AppCount validates each name on construction
        elif self.serve is None:
            object.__setattr__(self, "serve", ServeSection())

    # ------------------------------------------------------------------ #
    # parsing
    # ------------------------------------------------------------------ #

    _SECTIONS = (
        "scenario", "platform", "scheduler", "engine",
        "telemetry", "workload", "run", "faults", "serve",
    )

    @classmethod
    def from_mapping(
        cls, data: Mapping[str, Any], *, source: str = "<mapping>"
    ) -> "ScenarioSpec":
        """Build a validated spec from a parsed TOML/JSON document."""
        if not isinstance(data, Mapping):
            raise ScenarioError(f"{source}: scenario document must be a table")
        _unknown_keys(data, cls._SECTIONS, source)

        def section(name: str) -> dict:
            value = data.get(name)
            if value is None:
                return {}
            if not isinstance(value, Mapping):
                raise ScenarioError(f"{source}: [{name}] must be a table")
            return dict(value)

        scn = section("scenario")
        _unknown_keys(scn, ("name", "kind", "seed", "trials"), f"{source} [scenario]")
        name = scn.get("name")
        if not name:
            raise ScenarioError(f"{source}: [scenario] needs a name")
        kind = str(scn.get("kind", "run"))

        plat = section("platform")
        platform = str(plat.pop("name", "zcu102"))
        # remaining platform keys ARE the factory parameters; the entry
        # validates them in __post_init__
        platform_params = tuple(sorted(plat.items()))

        sched = section("scheduler")
        _unknown_keys(sched, ("name",), f"{source} [scheduler]")
        scheduler = str(sched.get("name", "heft_rt"))

        engine = section("engine")
        _unknown_keys(engine, ("audit",), f"{source} [engine]")

        telemetry = section("telemetry")
        _unknown_keys(telemetry, ("interval_s",), f"{source} [telemetry]")
        interval = telemetry.get("interval_s") if "telemetry" in data else None
        if interval is not None:
            interval = float(interval)
        elif "telemetry" in data:
            interval = 0.0  # section present, default = final snapshot only

        fields: dict[str, Any] = dict(
            name=str(name),
            kind=kind,
            seed=int(scn.get("seed", 0)),
            trials=int(scn.get("trials", 1)),
            platform=platform,
            platform_params=platform_params,
            scheduler=scheduler,
            audit=bool(engine.get("audit", False)),
            telemetry_interval_s=interval,
        )

        wl = section("workload")
        run = section("run")
        faults = section("faults")
        srv = section("serve")
        # registry lookups inside section parsing (app names, fault kinds,
        # arrival specs) raise RegistryError/ValueError - surface every one
        # as a ScenarioError naming the document, so ``repro scenario
        # validate`` reports it instead of crashing with a traceback
        try:
            if kind == "serve":
                for label, body in (
                    ("workload", wl), ("run", run), ("faults", faults)
                ):
                    if body:
                        raise ScenarioError(
                            f"{source}: [{label}] is a run-kind section; "
                            f"this scenario is kind = 'serve'"
                        )
                fields["serve"] = cls._parse_serve(srv, source, fields)
            else:
                if srv:
                    raise ScenarioError(
                        f"{source}: [serve] is a serve-kind section; "
                        f"this scenario is kind = 'run'"
                    )
                cls._parse_run(wl, run, faults, source, fields)
            return cls(**fields)
        except ValueError as exc:
            if isinstance(exc, ScenarioError) and str(exc).startswith(source):
                raise
            raise ScenarioError(f"{source}: {exc}") from exc

    @classmethod
    def _parse_run(cls, wl, run, faults, source, fields) -> None:
        _unknown_keys(
            wl,
            ("name", "preset", "params", "apps", "arrival", "arrival_params"),
            f"{source} [workload]",
        )
        if "preset" in wl and "apps" in wl:
            raise ScenarioError(
                f"{source} [workload]: give either preset or apps, not both"
            )
        fields["workload_name"] = str(wl.get("name", "cli"))
        if "preset" in wl:
            fields["preset"] = str(wl["preset"])
            fields["preset_params"] = _params_tuple(
                wl.get("params"), f"{source} [workload] params"
            )
        elif "apps" in wl:
            fields["apps"] = _parse_app_list(wl["apps"], f"{source} [workload] apps")
        fields["arrival"] = str(wl.get("arrival", "periodic"))
        fields["arrival_params"] = _params_tuple(
            wl.get("arrival_params"), f"{source} [workload] arrival_params"
        )

        _unknown_keys(run, ("mode", "rate_mbps", "execute"), f"{source} [run]")
        fields["mode"] = str(run.get("mode", "api"))
        fields["rate_mbps"] = float(run.get("rate_mbps", 200.0))
        fields["execute"] = bool(run.get("execute", True))

        if faults:
            allowed = tuple(
                f.name for f in dataclasses.fields(FaultConfig) if f.name != "script"
            )
            _unknown_keys(faults, allowed, f"{source} [faults]")
            kinds = faults.pop("kinds", None)
            if kinds is not None:
                if isinstance(kinds, str):
                    kinds = FaultConfig.parse_kinds(kinds)
                else:
                    kinds = tuple(FAULT_KINDS.get(str(k)).kind for k in kinds)
                faults["kinds"] = kinds
            try:
                fields["faults"] = FaultConfig(**faults)
            except ValueError as exc:
                raise ScenarioError(f"{source} [faults]: {exc}") from exc

    @classmethod
    def _parse_serve(cls, srv, source, fields) -> ServeSection:
        allowed = (
            "duration", "arrival", "tenants", "slo_ms", "apps", "mode", "admission",
        )
        _unknown_keys(srv, allowed, f"{source} [serve]")
        if "mode" in srv:
            fields["mode"] = str(srv["mode"])
        admission = srv.get("admission") or {}
        if not isinstance(admission, Mapping):
            raise ScenarioError(f"{source}: [serve.admission] must be a table")
        adm_allowed = tuple(f.name for f in dataclasses.fields(AdmissionConfig))
        _unknown_keys(admission, adm_allowed, f"{source} [serve.admission]")
        try:
            kwargs: dict[str, Any] = {"admission": AdmissionConfig(**admission)}
        except ValueError as exc:
            raise ScenarioError(f"[serve.admission] {exc}") from None
        if "duration" in srv:
            kwargs["duration"] = float(srv["duration"])
        if "arrival" in srv:
            kwargs["arrival"] = str(srv["arrival"])
        if "tenants" in srv:
            kwargs["tenants"] = int(srv["tenants"])
        if "slo_ms" in srv:
            kwargs["slo_ms"] = float(srv["slo_ms"])
        if "apps" in srv:
            kwargs["apps"] = _parse_app_list(srv["apps"], f"{source} [serve] apps")
        try:
            return ServeSection(**kwargs)
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"{source} [serve]: {exc}") from exc

    # ------------------------------------------------------------------ #
    # canonical form
    # ------------------------------------------------------------------ #

    def canonical(self) -> dict:
        """Fully resolved, JSON-able form: every default explicit.

        Two spellings of the same scenario (key order, omitted defaults,
        TOML vs JSON) canonicalize identically, so :meth:`digest` names
        the experiment, not the document.  Only kind-relevant sections
        appear - a run spec's digest does not move when serve defaults do.
        """
        doc: dict[str, Any] = {
            "scenario": {
                "name": self.name,
                "kind": self.kind,
                "seed": self.seed,
                "trials": self.trials,
            },
            "platform": {"name": self.platform, **dict(self.platform_params)},
            "scheduler": {"name": self.scheduler},
            "engine": {"audit": self.audit},
        }
        if self.telemetry_interval_s is not None:
            doc["telemetry"] = {"interval_s": self.telemetry_interval_s}
        if self.kind == "run":
            workload: dict[str, Any] = {"name": self.workload_name}
            if self.preset is not None:
                workload["preset"] = self.preset
                if self.preset_params:
                    workload["params"] = dict(self.preset_params)
            else:
                workload["apps"] = [
                    {"name": a.name, "count": a.count, **dict(a.params)}
                    for a in self.apps
                ]
            workload["arrival"] = self.arrival
            if self.arrival_params:
                workload["arrival_params"] = dict(self.arrival_params)
            doc["workload"] = workload
            doc["run"] = {
                "mode": self.mode,
                "rate_mbps": self.rate_mbps,
                "execute": self.execute,
            }
            if self.faults is not None:
                row = dataclasses.asdict(self.faults)
                row["kinds"] = [k.value for k in self.faults.kinds]
                row.pop("script", None)
                doc["faults"] = row
        else:
            serve = self.serve
            doc["serve"] = {
                "duration": serve.duration,
                "arrival": serve.arrival,
                "tenants": serve.tenants,
                "slo_ms": serve.slo_ms,
                "mode": self.mode,
                "apps": [
                    {"name": a.name, "count": a.count, **dict(a.params)}
                    for a in serve.apps
                ],
                "admission": dataclasses.asdict(serve.admission),
            }
        return doc

    def digest(self) -> str:
        """Content address of the canonical form (sha256 hex)."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # serialization: canonical form back out as a document
    # ------------------------------------------------------------------ #

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """The canonical form as a JSON document (parses back bit-identically)."""
        return json.dumps(self.canonical(), indent=indent, sort_keys=True) + "\n"

    def to_toml(self) -> str:
        """The canonical form as a TOML document (parses back bit-identically).

        ``None`` values (e.g. an unset fault seed) are omitted - TOML has
        no null - and parse back to the same ``None`` default.
        """
        return dump_toml(self.canonical())

    def save(self, path: Union[str, Path]) -> Path:
        """Write the canonical form to ``path`` (.toml or .json by suffix)."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".toml":
            text = self.to_toml()
        elif suffix == ".json":
            text = self.to_json()
        else:
            raise ScenarioError(
                f"{path}: unknown scenario format {suffix!r} (use .toml or .json)"
            )
        path.write_text(text, encoding="utf-8")
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
                TenantSpec(
                    f"tenant{i}" if serve.tenants > 1 else "tenant",
                    arrival,
                    apps=apps,
                    slo_s=serve.slo_ms / 1e3,
                )
                for i in range(serve.tenants)
            ),
            duration=serve.duration,
            admission=serve.admission,
            mode=self.mode,
            scheduler=self.scheduler,
        )

    def describe(self) -> str:
        """One summary line for CLI listings."""
        if self.kind == "serve":
            body = (
                f"{self.serve.arrival} x {self.serve.tenants} tenant(s), "
                f"{self.serve.duration:g} s window"
            )
        else:
            workload = self.preset or ",".join(
                f"{a.name}:{a.count}" for a in self.apps
            )
            body = f"{workload} @ {self.rate_mbps:g} Mbps {self.mode}"
        return (
            f"{self.name} [{self.kind}] {self.platform}/{self.scheduler}: {body}"
        )


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Load and validate a ``.toml`` or ``.json`` scenario document."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - Python 3.10
            raise ScenarioError(
                f"{path}: TOML scenario specs need Python >= 3.11 "
                f"(or rewrite the spec as JSON)"
            ) from None
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise ScenarioError(f"{path}: invalid TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    else:
        raise ScenarioError(
            f"{path}: unknown scenario format {suffix!r} (use .toml or .json)"
        )
    return ScenarioSpec.from_mapping(data, source=str(path))
