"""Seeded random scenario generator: ``(CorpusConfig, seed) -> specs``.

Every draw comes from a labeled child stream,
``child_rng(seed, f"corpus.{index}.{axis}")``, mirroring the arrival
registry's determinism contract (:mod:`repro.serve.arrival`): the axes
are independent, so restricting one (say, the platform pool) never
perturbs the draws of another, and a given ``(config, seed, index)``
triple names one spec forever.  Axis labels (``kind``, ``platform``,
``scheduler``, ``seed``, ``apps``, ``arrival``, ``rate``, ``mode``,
``faults``, ``serve``) are part of the bit-identity contract - renaming
one is a corpus-breaking change.

Specs dedup through their content digest: :func:`generate_corpus` walks
indices until ``config.n`` distinct digests have been collected, so the
corpus itself is content-addressed and rerunning with the same seed is
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps import APPS
from repro.faults import FaultConfig, FaultKind
from repro.platforms import PLATFORMS
from repro.scenario import AppCount, ScenarioSpec, ServeSection
from repro.sched import SCHEDULERS
from repro.serve import ADMISSION_POLICIES, AdmissionConfig
from repro.simcore import child_rng

__all__ = ["CorpusConfig", "generate_corpus", "generate_spec"]

#: Safe draw ranges (inclusive) for the PE-pool parameters of the
#: built-in platforms.  Ceilings come from each board's fixed worker-core
#: count (zcu102 has 3 ARM worker cores, jetson 7).  Platforms or
#: parameters not listed here (plugins) stay at their registered defaults
#: rather than guessing a range.
PLATFORM_PARAM_RANGES: dict[str, dict[str, tuple[int, int]]] = {
    "zcu102": {"cpu": (1, 3), "fft": (0, 2), "mmult": (0, 1)},
    "jetson": {"cpu": (1, 6), "gpu": (0, 1)},
    "zcu102-biglittle": {
        "cpu": (1, 3),
        "little": (2, 4),
        "fft": (0, 2),
        "mmult": (0, 1),
    },
}

#: DAG-shape knobs per built-in app: each parameter is included with
#: probability 1/2 and drawn from a small menu of values that keep a
#: single cell in the ~0.1 s range.  Apps not listed here (plugins) are
#: generated with default shapes only.
APP_SHAPE_CHOICES: dict[str, dict[str, tuple]] = {
    "PD": {"batch": (4, 8, 16)},
    "TX": {"n_packets": (8, 12, 20), "batch": (2, 4, 5)},
    "RX": {"n_packets": (8, 12, 20), "batch": (2, 5)},
    "LD": {"height": (48, 96), "width": (64, 128), "batch": (16, 32)},
    "TM": {"n_blocks": (8, 16, 32), "block_len": (128, 256)},
}

#: Arrival processes the generator draws for closed-batch (run) specs;
#: ``trace`` is excluded - it needs an external file.
RUN_ARRIVALS = ("periodic", "poisson", "bursty", "diurnal")

#: Arrival kinds for open-stream (serve) specs.
SERVE_ARRIVALS = ("poisson", "periodic", "bursty")


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs of the generator - with ``seed``, the full corpus identity."""

    n: int = 8
    run_fraction: float = 0.7
    platforms: tuple[str, ...] = ()  # () -> every registered platform
    apps: tuple[str, ...] = ()  # () -> every registered app
    schedulers: tuple[str, ...] = ()  # () -> every registered scheduler
    max_entries: int = 3
    max_count: int = 3
    fault_fraction: float = 0.4
    failstop_fraction: float = 0.15
    max_fault_rate: float = 40.0
    min_rate_mbps: float = 25.0
    max_rate_mbps: float = 1000.0
    serve_min_duration: float = 0.05
    serve_max_duration: float = 0.2
    serve_min_rate: float = 50.0
    serve_max_rate: float = 300.0
    max_tenants: int = 3
    trials: int = 1
    name_prefix: str = "corpus"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"corpus size must be >= 1, got {self.n}")
        for frac_name in ("run_fraction", "fault_fraction", "failstop_fraction"):
            frac = getattr(self, frac_name)
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"{frac_name} must be in [0, 1], got {frac}")
        if self.max_entries < 1 or self.max_count < 1:
            raise ValueError("max_entries and max_count must be >= 1")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 < self.min_rate_mbps <= self.max_rate_mbps:
            raise ValueError(
                f"bad rate range [{self.min_rate_mbps}, {self.max_rate_mbps}]"
            )
        if not 0 < self.serve_min_duration <= self.serve_max_duration:
            raise ValueError(
                f"bad serve duration range "
                f"[{self.serve_min_duration}, {self.serve_max_duration}]"
            )
        object.__setattr__(self, "platforms", tuple(self.platforms))
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(self, "schedulers", tuple(self.schedulers))


def _axis_rng(seed: int, index: int, axis: str) -> np.random.Generator:
    """One independent stream per (spec index, axis) - the labeling scheme."""
    return child_rng(seed, f"corpus.{index}.{axis}")


def _choice(rng: np.random.Generator, seq: Sequence):
    return seq[int(rng.integers(len(seq)))]


def _draw_platform(
    config: CorpusConfig, rng: np.random.Generator
) -> tuple[str, tuple[tuple[str, int], ...]]:
    names = config.platforms or PLATFORMS.names()
    entry = PLATFORMS.get(_choice(rng, names))
    ranges = PLATFORM_PARAM_RANGES.get(entry.name, {})
    params = []
    for param in entry.params:
        bounds = ranges.get(param)
        if bounds is None:
            continue  # plugin parameter with no known safe range
        lo, hi = bounds
        params.append((param, int(rng.integers(lo, hi + 1))))
    return entry.name, tuple(params)


def _draw_apps(
    config: CorpusConfig, rng: np.random.Generator
) -> tuple[AppCount, ...]:
    pool = config.apps or APPS.names()
    n_entries = int(rng.integers(1, config.max_entries + 1))
    out = []
    for _ in range(n_entries):
        name = APPS.get(_choice(rng, pool)).name
        count = int(rng.integers(1, config.max_count + 1))
        params = []
        for param, menu in sorted(APP_SHAPE_CHOICES.get(name, {}).items()):
            if float(rng.random()) < 0.5:
                params.append((param, _choice(rng, menu)))
        out.append(AppCount(name, count, tuple(params)))
    return tuple(out)


def _draw_run_arrival(
    rng: np.random.Generator,
) -> tuple[str, tuple[tuple[str, float], ...]]:
    kind = _choice(rng, RUN_ARRIVALS)
    params: list[tuple[str, float]] = []
    if kind == "bursty":
        params = [
            ("burst_len", round(float(rng.uniform(0.02, 0.08)), 4)),
            ("idle_len", round(float(rng.uniform(0.01, 0.05)), 4)),
        ]
    elif kind == "diurnal":
        params = [
            ("floor", round(float(rng.uniform(0.1, 0.5)), 3)),
            ("cycle", round(float(rng.uniform(0.2, 1.0)), 3)),
        ]
    return kind, tuple(params)


def _draw_faults(
    config: CorpusConfig, rng: np.random.Generator
) -> Optional[FaultConfig]:
    if float(rng.random()) >= config.fault_fraction:
        return None
    rate = round(float(rng.uniform(5.0, config.max_fault_rate)), 2)
    recoverable = (FaultKind.TRANSIENT, FaultKind.HANG, FaultKind.SLOWDOWN)
    kinds = tuple(k for k in recoverable if float(rng.random()) < 0.5)
    if not kinds:
        kinds = (FaultKind.TRANSIENT,)
    if float(rng.random()) < config.failstop_fraction:
        kinds = kinds + (FaultKind.FAILSTOP,)
    fault_seed = int(rng.integers(0, 2**31 - 1))
    return FaultConfig(rate=rate, seed=fault_seed, kinds=kinds)


def _draw_serve(
    config: CorpusConfig,
    apps: tuple[AppCount, ...],
    rng: np.random.Generator,
) -> ServeSection:
    duration = round(
        float(rng.uniform(config.serve_min_duration, config.serve_max_duration)), 3
    )
    kind = _choice(rng, SERVE_ARRIVALS)
    rate = round(float(rng.uniform(config.serve_min_rate, config.serve_max_rate)), 1)
    arrival = f"{kind}:rate={rate:g}"
    if kind == "bursty":
        burst = round(float(rng.uniform(0.02, 0.06)), 4)
        idle = round(float(rng.uniform(0.01, 0.04)), 4)
        arrival += f",burst_len={burst:g},idle_len={idle:g}"
    # the serve path instantiates count copies per tenant round-robin,
    # so cap stream counts to keep the admission window meaningful
    serve_apps = tuple(
        AppCount(a.name, min(a.count, 2), a.params) for a in apps
    )
    return ServeSection(
        duration=duration,
        arrival=arrival,
        tenants=int(rng.integers(1, config.max_tenants + 1)),
        slo_ms=float(_choice(rng, (20.0, 40.0, 60.0, 80.0))),
        apps=serve_apps,
        admission=AdmissionConfig(
            policy=_choice(rng, ADMISSION_POLICIES),
            max_in_system=int(rng.integers(8, 33)),
            queue_cap=int(rng.integers(4, 17)),
        ),
    )


def generate_spec(config: CorpusConfig, seed: int, index: int) -> ScenarioSpec:
    """One corpus element - a pure function of ``(config, seed, index)``."""
    kind = (
        "run"
        if float(_axis_rng(seed, index, "kind").random()) < config.run_fraction
        else "serve"
    )
    platform, platform_params = _draw_platform(
        config, _axis_rng(seed, index, "platform")
    )
    scheduler = _choice(
        _axis_rng(seed, index, "scheduler"),
        config.schedulers or SCHEDULERS.names(),
    )
    spec_seed = int(_axis_rng(seed, index, "seed").integers(0, 2**31 - 1))
    apps = _draw_apps(config, _axis_rng(seed, index, "apps"))
    common = dict(
        name=f"{config.name_prefix}-{seed}-{index:04d}",
        kind=kind,
        seed=spec_seed,
        trials=config.trials,
        platform=platform,
        platform_params=platform_params,
        scheduler=scheduler,
    )
    if kind == "serve":
        return ScenarioSpec(
            serve=_draw_serve(config, apps, _axis_rng(seed, index, "serve")),
            **common,
        )
    arrival, arrival_params = _draw_run_arrival(_axis_rng(seed, index, "arrival"))
    rate_rng = _axis_rng(seed, index, "rate")
    # log-uniform over the rate span, matching the paper's geometric sweep
    rate = round(
        float(
            math.exp(
                rate_rng.uniform(
                    math.log(config.min_rate_mbps), math.log(config.max_rate_mbps)
                )
            )
        ),
        1,
    )
    return ScenarioSpec(
        apps=apps,
        arrival=arrival,
        arrival_params=arrival_params,
        mode=_choice(_axis_rng(seed, index, "mode"), ("api", "dag")),
        rate_mbps=rate,
        execute=False,  # corpus cells are timing-only, like repro serve
        faults=_draw_faults(config, _axis_rng(seed, index, "faults")),
        **common,
    )


def generate_corpus(
    config: CorpusConfig, seed: int = 0
) -> tuple[ScenarioSpec, ...]:
    """``config.n`` distinct specs (dedup by content digest), in index order."""
    specs: list[ScenarioSpec] = []
    seen: set[str] = set()
    index = 0
    limit = config.n * 8 + 64
    while len(specs) < config.n and index < limit:
        spec = generate_spec(config, seed, index)
        index += 1
        digest = spec.digest()
        if digest in seen:
            continue
        seen.add(digest)
        specs.append(spec)
    if len(specs) < config.n:
        raise ValueError(
            f"corpus generator found only {len(specs)} distinct specs in "
            f"{limit} draws; widen the config (more platforms/apps/ranges) "
            f"or shrink n={config.n}"
        )
    return tuple(specs)
