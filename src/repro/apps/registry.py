"""Application registry: named constructors for the benchmark apps.

The CLI historically hard-wired its app table (``APP_FACTORIES``) with
run-sized defaults (small batches keep ``repro run`` snappy); this module
is that table as a :class:`repro.registry.Registry`, shared by the CLI,
the scenario layer, and ``repro list``.  Names are case-insensitive and
canonically UPPERCASE (``pd`` == ``PD``).  Factories accept keyword
overrides, so a scenario spec can say ``{name = "PD", batch = 16}`` and
get a bigger radar batch than the CLI default.

Third-party applications plug in via :func:`register_app` or the
``repro.apps`` entry-point group; anything registered here is immediately
usable in ``repro run --apps``, serve tenant mixes, and scenario specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.registry import Registry

from .base import CedrApplication
from .lane_detection import LaneDetection
from .pulse_doppler import PulseDoppler
from .temporal_mitigation import TemporalMitigation
from .wifi_rx import WifiRx
from .wifi_tx import WifiTx

__all__ = [
    "APPS",
    "AppEntry",
    "register_app",
    "make_app",
    "available_apps",
]


@dataclass(frozen=True)
class AppEntry:
    """One registered application: factory + one-line description."""

    name: str
    factory: Callable[..., CedrApplication]
    summary: str = ""


APPS: Registry[AppEntry] = Registry(
    "application", entry_point_group="repro.apps", normalize=str.upper
)


def register_app(name: str, *, summary: str = ""):
    """Decorator registering a ``(**params) -> CedrApplication`` factory."""

    def deco(factory: Callable[..., CedrApplication]):
        APPS.register(name, AppEntry(str(name).upper(), factory, summary))
        return factory

    return deco


def make_app(name: str, **params) -> CedrApplication:
    """Construct a registered application by name."""
    return APPS.get(name).factory(**params)


def available_apps() -> tuple[str, ...]:
    """Registered application names, sorted."""
    return APPS.names()


# CLI-sized defaults: small batches keep interactive runs snappy; the
# figure drivers construct the paper-sized apps directly.  Partials keep
# each class's own signature visible, which is what the scenario layer
# validates parameter overrides against.

register_app("PD", summary="Pulse-Doppler radar (FFT-heavy)")(
    partial(PulseDoppler, batch=8)
)
register_app("TX", summary="WiFi transmitter baseband chain")(
    partial(WifiTx, batch=5)
)
register_app("RX", summary="WiFi receiver baseband chain (CPU-heavy)")(
    partial(WifiRx, batch=5)
)
register_app("LD", summary="Lane detection vision pipeline")(
    partial(LaneDetection, height=135, width=240, batch=32)
)
register_app("TM", summary="Temporal interference mitigation (GEMM/MMULT)")(
    partial(TemporalMitigation, n_blocks=32)
)
