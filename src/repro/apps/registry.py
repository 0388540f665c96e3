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
from typing import TYPE_CHECKING, Callable

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from .base import CedrApplication

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


# the builtins, CLI-sized (small batches keep interactive runs snappy; the
# figure drivers construct the paper-sized apps directly): each is its
# module's ``APP_ENTRY``, so listing the names imports no application.
# Factories are partials, keeping each class's own signature visible,
# which is what the scenario layer validates parameter overrides against.
for _name, _module in (("LD", "lane_detection"), ("PD", "pulse_doppler"), ("RX", "wifi_rx"),
                       ("TM", "temporal_mitigation"), ("TX", "wifi_tx")):
    APPS.register(_name, ref=f"repro.apps.{_module}:APP_ENTRY")
