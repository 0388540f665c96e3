"""The figure registry: ``repro figure <id>``'s choices and dispatch table.

The eight builtin figures are ``module:attr`` refs to the rows of
:mod:`repro.experiments.figures`, so ``repro list`` and the argparse
choices name them without importing the figure table (which builds its
workloads and platforms at import); the first lookup imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registry import Registry

__all__ = ["FIGURES", "FigureEntry", "register_figure", "available_figures"]

#: renderer signature: parsed ``repro figure`` namespace -> exit code
RenderFn = Callable[..., int]


@dataclass(frozen=True)
class FigureEntry:
    """One registered figure: renderer + one-line description."""

    name: str
    render: RenderFn
    summary: str = ""


FIGURES: Registry[FigureEntry] = Registry(
    "figure", entry_point_group="repro.figures"
)


def register_figure(name: str, *, summary: str = ""):
    """Decorator registering a ``(args) -> int`` CLI renderer."""

    def deco(render: RenderFn) -> RenderFn:
        FIGURES.register(name, FigureEntry(name, render, summary))
        return render

    return deco


def available_figures() -> tuple[str, ...]:
    """Registered figure names, sorted."""
    return FIGURES.names()


for _name in ("fig5", "fig67", "fig8", "fig9", "fig10a", "fig10b", "resilience", "saturation"):
    FIGURES.register(_name, ref=f"repro.experiments.figures:{_name}")
