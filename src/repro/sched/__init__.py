"""CEDR scheduling heuristics.

The paper's evaluation uses RR, EFT, ETF, and HEFT_RT
(:func:`paper_schedulers`); the wider CEDR ecosystem's scheduler studies
also include MET and random mapping, provided here for the ablation
benches.  Importing this package registers everything in
:data:`SCHEDULERS` (the typed plugin registry from :mod:`repro.registry`);
instantiate by name through ``SCHEDULERS.create(name, ...)``.  Third-party
packages plug in via :func:`register_scheduler` or the
``repro.schedulers`` entry-point group.
"""

from .base import (
    SCHEDULERS,
    Scheduler,
    SchedulerError,
    available_schedulers,
    register_scheduler,
)
from .eft import EarliestFinishTime
from .etf import EarliestTaskFirst
from .heft_rt import HeftRT, upward_ranks
from .met import MinimumExecutionTime
from .random_sched import RandomScheduler
from .rr import RoundRobin

#: the paper's heuristics, in the order its figures present them
_PAPER_ORDER = ("rr", "eft", "etf", "heft_rt")


def paper_schedulers() -> tuple[str, ...]:
    """The paper's four heuristics, in figure presentation order."""
    return tuple(name for name in _PAPER_ORDER if name in SCHEDULERS)


def extra_schedulers() -> tuple[str, ...]:
    """Every registered heuristic beyond the paper's four, sorted.

    Registry-backed: a scheduler plugged in by a third-party package (or a
    test) shows up here - and therefore in ``repro list`` - automatically.
    """
    paper = set(_PAPER_ORDER)
    return tuple(name for name in SCHEDULERS.names() if name not in paper)


__all__ = [
    "Scheduler",
    "SchedulerError",
    "SCHEDULERS",
    "register_scheduler",
    "available_schedulers",
    "paper_schedulers",
    "extra_schedulers",
    "RoundRobin",
    "EarliestFinishTime",
    "EarliestTaskFirst",
    "HeftRT",
    "MinimumExecutionTime",
    "RandomScheduler",
    "upward_ranks",
]
