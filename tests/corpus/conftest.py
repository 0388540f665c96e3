"""Corpus-test fixtures: a registered evil scheduler and small configs."""

from __future__ import annotations

import pytest

from repro.corpus import CorpusConfig
from repro.sched import SCHEDULERS

EVIL_DROP = "evil-drop"


class EvilDropScheduler:
    """ETF wrapper that silently drops the last assignment every round.

    The corpus registers this under a real scheduler name so the standard
    ``SCHEDULERS.create`` path inside ``run_cell`` builds it - the daemon
    must then refuse the dropped dispatch as ``queue-accounting``.
    """

    def __init__(self):
        self._inner = SCHEDULERS.create("etf")

    def round_cost(self, n_tasks, n_pes):
        return self._inner.round_cost(n_tasks, n_pes)

    def schedule(self, batch, pes, now, estimate):
        return self._inner.schedule(batch, pes, now, estimate)[:-1]


@pytest.fixture
def evil_scheduler():
    """Register the assignment-dropping scheduler for one test."""
    SCHEDULERS.register(EVIL_DROP, EvilDropScheduler)
    try:
        yield EVIL_DROP
    finally:
        SCHEDULERS.unregister(EVIL_DROP)


@pytest.fixture
def small_config():
    """A tiny all-run corpus on zcu102 - cheap enough for tier-1."""
    return CorpusConfig(n=2, run_fraction=1.0, platforms=("zcu102",))
