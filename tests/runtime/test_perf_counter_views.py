"""No wrappers creep back over the book.

``PerfCounters`` stores host-side measurements; its only simulated
properties are the seven ledger views the end-to-end benchmark's tracer
reads.  Every other simulated number is spelled one way, as a ``Logbook``
read (``incident_counts()``, ``ready_depths()``, ``mean_time_to_recovery()``,
``closed``), and ``snapshot()`` builds the ``--perf-json`` document from the
book directly.
"""

import re
from pathlib import Path

import pytest

from repro.runtime import Logbook, PerfCounters

TRACING = Path(__file__).parents[2] / "benchmarks" / "e2e" / "tracing.py"

#: the views ``benchmarks/e2e/tracing.py`` reads off ``runtime.counters``
LEDGER_VIEWS = {
    "tasks_completed", "sched_rounds", "ready_depth_sum", "ready_depth_max",
    "faults_injected", "retries", "task_failures",
}


def test_public_properties_are_the_ledger_views_and_throughput():
    public = {
        name for name in dir(PerfCounters)
        if not name.startswith("_") and isinstance(getattr(PerfCounters, name), property)
    }
    assert public == LEDGER_VIEWS | {"events_per_wall_sec"}


def test_the_ledger_views_are_what_the_tracer_reads():
    """When the tracer stops reading a view, it goes too."""
    reads = set(re.findall(r"\bc\.(\w+)", TRACING.read_text(encoding="utf-8")))
    assert reads == LEDGER_VIEWS


@pytest.mark.parametrize("name", ["apps_completed", "per_pe", "tasks_lost", "mean_time_to_recovery"])
def test_a_deleted_view_cannot_come_back_as_an_attribute(name):
    counters = PerfCounters(Logbook())
    assert not hasattr(counters, name)
    with pytest.raises(AttributeError):  # slotted: no ad-hoc tallies either
        setattr(counters, name, 1)
