"""The deletion stays deleted: one engine, one rate formula, no selectors.

The simulator used to ship {heap, wheel} x {objects, flat}, each axis
selectable six ways, with the processor-sharing rate spelled in six mirrors,
and later a timer wheel beside the heap it was proven equal to.  These
checks fail the moment a second copy or a selector creeps back in.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro.simcore
from repro.runtime import RuntimeConfig
from repro.scenario import ScenarioError, ScenarioSpec
from repro.simcore import Engine

SIMCORE = Path(repro.simcore.__file__).parent
SOURCES = {path.name: path.read_text() for path in sorted(SIMCORE.glob("*.py"))}

#: the rate denominator's penalty term, in any spelling: ``<x>alpha * (k - 1)``
RATE_TERM = re.compile(r"alpha\s*\*\s*\(\s*\w+\s*-\s*1\s*\)")


def test_ps_rate_formula_is_spelled_once():
    hits = [
        (name, match.group(0))
        for name, text in SOURCES.items()
        for match in RATE_TERM.finditer(text)
    ]
    assert hits == [("cores.py", "alpha * (k - 1)")], hits
    assert "def share_rate" in SOURCES["cores.py"]


def test_timers_are_one_heap_the_engine_owns():
    """The calendar-queue wheel and the engine's earliest-timer cache are
    gone: pending timers are the engine's own heapq list."""
    assert "timerwheel.py" not in SOURCES
    assert not hasattr(repro.simcore, "TimerWheel")
    for name, text in SOURCES.items():
        assert "_timer_next" not in text and "TimerWheel" not in text, name
    engine = Engine()
    assert type(engine._timers) is list and not hasattr(engine, "_timer_next")


def test_engine_constructor_takes_cores_and_seed_only():
    params = list(inspect.signature(Engine.__init__).parameters)
    assert params == ["self", "cores", "seed"]


def test_simcore_reads_no_environment():
    for name, text in SOURCES.items():
        assert "environ" not in text and "getenv" not in text, name


def test_no_engine_selector_in_config_or_spec():
    for cls in (RuntimeConfig, ScenarioSpec):
        names = {f.name for f in dataclasses.fields(cls)}
        assert not names & {"event_core", "core_impl"}, cls.__name__


@pytest.mark.parametrize("key,value", [("event_core", "wheel"), ("core_impl", "flat")])
def test_removed_engine_keys_are_unknown_keys(key, value):
    doc = {
        "scenario": {"name": "old-spec"},
        "workload": {"apps": "PD:1"},
        "engine": {"audit": True, key: value},
    }
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping(doc, source="<test>")
    message = str(err.value)
    assert "[engine]" in message and repr(key) in message
    assert message.endswith("allowed: audit")
