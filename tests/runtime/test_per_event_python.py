"""Per-event code pays no host-only detour.

On CPython 3.11 an enum member read through its class (``TaskState.READY``)
goes through the enum metaclass and costs several times a module global, and
the functions below run once per event or per task.  Each reads the members
it needs from module-level names bound at import; this guard fails if a
class-qualified read creeps back into one of them.  The fault path's
per-dispatch and per-fault functions also make no ``max`` / ``min`` builtin
call and read no ``.value`` (on an enum member, a Python-level property).
Three more guards: a worker's park / unpark is one ``Core.spin`` call, not
the ``spinners`` property's getter and setter, the engine loop keeps its
per-core scratch on the cores, not in per-run lists indexed by position,
and a DAG instance builds its tasks from positional arguments only.
"""

import ast
import inspect
import textwrap

import pytest

from repro.dag import DagProgram
from repro.faults.inject import FaultInjector
from repro.runtime.daemon import CedrRuntime
from repro.runtime.logbook import Logbook
from repro.runtime.worker import worker_body
from repro.simcore import Engine

HOT = {
    "Engine.wake": Engine.wake,
    "worker_body": worker_body,
    "CedrRuntime._schedule_round": CedrRuntime._schedule_round,
    "CedrRuntime.push_ready_from_app": CedrRuntime.push_ready_from_app,
    "CedrRuntime._handle_task_done": CedrRuntime._handle_task_done,
    "Logbook.record_task": Logbook.record_task,
}

#: the fault path: once per round, per dispatch, per fault
FAULT_PATH = {
    "CedrRuntime._filter_schedulable": CedrRuntime._filter_schedulable,
    "CedrRuntime._arm_watchdog": CedrRuntime._arm_watchdog,
    "FaultInjector._fire": FaultInjector._fire,
}
HOT.update(FAULT_PATH)


def _tree(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


@pytest.mark.parametrize("name", HOT)
def test_hot_function_reads_no_enum_member_through_its_class(name):
    tree = _tree(HOT[name])
    reads = [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("ThreadState", "TaskState")
    ]
    assert reads == []


@pytest.mark.parametrize("name", FAULT_PATH)
def test_fault_path_calls_no_max_or_min_and_reads_no_value(name):
    detours = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(_tree(FAULT_PATH[name]))
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min")
        )
        or (isinstance(node, ast.Attribute) and node.attr == "value")
    ]
    assert detours == []


def test_dag_instances_build_their_tasks_positionally():
    """A keyword call costs nearly twice a positional one per task;
    ``tests/runtime/test_task.py`` pins the field order this relies on."""
    calls = [
        node for node in ast.walk(_tree(DagProgram.instantiate))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "Task"
    ]
    assert len(calls) == 1
    assert [kw.arg for kw in calls[0].keywords] == []


def test_worker_toggles_spinners_through_spin_only():
    tree = ast.parse(textwrap.dedent(inspect.getsource(worker_body)))
    touches = [
        f"{type(node.ctx).__name__} line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "spinners"
    ]
    assert touches == []
    spins = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "spin"
    ]
    assert len(spins) == 2  # spin(1) on park, spin(-1) on unpark


def test_engine_loop_keeps_no_per_position_scratch_lists():
    """The rate and its memo live on ``Core`` (``_rate`` / ``_memo``)."""
    assert {"rates", "memo"}.isdisjoint(Engine.run.__code__.co_varnames)
