"""Per-event code binds enum members once.

On CPython 3.11 an enum member read through its class (``TaskState.READY``)
goes through the enum metaclass and costs several times a module global, and
the functions below run once per event or per task.  Each reads the members
it needs from module-level names bound at import; this guard fails if a
class-qualified read creeps back into one of them.
"""

import ast
import inspect
import textwrap

import pytest

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


@pytest.mark.parametrize("name", HOT)
def test_hot_function_reads_no_enum_member_through_its_class(name):
    tree = ast.parse(textwrap.dedent(inspect.getsource(HOT[name])))
    reads = [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("ThreadState", "TaskState")
    ]
    assert reads == []
