"""Task descriptor and completion-handle tests."""

from dataclasses import fields

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.runtime.task import CompletionHandle, Task, TaskState
from repro.simcore import Compute, Engine


def test_task_defaults():
    t = Task(api="fft", params={"n": 64}, app_id=1)
    assert t.state is TaskState.CREATED
    assert t.n_deps == 0
    assert t.successors == []


#: the leading fields ``DagProgram.instantiate`` passes positionally, in
#: declaration order: moving one would silently shift the values it gets
POSITIONAL = (
    "api", "params", "app_id", "name", "payload", "input_keys", "output_key", "cpu_fn",
    "successors", "n_deps", "completion", "rank", "cost_row", "tid",
)


def test_positional_fields_keep_their_order():
    assert tuple(f.name for f in fields(Task))[:len(POSITIONAL)] == POSITIONAL
    values = ("fft", {"n": 64}, 3, "f", None, ("x",), "y", None, [], 2, None, 1.5, 4, 9)
    task = Task(*values)
    assert tuple(getattr(task, name) for name in POSITIONAL) == values
    assert task.state is TaskState.CREATED and task.est_used == 0.0


def _tids_of_a_run() -> tuple[list[int], int]:
    """The tids one API and one DAG Pulse Doppler run recorded, sorted, and
    the next tid its runtime would have issued."""
    runtime = CedrRuntime(zcu102().build(seed=0), RuntimeConfig(execute_kernels=False))
    runtime.start()
    rng = np.random.default_rng(0)
    for mode in ("api", "dag"):
        runtime.submit(PulseDoppler(batch=8).make_instance(mode, rng, timing_only=True), at=0.0)
    runtime.seal()
    runtime.run()
    return sorted(runtime.logbook.tasks.column("tid")), next(runtime.tids)


def test_task_ids_unique():
    """Each runtime issues its tids dense from 0, so a second runtime in the
    same process numbers its tasks exactly as the first did; a task no
    runtime built carries -1 and is still only equal to itself."""
    tids, issued = _tids_of_a_run()
    assert tids == list(range(issued)) and issued > 0
    assert _tids_of_a_run() == (tids, issued)
    a = Task(api="fft", params={}, app_id=0)
    b = Task(api="fft", params={}, app_id=0)
    assert a.tid == b.tid == -1 and a != b and len({a, b}) == 2


def test_push_ready_from_app_refuses_a_task_no_runtime_numbered():
    """A hand-built task keeps its ``-1`` tid, and every completion of such
    tasks would be recorded under that one tid (the audit's
    ``exactly-once`` fails); the push names the task and its app instead."""
    runtime = CedrRuntime(zcu102().build(seed=0), RuntimeConfig(execute_kernels=False))
    runtime.start()
    with pytest.raises(ValueError, match=r"task 'fft0' of app 3 has no tid"):
        runtime.push_ready_from_app(Task(api="fft", params={"n": 256}, app_id=3, name="fft0"))
    numbered = Task(api="fft", params={"n": 256}, app_id=3, tid=next(runtime.tids))
    runtime.push_ready_from_app(numbered)
    assert list(runtime.ready) == [numbered]


def test_add_successor_bumps_deps():
    a = Task(api="fft", params={}, app_id=0)
    b = Task(api="zip", params={}, app_id=0)
    a.add_successor(b)
    assert b.n_deps == 1
    assert a.successors == [b]


def test_task_and_pe_take_no_ad_hoc_attributes():
    """The per-task records are slotted: a stray attribute is an error, not
    a silent ``__dict__`` entry."""
    task = Task(api="fft", params={"n": 64}, app_id=0)
    pe = zcu102().build().pes[0]
    for record in (task, pe):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1


def test_timing_properties():
    t = Task(api="fft", params={}, app_id=0)
    t.t_release, t.t_scheduled, t.t_start, t.t_finish = 1.0, 2.0, 3.0, 5.0
    assert t.queue_wait == pytest.approx(1.0)
    assert t.service_time == pytest.approx(2.0)


def test_completion_handle_fig4_protocol():
    """App thread sleeps in wait(); worker signals via complete()."""
    eng = Engine(cores=2)
    handle = CompletionHandle(eng)
    events = []

    def app_thread():
        value = yield from handle.wait()
        events.append(("woke", eng.now, value))

    def worker_thread():
        yield Compute(0.3)
        handle.complete("result!")

    eng.spawn(app_thread(), "app")
    eng.spawn(worker_thread(), "worker")
    eng.run()
    assert events == [("woke", pytest.approx(0.3), "result!")]


def test_completion_wait_after_complete_is_immediate():
    eng = Engine(cores=1)
    handle = CompletionHandle(eng)

    def worker():
        handle.complete(42)
        yield Compute(0.0)

    def late_waiter():
        yield Compute(0.5)
        value = yield from handle.wait()
        return value

    eng.spawn(worker(), "w")
    late = eng.spawn(late_waiter(), "late")
    eng.run()
    assert late.result == 42
    assert late.finished_at == pytest.approx(0.5)  # no extra blocking


def test_completion_wait_is_idempotent():
    eng = Engine(cores=1)
    handle = CompletionHandle(eng)

    def worker():
        handle.complete("x")
        yield Compute(0.0)

    def waiter():
        a = yield from handle.wait()
        b = yield from handle.wait()
        return (a, b)

    eng.spawn(worker(), "w")
    t = eng.spawn(waiter(), "waiter")
    eng.run()
    assert t.result == ("x", "x")


def test_multiple_waiters_all_wake():
    eng = Engine(cores=4)
    handle = CompletionHandle(eng)
    woke = []

    def waiter(i):
        yield from handle.wait()
        woke.append(i)

    def worker():
        yield Compute(0.1)
        handle.complete(None)

    for i in range(3):
        eng.spawn(waiter(i), f"w{i}")
    eng.spawn(worker(), "worker")
    eng.run()
    assert sorted(woke) == [0, 1, 2]
