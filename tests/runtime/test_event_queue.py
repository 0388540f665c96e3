"""EventQueue tests: the single-consumer mailbox of the daemon and of
every worker."""

import numpy as np
import pytest

from repro.apps import PulseDoppler
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig, Task
from repro.runtime.daemon import EventQueue
from repro.runtime.worker import SHUTDOWN
from repro.simcore import Compute, Engine, SimStateError


def test_post_then_get_batch_drains_everything():
    eng = Engine(cores=1)
    q = EventQueue(eng)
    got = []

    def consumer():
        batch = yield from q.get_batch()
        got.extend(batch)

    q.post(("a", 1))
    q.post(("b", 2))
    eng.spawn(consumer(), "daemon")
    eng.run()
    assert got == [("a", 1), ("b", 2)]


def test_get_batch_blocks_until_post():
    eng = Engine(cores=1)
    q = EventQueue(eng)
    woke = {}

    def consumer():
        batch = yield from q.get_batch()
        woke["at"] = eng.now
        woke["batch"] = batch

    eng.spawn(consumer(), "daemon")
    eng.call_at(0.3, lambda: q.post(("late", None)))
    eng.run()
    assert woke["at"] == pytest.approx(0.3)
    assert woke["batch"] == [("late", None)]


def test_posts_during_consumer_work_batch_up():
    eng = Engine(cores=1)
    q = EventQueue(eng)
    batches = []

    def consumer():
        for _ in range(2):
            batch = yield from q.get_batch()
            batches.append(list(batch))
            yield Compute(0.5)  # while busy, more events accumulate

    def producer():
        yield from ()
        return None

    eng.spawn(consumer(), "daemon")
    q.post(("first", None))
    for t in (0.1, 0.2, 0.3):
        eng.call_at(t, lambda t=t: q.post(("during", t)))
    eng.run()
    assert batches[0] == [("first", None)]
    assert [kind for kind, _ in batches[1]] == ["during"] * 3


def test_second_consumer_rejected():
    eng = Engine(cores=2)
    q = EventQueue(eng)

    def consumer():
        yield from q.get_batch()

    eng.spawn(consumer(), "daemon1")
    eng.spawn(consumer(), "daemon2")
    with pytest.raises(SimStateError, match="single consumer"):
        eng.run()


# --------------------------------------------------------------------- #
# the worker-mailbox face: get() one item at a time, len() for the drain
# --------------------------------------------------------------------- #


def test_get_returns_items_in_fifo_order_one_at_a_time():
    eng = Engine(cores=1)
    q = EventQueue(eng)
    got = []

    def worker():
        while True:
            item = yield from q.get()
            if item is SHUTDOWN:
                return
            got.append((item, len(q)))
            yield Compute(0.25)  # busy: later posts queue up behind

    eng.spawn(worker(), "worker")
    q.post("a")
    q.post("b")
    eng.call_at(0.1, lambda: q.post("c"))
    eng.call_at(0.9, lambda: q.post("d"))  # worker is parked again by then
    eng.call_at(0.9, lambda: q.post(SHUTDOWN))
    eng.run()
    # (item, what was still queued when it was taken)
    assert got == [("a", 1), ("b", 1), ("c", 0), ("d", 1)]
    assert len(q) == 0


def test_get_wakes_the_parked_consumer_once_per_post_burst():
    """Two posts while the consumer is parked: one wake, the second item is
    found queued - the engine would reject a second wake of a ready thread."""
    eng = Engine(cores=1)
    q = EventQueue(eng)
    got = []

    def worker():
        for _ in range(2):
            got.append((yield from q.get()))

    eng.spawn(worker(), "worker")

    def burst():
        q.post(1)
        q.post(2)

    eng.call_at(0.5, burst)
    eng.run()
    assert got == [1, 2]


def test_second_get_consumer_rejected():
    eng = Engine(cores=2)
    q = EventQueue(eng)

    def worker():
        yield from q.get()

    eng.spawn(worker(), "worker1")
    eng.spawn(worker(), "worker2")
    with pytest.raises(SimStateError, match="single consumer"):
        eng.run()


def _runtime():
    runtime = CedrRuntime(zcu102(n_cpu=2, n_fft=1).build(seed=0),
                          RuntimeConfig(scheduler="rr", execute_kernels=False))
    runtime.start()
    return runtime


def test_work_in_flight_sees_tasks_still_queued_in_a_mailbox():
    runtime = _runtime()
    assert not runtime._work_in_flight()
    pe = runtime.platform.pes[0]
    runtime.mailboxes[pe.index].post(Task(api="zip", params={"n": 64}, app_id=0))
    assert len(runtime.mailboxes[pe.index]) == 1
    assert runtime._work_in_flight()


def test_shutdown_sentinel_drains_every_worker():
    runtime = _runtime()
    app = PulseDoppler(batch=16).make_instance("api", np.random.default_rng(0), timing_only=True)
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    assert app.finished
    assert not runtime.engine.threads  # every worker took SHUTDOWN and finished
    assert all(len(box) == 0 for box in runtime.mailboxes.values())
