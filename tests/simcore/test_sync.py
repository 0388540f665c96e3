"""Unit tests for the pthread-style synchronization primitives."""

import pytest

from repro.simcore import (
    Compute,
    Condition,
    Engine,
    Mutex,
    SimStateError,
)


def test_mutex_provides_mutual_exclusion():
    eng = Engine(cores=2)
    mtx = Mutex(eng, "m")
    inside = []

    def critical(name):
        yield from mtx.acquire()
        inside.append((name, "in", eng.now))
        yield Compute(0.5)
        inside.append((name, "out", eng.now))
        mtx.release()

    eng.spawn(critical("a"), "a", affinity=eng.cores[0])
    eng.spawn(critical("b"), "b", affinity=eng.cores[1])
    eng.run()
    # sections must not interleave: a in/out then b in/out
    assert [e[1] for e in inside] == ["in", "out", "in", "out"]
    assert inside[1][2] <= inside[2][2]


def test_mutex_fifo_handoff_order():
    eng = Engine(cores=1)
    mtx = Mutex(eng, "m")
    order = []

    def worker(name):
        yield from mtx.acquire()
        order.append(name)
        yield Compute(0.01)
        mtx.release()

    for name in ("first", "second", "third"):
        eng.spawn(worker(name), name)
    eng.run()
    assert order == ["first", "second", "third"]


def test_recursive_acquire_rejected():
    eng = Engine(cores=1)
    mtx = Mutex(eng, "m")

    def bad():
        yield from mtx.acquire()
        yield from mtx.acquire()

    eng.spawn(bad(), "bad")
    with pytest.raises(SimStateError):
        eng.run()


def test_release_without_ownership_rejected():
    eng = Engine(cores=1)
    mtx = Mutex(eng, "m")

    def bad():
        if False:
            yield
        mtx.release()

    eng.spawn(bad(), "bad")
    with pytest.raises(SimStateError):
        eng.run()


def test_release_outside_thread_rejected():
    eng = Engine(cores=1)
    mtx = Mutex(eng, "m")
    with pytest.raises(SimStateError):
        mtx.release()


def test_condition_wait_notify_roundtrip():
    eng = Engine(cores=1)
    mtx = Mutex(eng, "m")
    cond = Condition(mtx, "c")
    state = {"ready": False, "woke_at": None}

    def waiter():
        yield from mtx.acquire()
        while not state["ready"]:
            yield from cond.wait()
        state["woke_at"] = eng.now
        mtx.release()

    def signaller():
        yield Compute(0.3)
        yield from mtx.acquire()
        state["ready"] = True
        cond.notify()
        mtx.release()

    eng.spawn(waiter(), "w")
    eng.spawn(signaller(), "s")
    eng.run()
    assert state["woke_at"] == pytest.approx(0.3)


def test_condition_wait_requires_mutex():
    eng = Engine(cores=1)
    cond = Condition(Mutex(eng, "m"), "c")

    def bad():
        yield from cond.wait()

    eng.spawn(bad(), "bad")
    with pytest.raises(SimStateError):
        eng.run()


def test_notify_all_wakes_every_waiter():
    eng = Engine(cores=4)
    mtx = Mutex(eng, "m")
    cond = Condition(mtx, "c")
    woke = []

    def waiter(name):
        yield from mtx.acquire()
        yield from cond.wait()
        woke.append(name)
        mtx.release()

    def boss():
        yield Compute(0.1)
        yield from mtx.acquire()
        n = cond.notify_all()
        mtx.release()
        return n

    for i in range(3):
        eng.spawn(waiter(i), f"w{i}")
    b = eng.spawn(boss(), "boss")
    eng.run()
    assert sorted(woke) == [0, 1, 2]
    assert b.result == 3


def test_notify_with_no_waiters_returns_zero():
    eng = Engine(cores=1)
    cond = Condition(Mutex(eng, "m"), "c")
    assert cond.notify() == 0
    assert cond.waiting == 0


def test_signal_latency_delays_wakeup():
    eng = Engine(cores=1)
    mtx = Mutex(eng, "m")
    cond = Condition(mtx, "c", signal_latency=0.05)
    times = {}

    def waiter():
        yield from mtx.acquire()
        yield from cond.wait()
        times["woke"] = eng.now
        mtx.release()

    def signaller():
        yield Compute(0.1)
        cond.notify()

    eng.spawn(waiter(), "w")
    eng.spawn(signaller(), "s")
    eng.run()
    assert times["woke"] == pytest.approx(0.15)
