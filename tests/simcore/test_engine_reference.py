"""The production engine loop vs the per-object reference loop, bit for bit.

``Engine.run`` fuses completion, re-dispatch and admission into one batch
and keeps pending lists unordered mid-run; ``ReferenceEngine`` (the loop it
replaced, kept verbatim in ``reference_engine.py``, test-side only) bounces
every completion through the ready deque and a tuple ``heapq``.  They must
agree *bit-for-bit* - not approximately.  These tests run the same mixed
workloads over the whole request vocabulary - ``Compute`` (pinned,
floating, and zero-work re-queues), ``Sleep``, ``Block`` (mutex/condvar
traffic) and ``AcquireDevice`` (held across sleeps and compute) - plus
spinners and ``until`` stepping under both and compare float state by
``.hex()``, so a single-ulp drift fails loudly.
"""

import random
from functools import partial

import pytest

from repro.simcore import (
    AcquireDevice,
    Block,
    Compute,
    Core,
    Engine,
    Condition,
    Mutex,
    Request,
    SimDeadlock,
    SimStateError,
    Sleep,
    ThreadState,
)
from reference_engine import ReferenceEngine

ENGINES = {"reference": ReferenceEngine, "production": Engine}

# --------------------------------------------------------------------- #
# differential harness
# --------------------------------------------------------------------- #


def _mixed_workload(engine):
    """A workload touching every dispatch path: pinned + floating compute,
    sleeps, mutex/condvar chains, zero-work requeues, held devices."""
    cores = engine.cores
    mtx = Mutex(engine)
    cv = Condition(mtx, signal_latency=1e-6)
    shared = {"n": 0}

    def worker(i):
        r = random.Random(1000 + i)
        for _ in range(30):
            yield Compute(r.uniform(1e-6, 5e-4))
            if r.random() < 0.3:
                yield Sleep(r.uniform(1e-6, 1e-3))
            if r.random() < 0.2:
                yield from mtx.acquire()
                shared["n"] += 1
                if shared["n"] % 3 == 0:
                    cv.notify_all()
                mtx.release()
            if r.random() < 0.2:
                yield Compute(0.0)  # zero-work re-queue: the vocabulary's yield
        yield from mtx.acquire()
        shared["n"] += 1
        cv.notify_all()
        mtx.release()
        return i

    def waiter():
        for _ in range(4):
            yield from mtx.acquire()
            while shared["n"] < 8:
                yield from cv.wait()
            mtx.release()
            yield Compute(2e-4)
        return "w"

    threads = []
    for i in range(10):
        aff = cores[i % len(cores)] if i % 3 == 0 else None
        threads.append(engine.spawn(worker(i), name=f"w{i}", affinity=aff))
    threads.append(engine.spawn(waiter(), name="waiter"))

    dev = engine.add_device("fft")

    def devuser(i):
        r = random.Random(77 + i)
        for _ in range(12):
            yield Compute(r.uniform(1e-6, 1e-4))
            yield AcquireDevice(dev)
            yield Sleep(r.uniform(1e-5, 1e-4))  # timed occupancy
            dev.release(engine.current)
        yield AcquireDevice(dev)
        yield Compute(1e-5)
        dev.release(engine.current)
        return "d"

    for i in range(2):
        threads.append(engine.spawn(devuser(i), name=f"d{i}"))
    return threads


def _snapshot(engine, threads):
    """Exact observable state: floats as hex so a one-ulp drift fails.

    Pending segments are compared as *sorted multisets* of ``(finish,
    name, work)`` - list order and the sequence-counter values are
    implementation details (the production loop keeps pending lists
    unordered), only entry identity and pop order are observable.
    """
    return dict(
        now=engine.now.hex(),
        events=engine.events_processed,
        timers=engine.timers_fired,
        cpu=[t.cpu_time.hex() for t in threads],
        states=[t.state.value for t in threads],
        fin=[
            (t.name, None if t.finished_at is None else t.finished_at.hex(), t.result)
            for t in threads
        ],
        delivered=[c.delivered.hex() for c in engine.cores],
        busy=[c.busy_time.hex() for c in engine.cores],
        virt=[c._virtual.hex() for c in engine.cores],
        heaps=[
            sorted((e[0].hex(), e[2].name, e[3].hex()) for e in c._pending)
            for c in engine.cores
        ],
        late=engine.late_timers,
    )


@pytest.mark.parametrize("seed,ncores", [(7, 4), (11, 1), (13, 8)])
def test_engine_matches_reference_bit_for_bit(seed, ncores):
    snaps = {}
    for impl, cls in ENGINES.items():
        eng = cls(cores=ncores, seed=seed)
        threads = _mixed_workload(eng)
        eng.run()
        snaps[impl] = _snapshot(eng, threads)
    assert snaps["reference"] == snaps["production"]


@pytest.mark.parametrize("step", [7.3e-4, 1.1e-5, 0.013])
def test_engine_matches_reference_under_until_stepping(step):
    """run(until=...) stops through the loop's own advance and re-enters
    with segments pending: every intermediate snapshot must agree, not just
    the final state."""
    trails = {}
    for impl, cls in ENGINES.items():
        eng = cls(cores=3, seed=9)
        threads = _mixed_workload(eng)
        t, trail = 0.0, []
        while True:
            t += step
            eng.run(until=t)
            trail.append(_snapshot(eng, threads))
            if all(not th.alive for th in threads) or t > 10:
                break
        trails[impl] = trail
    assert trails["reference"] == trails["production"]


def test_engine_with_spinners_matches_reference():
    """Worker spinners dilate the processor-sharing rate; the loop's
    memoized rates must reproduce the contended arithmetic exactly."""
    snaps = {}
    for impl, cls in ENGINES.items():
        eng = cls(cores=2, seed=3)
        eng.cores[0].spinners = 2
        eng.cores[1].spinners = 1

        def burn(n, amount):
            for _ in range(n):
                yield Compute(amount)

        threads = [
            eng.spawn(burn(40, 3e-5), name=f"t{i}", affinity=eng.cores[i % 2])
            for i in range(6)
        ]
        eng.run()
        snaps[impl] = _snapshot(eng, threads)
    assert snaps["reference"] == snaps["production"]


def test_core_parameters_changed_between_runs_match_reference():
    """``speed`` / ``cs_alpha`` written between two ``run(until=)`` calls
    take effect from that instant: the setters empty the core's ``k -> rate``
    memo and mark it dirty, the reference re-derives the rate on every
    advance.  Two pauses fall while every thread sleeps, two while segments
    are pending, so a cached completion instant spans those changes."""

    def phases(i):
        for _ in range(3):
            for _ in range(5):
                yield Compute(1e-4 * (i + 1))
            yield Sleep(1.0)

    changes = [
        (0.5, (2.0, 0.3), (0.5, 0.0)),
        (1.012, (0.6, 0.0), (1.5, 0.4)),
        (1.5, (0.75, 0.0), (1.25, 0.2)),
        (2.0035, (1.7, 0.05), (0.4, 0.0)),
    ]
    trails = {}
    for impl, cls in ENGINES.items():
        eng = cls(cores=[Core("c0", 0, cs_alpha=0.1), Core("c1", 1, speed=0.5)], seed=2)
        eng.cores[1].spinners = 1
        threads = [
            eng.spawn(phases(i), name=f"p{i}", affinity=eng.cores[i % 2]) for i in range(4)
        ]
        trail, pending = [], []
        for until, *params in changes:
            eng.run(until=until)
            pending.append(sum(len(core._pending) for core in eng.cores))
            for core, (speed, alpha) in zip(eng.cores, params):
                core.speed, core.cs_alpha = speed, alpha
            trail.append(_snapshot(eng, threads))
        eng.run()
        trail.append(_snapshot(eng, threads))
        trails[impl] = trail
        assert pending[0] == pending[2] == 0 and pending[1] and pending[3], pending
    assert trails["reference"] == trails["production"]


def _bump(core, delta):
    core.spinners = core.spinners + delta  # through the setter


def test_spin_toggles_and_outside_spinner_writes_match_reference():
    """Worker-style ``spin(+1)`` / ``spin(-1)`` around each park, mixed with
    ``spinners = ...`` writes from timer callbacks and between ``until``
    steps: every write re-rates its core, and the loops agree state by
    state."""

    def poller(core, i):
        r = random.Random(50 + i)
        for _ in range(25):
            core.spin(1)  # parked busy-polling, as a worker on its mailbox
            yield Sleep(r.uniform(1e-5, 3e-4))
            core.spin(-1)
            yield Compute(r.uniform(1e-6, 2e-4))

    def burner(i):
        r = random.Random(90 + i)
        for _ in range(30):
            yield Compute(r.uniform(1e-6, 3e-4))

    trails = {}
    for impl, cls in ENGINES.items():
        eng = cls(cores=3, seed=4)
        cores = eng.cores
        threads = [
            eng.spawn(poller(cores[i % 3], i), name=f"p{i}", affinity=cores[i % 3])
            for i in range(4)
        ] + [eng.spawn(burner(i), name=f"b{i}") for i in range(4)]
        r = random.Random(7)
        for j in range(20):
            delta = r.choice((1, 2))
            eng.call_at(r.uniform(0.0, 3e-3), partial(_bump, cores[j % 3], delta))
            eng.call_at(r.uniform(3e-3, 6e-3), partial(_bump, cores[j % 3], -delta))
        trail, t, step = [], 0.0, 4.1e-4
        while not all(not th.alive for th in threads) and t < 1.0:
            t += step
            eng.run(until=t)
            cores[1].spinners += 1 if len(trail) % 2 == 0 else -1
            trail.append((_snapshot(eng, threads), [c.spinners for c in cores]))
        trails[impl] = trail
    assert len(trails["production"]) > 10
    assert trails["reference"] == trails["production"]


def _assert_one_form(eng):
    """Pending segments are mutable lists and ``_head`` is their minimum."""
    for core in eng.cores:
        assert all(type(e) is list for e in core._pending)
        assert core._head == min((e[0] for e in core._pending), default=float("inf"))


def test_engine_keeps_one_form_between_runs():
    """A core has one form in and out of ``run()``, so the reference loop
    can pick the same engine up mid-flight (and hand it back) without
    moving a bit of the final state."""

    def burn(n, amount):
        for _ in range(n):
            yield Compute(amount)

    def drive(middle_leg):
        eng = Engine(cores=2, seed=5)
        threads = [
            eng.spawn(burn(10, 1e-4), name="a", affinity=eng.cores[0]),
            eng.spawn(burn(10, 1e-4), name="b"),
        ]
        eng.run(until=3e-4)
        _assert_one_form(eng)
        threads.append(eng.spawn(burn(5, 1e-4), name="c"))
        middle_leg(eng, until=6e-4)
        _assert_one_form(eng)
        eng.run()
        assert all(not t.alive for t in threads)
        assert not eng.threads  # finished threads are dropped
        return _snapshot(eng, threads)

    def reference_leg(eng, until):
        eng.__class__ = ReferenceEngine  # the per-object loop, same engine
        try:
            eng.run(until=until)
        finally:
            eng.__class__ = Engine

    assert drive(reference_leg) == drive(Engine.run)


class _Tagged(Compute):
    __slots__ = ()


@pytest.mark.parametrize("impl", sorted(ENGINES))
@pytest.mark.parametrize(
    "bad", [_Tagged(1e-4), Request(), "not a request"], ids=["subclass", "bare", "non-request"]
)
@pytest.mark.parametrize("after_compute", [False, True], ids=["ready", "resume"])
def test_unsupported_request_names_the_thread_and_leaves_engine_at_rest(
    impl, bad, after_compute
):
    """The vocabulary is closed and matched by exact class: a ``Compute``
    subclass, a bare ``Request`` and a non-request object each raise
    ``SimStateError`` naming the thread - from the ready drain and from the
    resume drain - and the exit leaves the engine consistent: pending lists in
    the one form, unresumed siblings back on the ready queue, so the run can
    continue."""

    def rogue():
        if after_compute:
            yield Compute(1e-4)
        yield bad

    def burn(n, amount):
        for _ in range(n):
            yield Compute(amount)

    eng = ENGINES[impl](cores=1, seed=1)
    eng.spawn(rogue(), name="rogue", affinity=eng.cores[0])
    survivors = [
        eng.spawn(burn(3, 1e-4), name=f"s{i}", affinity=eng.cores[0]) for i in range(3)
    ]
    with pytest.raises(SimStateError, match="'rogue' yielded unsupported request"):
        eng.run()
    _assert_one_form(eng)
    queued = {t for t, _ in eng._ready} | {e[2] for e in eng.cores[0]._pending}
    assert queued == set(survivors)
    eng.run()
    assert all(not t.alive and t.cpu_time == pytest.approx(3e-4) for t in survivors)


class _TaggedBlock(Block):
    __slots__ = ()


@pytest.mark.parametrize("impl", sorted(ENGINES))
@pytest.mark.parametrize(
    "bad", [_TaggedBlock(), Request(), "not a request"],
    ids=["block-subclass", "bare", "non-request"],
)
@pytest.mark.parametrize("after_compute", [False, True], ids=["ready", "resume"])
def test_unsupported_request_after_block_names_the_thread(impl, bad, after_compute):
    """``Block`` is parked inline beside ``Compute``; a thread that parks,
    is woken by a timer and then yields something outside the vocabulary -
    a ``Block`` subclass included - still gets the named-thread error."""

    def rogue():
        if after_compute:
            yield Compute(1e-4)
        yield Block()
        yield bad

    eng = ENGINES[impl](cores=1, seed=1)
    thread = eng.spawn(rogue(), name="rogue")
    eng.call_at(1e-3, partial(eng.wake, thread))
    with pytest.raises(SimStateError, match="'rogue' yielded unsupported request"):
        eng.run()
    assert eng.now == pytest.approx(1e-3)
    assert eng.timers_fired == 1


def test_engine_deadlock_detection_matches_reference():
    def blocker(engine, mtx):
        yield from mtx.acquire()
        yield Sleep(10.0)

    def victim(mtx):
        yield Compute(1e-6)
        yield from mtx.acquire()

    messages = {}
    for impl, cls in ENGINES.items():
        eng = cls(cores=1, seed=0)
        mtx = Mutex(eng)
        eng.spawn(blocker(eng, mtx), name="holder")
        eng.spawn(victim(mtx), name="victim")
        with pytest.raises(SimDeadlock) as exc:
            eng.run()
        messages[impl] = str(exc.value)
    assert messages["reference"] == messages["production"]


def test_engine_exception_escape_requeues_unresumed_threads():
    """A thread body raising mid-resume-batch must leave the engine in the
    same state the reference loop would: the raiser consumed, siblings whose
    resume never ran back on the ready queue, pending lists in the one form."""

    class Boom(RuntimeError):
        pass

    def bomb():
        yield Compute(1e-4)
        raise Boom()

    def burn(n, amount):
        for _ in range(n):
            yield Compute(amount)

    states = {}
    for impl, cls in ENGINES.items():
        eng = cls(cores=1, seed=1)
        eng.spawn(bomb(), name="bomb", affinity=eng.cores[0])
        survivors = [
            eng.spawn(burn(3, 1e-4), name=f"s{i}", affinity=eng.cores[0])
            for i in range(3)
        ]
        with pytest.raises(Boom):
            eng.run()
        states[impl] = (
            eng.now.hex(),
            [t.state.value for t in survivors],
            [t.cpu_time.hex() for t in survivors],
            [type(e).__name__ for e in eng.cores[0]._pending],
        )
    assert states["reference"] == states["production"]
