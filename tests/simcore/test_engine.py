"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore import (
    Block,
    Compute,
    Core,
    Engine,
    SimDeadlock,
    SimStateError,
    SimTimeError,
    Sleep,
    ThreadState,
)


def burn(amount):
    yield Compute(amount)


def test_single_compute_takes_its_work_time():
    eng = Engine(cores=1)
    eng.spawn(burn(0.5), "t")
    assert eng.run() == pytest.approx(0.5)


def test_two_threads_share_one_core_equally():
    eng = Engine(cores=1)
    a = eng.spawn(burn(1.0), "a")
    b = eng.spawn(burn(1.0), "b")
    assert eng.run() == pytest.approx(2.0)
    assert a.finished_at == pytest.approx(2.0)
    assert b.finished_at == pytest.approx(2.0)
    assert a.cpu_time == pytest.approx(1.0)


def test_unequal_work_finishes_in_processor_sharing_order():
    eng = Engine(cores=1)
    short = eng.spawn(burn(0.1), "short")
    long_ = eng.spawn(burn(1.0), "long")
    eng.run()
    # short finishes at 0.2 (half rate while sharing), long at 1.1
    assert short.finished_at == pytest.approx(0.2)
    assert long_.finished_at == pytest.approx(1.1)


def test_two_cores_run_two_threads_in_parallel():
    eng = Engine(cores=2)
    eng.spawn(burn(1.0), "a")
    eng.spawn(burn(1.0), "b")
    assert eng.run() == pytest.approx(1.0)


def test_affinity_pins_thread_to_core():
    eng = Engine(cores=2)
    core0 = eng.cores[0]
    a = eng.spawn(burn(1.0), "a", affinity=core0)
    b = eng.spawn(burn(1.0), "b", affinity=core0)
    assert eng.run() == pytest.approx(2.0)  # forced sharing despite idle core1
    assert eng.cores[1].delivered == 0.0


def test_floating_threads_balance_over_pool():
    eng = Engine(cores=2)
    for i in range(4):
        eng.spawn(burn(1.0), f"t{i}")
    assert eng.run() == pytest.approx(2.0)
    assert eng.cores[0].delivered == pytest.approx(2.0)
    assert eng.cores[1].delivered == pytest.approx(2.0)


def test_floating_pool_restriction_is_respected():
    eng = Engine(cores=2)
    eng.floating_pool = [eng.cores[0]]
    eng.spawn(burn(1.0), "a")
    eng.spawn(burn(1.0), "b")
    eng.run()
    assert eng.cores[1].delivered == 0.0


def test_sleep_advances_wall_time_without_cpu():
    eng = Engine(cores=1)

    def sleeper():
        yield Sleep(0.25)
        yield Compute(0.25)

    t = eng.spawn(sleeper(), "s")
    assert eng.run() == pytest.approx(0.5)
    assert t.cpu_time == pytest.approx(0.25)


def test_zero_work_compute_is_instant():
    eng = Engine(cores=1)

    def zero():
        yield Compute(0.0)
        return "done"

    t = eng.spawn(zero(), "z")
    assert eng.run() == 0.0
    assert t.result == "done"


def test_yield_reschedules_without_time_passing():
    """``Compute(0.0)`` is the vocabulary's yield: the thread re-queues
    behind whatever else is ready at this instant."""
    order = []

    def a():
        order.append("a1")
        yield Compute(0.0)
        order.append("a2")

    def b():
        order.append("b1")
        yield Compute(0.0)
        order.append("b2")

    eng = Engine(cores=1)
    eng.spawn(a(), "a")
    eng.spawn(b(), "b")
    assert eng.run() == 0.0
    assert order == ["a1", "b1", "a2", "b2"]


def test_thread_result_captured_from_return():
    eng = Engine(cores=1)

    def worker():
        yield Compute(0.1)
        return 42

    t = eng.spawn(worker(), "w")
    eng.run()
    assert t.result == 42
    assert t.state is ThreadState.FINISHED
    assert not t.alive


def test_join_returns_result():
    eng = Engine(cores=1)

    def child():
        yield Compute(0.2)
        return "payload"

    def parent():
        c = eng.spawn(child(), "child")
        value = yield from c.join()
        return value

    p = eng.spawn(parent(), "parent")
    eng.run()
    assert p.result == "payload"


def test_join_finished_thread_returns_immediately():
    eng = Engine(cores=1)
    c = eng.spawn(burn(0.1), "child")
    eng.run()

    def parent():
        value = yield from c.join()
        return value

    p = eng.spawn(parent(), "parent")
    eng.run()
    assert p.result is None  # burn returns None
    assert p.finished_at == pytest.approx(0.1)


def test_self_join_rejected():
    eng = Engine(cores=1)
    captured = {}

    def selfish():
        me = eng.current
        try:
            yield from me.join()
        except SimStateError as exc:
            captured["err"] = exc

    eng.spawn(selfish(), "narcissus")
    eng.run()
    assert "err" in captured


def test_run_until_pauses_and_resumes():
    eng = Engine(cores=1)
    t = eng.spawn(burn(1.0), "t")
    eng.run(until=0.4)
    assert eng.now == pytest.approx(0.4)
    assert t.alive
    eng.run()
    assert t.finished_at == pytest.approx(1.0)


def test_run_until_nan_rejected_and_inf_legal():
    """``next_at > nan`` is never true, so ``until=nan`` used to be ignored
    and the run went to completion; it is refused before anything moves."""
    eng = Engine(cores=1)
    t = eng.spawn(burn(1.0), "t")
    with pytest.raises(SimTimeError, match="until=nan"):
        eng.run(until=float("nan"))
    assert eng.now == 0.0 and eng.events_processed == 0 and t.alive
    assert eng.run(until=float("inf")) == pytest.approx(1.0)
    assert not t.alive


@pytest.mark.parametrize("work", [True, False], ids=["pending", "idle"])
def test_run_until_before_now_refused_before_dispatch(work):
    """``until < now`` used to dispatch the ready threads first and only then
    fail on a negative advance (or, on an idle engine, return silently); it
    is refused up front, naming both instants, and nothing moves."""
    eng = Engine(cores=1)
    eng.call_at(1.0, lambda: None)
    eng.run(until=0.5)
    t = eng.spawn(burn(1.0), "t") if work else None
    with pytest.raises(SimTimeError, match=r"run\(until=0.25\): .* before now \(0.5\)"):
        eng.run(until=0.25)
    assert (eng.now, eng.events_processed, eng.timers_fired) == (0.5, 0, 0)
    assert t is None or (t.state is ThreadState.READY and t._on_core is None)
    assert eng.run(until=0.5) == 0.5  # until == now stays legal
    eng.run()
    assert eng.now == pytest.approx(1.5 if work else 1.0)


def test_current_is_cleared_on_reentry_after_an_escape():
    """An escaping exception leaves ``current`` on the culprit; the next
    ``run()`` clears it on entry, so a timer firing before any dispatch
    sees no running thread."""
    eng = Engine(cores=1)

    def bomb():
        yield Compute(0.1)
        raise RuntimeError("boom")

    culprit = eng.spawn(bomb(), "bomb")
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert eng.current is culprit
    seen = []
    eng.call_at(0.5, lambda: seen.append(eng.current))
    eng.run()
    assert seen == [None] and eng.current is None


def test_a_raise_in_the_dispatch_drain_keeps_its_sends_counted():
    """The drain's tally is folded at every exit: three sends were made, the
    third raising, so three events were processed."""
    eng = Engine(cores=1)

    def bomb():
        raise RuntimeError("boom")
        yield  # a generator that raises on its first send

    eng.spawn(burn(1.0), "a")
    eng.spawn(burn(1.0), "b")
    eng.spawn(bomb(), "c")
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert eng.events_processed == 3


def test_a_raise_in_the_resume_drain_keeps_its_sends_counted():
    """Dispatch, first resume, second resume (raising): three sends."""
    eng = Engine(cores=1)

    def bomb():
        yield Compute(0.1)
        yield Compute(0.1)
        raise RuntimeError("boom")

    eng.spawn(bomb(), "bomb")
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert eng.events_processed == 3


def test_a_raising_timer_keeps_the_rest_of_its_batch():
    """Every same-instant timer is popped before any is called; when one
    raises, it counts as fired and the ones after it go back on the heap at
    their own keys, so a re-entered run calls them in order."""
    eng = Engine(cores=1)
    log = []

    def boom():
        log.append("boom")
        raise RuntimeError("boom")

    eng.call_at(1.0, lambda: log.append("first"))
    eng.call_at(1.0, boom)
    eng.call_at(1.0, lambda: log.append("third"))
    eng.call_at(1.0, lambda: log.append("fourth"))
    eng.call_at(2.0, lambda: log.append("later"))
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert log == ["first", "boom"]
    assert eng.timers_fired == 2 and len(eng._timers) == 3
    eng.run()
    assert log == ["first", "boom", "third", "fourth", "later"]
    assert eng.timers_fired == 5 and eng.now == 2.0


def test_a_lone_raising_timer_counts_as_fired():
    eng = Engine(cores=1)

    def boom():
        raise RuntimeError("boom")

    eng.call_at(1.0, lambda: None)
    eng.call_at(2.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    stats = eng.event_core_stats()
    assert (stats["timers_fired"], stats["drain_batches"]) == (2, 2)


def test_call_at_fires_in_order():
    eng = Engine(cores=1)
    hits = []
    eng.call_at(0.2, lambda: hits.append(0.2))
    eng.call_at(0.1, lambda: hits.append(0.1))
    eng.run()
    assert hits == [0.1, 0.2]


def test_call_at_in_the_past_clamps_to_now_and_counts():
    eng = Engine(cores=1)
    eng.call_at(0.5, lambda: None)
    eng.run()
    hits = []
    eng.call_at(0.1, lambda: hits.append(eng.now))
    assert eng.late_timers == 1
    eng.run()
    # clamped to "now" at scheduling time, not replayed at 0.1
    assert hits == [pytest.approx(0.5)]
    assert eng.now == pytest.approx(0.5)


def test_late_call_at_keeps_its_instant():
    eng = Engine(cores=1)
    eng.call_at(0.5, lambda: None)
    eng.run()
    eng.call_at(0.25, lambda: None)
    eng.call_at(0.75, lambda: None)  # future timestamps are not late
    eng.run()
    assert eng.late_timers == 1
    assert eng.late_at == [0.5]
    assert not hasattr(eng, "on_late_timer")


def test_strict_run_raises_on_blocked_threads():
    eng = Engine(cores=1)

    def stuck():
        yield Block()

    eng.spawn(stuck(), "stuck")
    with pytest.raises(SimDeadlock):
        eng.run()


def test_deadlock_message_names_blocked_threads():
    """The strict-mode deadlock report still names every stuck thread.

    The deadlock check is deliberately lazy (the blocked-thread list is
    only materialized when the run actually deadlocks); this pins that the
    diagnostic quality did not lazily evaporate with it.
    """
    eng = Engine(cores=1)

    def stuck():
        yield Block()

    eng.spawn(stuck(), "consumer-a")
    eng.spawn(stuck(), "consumer-b")
    with pytest.raises(SimDeadlock, match=r"2 thread\(s\)") as excinfo:
        eng.run()
    assert "consumer-a" in str(excinfo.value)
    assert "consumer-b" in str(excinfo.value)


def test_engine_holds_live_threads_only_in_spawn_order():
    """A finished thread leaves ``Engine.threads``; the live ones keep
    their spawn order, so the deadlock report lists them as spawned."""
    eng = Engine(cores=1)

    def stuck():
        yield Block()

    a = eng.spawn(stuck(), "consumer-a")
    done = eng.spawn(burn(0.1), "done")
    b = eng.spawn(stuck(), "consumer-b")
    assert list(eng.threads) == [a, done, b]
    with pytest.raises(SimDeadlock, match=r"2 thread\(s\) are blocked: consumer-a, consumer-b$"):
        eng.run()
    assert not done.alive and done.result is None
    assert list(eng.threads) == [a, b]
    assert eng.blocked_threads() == [a, b]


def test_non_strict_run_returns_with_blocked_threads():
    eng = Engine(cores=1)

    def stuck():
        yield Block()

    t = eng.spawn(stuck(), "stuck")
    eng.run(strict=False)
    assert eng.blocked_threads() == [t]


def test_wake_non_blocked_thread_rejected():
    eng = Engine(cores=1)
    t = eng.spawn(burn(0.1), "t")
    with pytest.raises(SimStateError):
        eng.wake(t)  # it is READY, not blocked


def test_wake_finished_thread_rejected():
    eng = Engine(cores=1)
    t = eng.spawn(burn(0.1), "t")
    eng.run()
    with pytest.raises(SimStateError):
        eng.wake(t)


@pytest.mark.parametrize("state,until,message", [
    (ThreadState.READY, None, "thread 't' is not blocked (state=ThreadState.READY)"),
    (ThreadState.RUNNING, 0.05, "thread 't' is not blocked (state=ThreadState.RUNNING)"),
    (ThreadState.FINISHED, 1.0, "cannot wake finished thread 't'"),
])
def test_wake_of_an_unwakeable_thread_keeps_its_message(state, until, message):
    """``wake`` tests the two wakeable states first; the other three keep
    the messages they had when each state was tested in turn."""
    eng = Engine(cores=1)
    t = eng.spawn(burn(0.1), "t")
    if until is not None:
        eng.run(until=until)
    assert t.state is state
    with pytest.raises(SimStateError) as ei:
        eng.wake(t)
    assert str(ei.value) == message


def test_negative_compute_rejected():
    with pytest.raises(SimTimeError):
        Compute(-1.0)


def test_negative_sleep_rejected():
    with pytest.raises(SimTimeError):
        Sleep(-0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_values_rejected_where_they_enter(bad):
    """A NaN finish key never becomes due (the run used to end "normally"
    with the thread still RUNNING) and a NaN timer died inside the wheel
    with a bare ValueError; both are rejected at the door, by value."""
    eng = Engine(cores=1)
    for enter in (
        lambda: Compute(bad),
        lambda: Sleep(bad),
        lambda: eng._schedule_timer(bad, lambda: None),
        lambda: eng.call_at(bad, lambda: None),
    ):
        with pytest.raises(SimTimeError, match=str(bad)):
            enter()
    assert eng.run() == 0.0  # nothing was queued
    assert eng.event_core_stats()["pending"] == 0


def test_unknown_request_rejected():
    eng = Engine(cores=1)

    def weird():
        yield "not a request"

    eng.spawn(weird(), "weird")
    with pytest.raises(SimStateError):
        eng.run()


def test_spawn_with_foreign_core_rejected():
    eng = Engine(cores=1)
    foreign = Core(name="foreign", index=99)
    with pytest.raises(SimStateError):
        eng.spawn(burn(0.1), "t", affinity=foreign)


def test_engine_requires_at_least_one_core():
    with pytest.raises(SimStateError):
        Engine(cores=0)


def test_events_processed_counts_dispatches():
    eng = Engine(cores=1)
    eng.spawn(burn(0.1), "a")
    eng.spawn(burn(0.1), "b")
    eng.run()
    assert eng.events_processed >= 2


def test_core_utilization_reported():
    eng = Engine(cores=2)
    eng.spawn(burn(1.0), "a", affinity=eng.cores[0])
    eng.run()
    util = {c.name: c.utilization(eng.now) for c in eng.cores}
    assert util["cpu0"] == pytest.approx(1.0)
    assert util["cpu1"] == 0.0


# --------------------------------------------------------------------- #
# timer observability
# --------------------------------------------------------------------- #

def test_event_core_stats_schema_and_batching():
    eng = Engine(cores=1)
    hits = []
    for _ in range(3):
        eng.call_at(0.1, lambda: hits.append(eng.now))  # one same-instant batch
    eng.call_at(0.2, lambda: hits.append(eng.now))
    eng.run()
    stats = eng.event_core_stats()
    assert set(stats) == {
        "pending", "occupancy_hwm", "late_timers", "timers_fired",
        "drain_batches", "mean_batch", "instants",
    }
    assert stats["instants"] == 2  # 0.1 and 0.2; the start instant is not an advance
    assert stats["pending"] == 0
    assert stats["timers_fired"] == 4
    assert stats["late_timers"] == 0
    assert stats["occupancy_hwm"] == 4
    assert stats["drain_batches"] == 2
    assert stats["mean_batch"] == pytest.approx(2.0)
    assert hits == [pytest.approx(0.1)] * 3 + [pytest.approx(0.2)]
