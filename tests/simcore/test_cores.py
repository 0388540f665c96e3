"""Unit tests for processor-sharing cores and accelerator devices."""

import pytest

from repro.simcore import AcquireDevice, Compute, Core, Engine, SimStateError, Sleep


def burn(amount):
    yield Compute(amount)


# --------------------------------------------------------------------- #
# Core math
# --------------------------------------------------------------------- #

def test_core_speed_scales_rate():
    eng = Engine(cores=[Core(name="fast", index=0, speed=2.0)])
    t = eng.spawn(burn(1.0), "t")
    eng.run()
    assert t.finished_at == pytest.approx(0.5)


def test_context_switch_penalty_slows_shared_core():
    core = Core(name="c", index=0, cs_alpha=0.1)
    eng = Engine(cores=[core])
    eng.spawn(burn(1.0), "a")
    eng.spawn(burn(1.0), "b")
    # k=2 -> per-thread rate = 1/(2*(1+0.1)) -> both finish at 2.2
    assert eng.run() == pytest.approx(2.2)


def test_cs_penalty_absent_for_single_thread():
    core = Core(name="c", index=0, cs_alpha=0.5)
    eng = Engine(cores=[core])
    eng.spawn(burn(1.0), "a")
    assert eng.run() == pytest.approx(1.0)


def test_spinner_consumes_a_share_slot():
    core = Core(name="c", index=0)
    eng = Engine(cores=[core])
    core.spinners = 1
    t = eng.spawn(burn(1.0), "t")
    eng.run()
    assert t.finished_at == pytest.approx(2.0)  # half rate next to a spinner


def test_spinner_counts_toward_placement_load():
    eng = Engine(cores=2)
    eng.cores[0].spinners = 2
    t = eng.spawn(burn(1.0), "float")
    eng.run()
    # the floating thread must avoid the spinner-crowded core0
    assert eng.cores[1].delivered == pytest.approx(1.0)
    assert t.finished_at == pytest.approx(1.0)


def test_delivered_excludes_spinner_share():
    core = Core(name="c", index=0)
    eng = Engine(cores=[core])
    core.spinners = 1
    eng.spawn(burn(1.0), "t")
    eng.run()
    # only the real thread's 1.0 work units were delivered over 2.0 seconds
    assert core.delivered == pytest.approx(1.0)
    assert core.busy_time == pytest.approx(2.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs,what", [
    ({"speed": NAN}, "speed"), ({"speed": 0.0}, "speed"), ({"speed": -1.0}, "speed"),
    ({"speed": INF}, "speed"), ({"cs_alpha": NAN}, "cs_alpha"),
    ({"cs_alpha": -2.0}, "cs_alpha"), ({"cs_alpha": INF}, "cs_alpha"),
    ({"spinners": -1}, "spinner count"),
], ids=["speed-nan", "speed-0", "speed-neg", "speed-inf", "alpha-nan", "alpha-neg",
        "alpha-inf", "spinners-neg"])
def test_bad_core_parameters_rejected_naming_the_core(kwargs, what):
    """speed=nan / cs_alpha=nan used to end a run "normally" at 0.0 with its
    threads still RUNNING, speed=0 raised ZeroDivisionError, and negative
    values failed mid-run; each now stops at construction."""
    with pytest.raises(SimStateError, match=f"core 'x': {what}"):
        Core("x", 0, **kwargs)


@pytest.mark.parametrize("attr,value,finishes", [
    ("speed", 2.0, [0.75]), ("speed", 0.5, [1.5]), ("cs_alpha", 1.0, [3.5, 3.5]),
], ids=["speed-up", "slow-down", "alpha-up"])
def test_rate_change_with_work_pending_moves_the_finish(attr, value, finishes):
    """Half of each 1.0 segment is done at 0.5 when the rate changes; the
    cached finish instant used to go stale (speed 2.0 finished at 1.0, and
    speed 0.5 or cs_alpha 1.0 never returned from ``run()``)."""
    eng = Engine(cores=1)
    threads = [eng.spawn(burn(1.0), f"t{i}") for i in range(len(finishes))]
    eng.run(until=0.5)
    setattr(eng.cores[0], attr, value)
    eng.run()
    assert [t.finished_at for t in threads] == [pytest.approx(f) for f in finishes]


@pytest.mark.parametrize("attr,value", [
    ("speed", NAN), ("speed", 0.0), ("cs_alpha", -1.0), ("cs_alpha", INF),
], ids=["speed-nan", "speed-0", "alpha-neg", "alpha-inf"])
def test_rate_setter_checks_like_the_constructor(attr, value):
    eng = Engine(cores=1)
    core = eng.cores[0]
    t = eng.spawn(burn(1.0), "t")
    eng.run(until=0.5)
    with pytest.raises(SimStateError, match=f"core 'cpu0': {attr}"):
        setattr(core, attr, value)
    assert (core.speed, core.cs_alpha) == (1.0, 0.0)
    eng.run()
    assert t.finished_at == pytest.approx(1.0)


def _clean(eng):
    """Refresh every completion instant so no core is dirty."""
    eng.run()
    assert eng._dirty == []


def test_spin_and_setter_push_once_per_clean_to_dirty_transition():
    eng = Engine(cores=2)
    core, dirty = eng.cores[1], eng._dirty
    _clean(eng)
    core.spin(1)
    core.spin(1)
    core.spinners = 5
    core.spin(-2)
    assert (core.spinners, dirty) == (3, [1])
    _clean(eng)
    core.spinners = 3  # no change: the cached instant stays valid
    assert dirty == []
    core.spinners = 0
    core.spin(1)
    assert (core.spinners, dirty) == (1, [1])
    _clean(eng)
    core.speed = 2.0  # a rate setter is the fourth trigger
    core.cs_alpha = 0.5
    assert dirty == [1]


def test_spinner_count_cannot_go_below_zero():
    """``spinners = -1`` used to be stored, and a later refresh at k = 0
    divided by zero; both spellings go through ``spin`` and refuse it."""
    eng = Engine(cores=1)
    core = eng.cores[0]
    core.spin(1)
    _clean(eng)
    with pytest.raises(SimStateError, match="core 'cpu0': spinner count cannot go below zero"):
        core.spin(-2)
    with pytest.raises(SimStateError, match="below zero"):
        core.spinners = -1
    assert core.spinners == 1 and eng._dirty == []  # nothing changed
    core.spin(-1)
    assert core.spinners == 0


def test_core_advance_empty_returns_nothing():
    """An idle core's advance finishes nothing and books no busy time; a
    lone spinner keeps it busy without finishing anything."""
    eng = Engine(cores=1)
    core = eng.cores[0]
    eng.call_at(2.0, lambda: None)  # an instant for the clock to reach
    assert eng.run(until=1.0) == 1.0
    assert eng._completion_at == [INF]
    assert core.busy_time == 0.0
    core.spinners = 1
    eng.run()
    assert (eng.now, core.busy_time, core.delivered) == (2.0, 1.0, 0.0)


def test_standalone_core_advance_completes_in_finish_order():
    """Two segments share a ``cs_alpha`` core: the shorter finishes first at
    the contended rate, the longer then runs alone at full rate; the until
    stop at 0.3 completes ``b`` through the same advance as any instant."""
    core = Core(name="c", index=0, cs_alpha=0.5)
    eng = Engine(cores=[core])
    a, b = eng.spawn(burn(0.2), "a"), eng.spawn(burn(0.1), "b")
    assert core.share_rate(2) == pytest.approx(1 / 3)  # 1 / (2 * (1 + 0.5))
    eng.run(until=0.15)
    assert eng._completion_at == [pytest.approx(0.3)]
    assert (a.cpu_time, b.cpu_time, core.load) == (0.0, 0.0, 2)
    eng.run(until=0.3)
    assert b.cpu_time == 0.1 and b._on_core is None and a.cpu_time == 0.0
    eng.run()
    assert (b.finished_at, a.finished_at) == (pytest.approx(0.3), pytest.approx(0.4))
    assert core.delivered == pytest.approx(0.3)
    assert core.busy_time == pytest.approx(0.4)


def test_double_add_same_thread_rejected():
    eng = Engine(cores=1)

    def t():
        yield Compute(1.0)
        yield Compute(1.0)

    thread = eng.spawn(t(), "t")
    eng.run(until=0.1)
    eng._ready.append((thread, None))  # dispatched again while on its core
    with pytest.raises(SimStateError, match="'t' already running on core 'cpu0'"):
        eng.run()


# --------------------------------------------------------------------- #
# Devices: timed occupancy is AcquireDevice + Sleep + release
# --------------------------------------------------------------------- #

def occupy(eng, dev, duration):
    yield AcquireDevice(dev)
    yield Sleep(duration)
    dev.release(eng.current)


def test_timed_device_serializes_fifo():
    eng = Engine(cores=1)
    dev = eng.add_device("fft0")
    finishes = {}

    def user(name):
        yield from occupy(eng, dev, 0.3)
        finishes[name] = eng.now

    eng.spawn(user("a"), "a")
    eng.spawn(user("b"), "b")
    eng.run()
    assert finishes["a"] == pytest.approx(0.3)
    assert finishes["b"] == pytest.approx(0.6)
    assert dev.served == 2
    assert dev.busy_time == pytest.approx(0.6)


def test_deep_device_queue_drains_in_fifo_order():
    """A deep accelerator backlog is served strictly in arrival order.

    Regression guard for the wait queue's deque representation: every frame
    of every app funnels through one FFT IP in the Fig. 5 configuration, so
    the queue genuinely grows hundreds deep and draining it must stay
    linear (a list ``pop(0)`` here is quadratic and silently reorders
    nothing - only order, not cost, is observable, hence this test pins the
    order while the benchmark suite pins the cost).
    """
    n = 300
    eng = Engine(cores=1)
    dev = eng.add_device("fft0")
    order = []

    def user(i):
        yield from occupy(eng, dev, 1e-3)
        order.append(i)

    for i in range(n):
        eng.spawn(user(i), f"u{i}")
    eng.run()
    assert order == list(range(n))
    assert dev.served == n
    assert eng.now == pytest.approx(n * 1e-3)


def test_device_utilization():
    eng = Engine(cores=1)
    dev = eng.add_device("d")

    def user():
        yield Compute(0.5)
        yield AcquireDevice(dev)
        yield Sleep(0.25)
        seen.append(dev.utilization(eng.now))  # an occupant counts up to now
        yield Sleep(0.25)
        dev.release(eng.current)

    seen = []
    eng.spawn(user(), "u")
    eng.run()
    assert seen == [pytest.approx(1 / 3)]
    assert dev.utilization(eng.now) == pytest.approx(0.5)


# --------------------------------------------------------------------- #
# Devices: held (AcquireDevice) mode - the polling-dispatch model
# --------------------------------------------------------------------- #

def test_held_device_spans_owner_compute():
    eng = Engine(cores=2)
    dev = eng.add_device("d")
    grabbed = {}

    def owner():
        yield AcquireDevice(dev)
        grabbed["at"] = eng.now
        me = eng.current
        yield Compute(0.4)
        dev.release(me)

    def waiter():
        yield AcquireDevice(dev)
        me = eng.current
        grabbed["waiter_at"] = eng.now
        dev.release(me)

    eng.spawn(owner(), "owner", affinity=eng.cores[0])
    eng.spawn(waiter(), "waiter", affinity=eng.cores[1])
    eng.run()
    assert grabbed["at"] == 0.0
    assert grabbed["waiter_at"] == pytest.approx(0.4)


def test_held_device_stretches_with_core_contention():
    """Polling occupancy couples device time to host-core load."""
    eng = Engine(cores=1)
    dev = eng.add_device("d")

    def mgmt():
        yield AcquireDevice(dev)
        me = eng.current
        yield Compute(0.5)  # poll loop, shared with the rival below
        dev.release(me)

    eng.spawn(mgmt(), "mgmt")
    eng.spawn(burn(0.5), "rival")
    eng.run()
    # both share the single core, so the device stays busy ~1.0s for 0.5s
    # of poll work
    assert dev.busy_time == pytest.approx(1.0)


def test_release_by_non_owner_rejected():
    eng = Engine(cores=1)
    dev = eng.add_device("d")

    def owner():
        yield AcquireDevice(dev)
        yield Compute(1.0)
        dev.release(eng.current)

    def rogue():
        yield Compute(0.1)
        dev.release(eng.current)

    eng.spawn(owner(), "owner")
    eng.spawn(rogue(), "rogue")
    with pytest.raises(SimStateError):
        eng.run()
