"""The waiter-list completion handle vs the ``Mutex`` + ``Condition`` pair.

``CompletionHandle`` dropped the pthread pair on the argument that its mutex
could never be contended, so the pair's only observable behaviour is a FIFO
waiter list and per-waiter latency timers.  ``reference_handle.py`` keeps
the pair.  Here the libCEDR call-plan fuzz of
``tests/integration/test_runtime_fuzz.py`` (blocking / ``_nb`` calls,
``wait_all`` / ``wait_any`` drains) runs three staggered applications
through both handles - fault-free, and under fault streams dense enough to
lose tasks so ``fail()`` settles handles too - and the two runs must agree
field for field in their ``RunResult`` and in ``engine.events_processed``:
same simulated instants, same number of events, event for event.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.api as libcedr
from repro.faults import FaultConfig
from repro.metrics import RunResult, diff_results
from repro.platforms import zcu102
from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig
from repro.runtime.task import CompletionHandle
from repro.simcore import Block, Compute, Engine
from reference_handle import ReferenceHandle

# the call-plan strategy and its application main live with the fuzz they
# were written for; running this file alone does not put that directory on
# the path
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))
from test_runtime_fuzz import N, api_call_plans, make_api_main  # noqa: E402


def _counting(cls, tally: dict):
    """*cls* with its two settle paths tallied."""

    class Counting(cls):
        def complete(self, result):
            tally["completed"] += 1
            super().complete(result)

        def fail(self, error):
            tally["failed"] += 1
            super().fail(error)

    return Counting


def _run(handle_factory, plan, seed, scheduler, faults, monkeypatch):
    calls, drain = plan
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=N) + 1j * rng.normal(size=N)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(4, 5))
    monkeypatch.setattr(libcedr, "CompletionHandle", handle_factory)
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler, faults=faults))
    runtime.start()
    for k in range(3):  # staggered, so calls of different apps interleave
        app = AppInstance(name=f"api-fuzz{k}", mode=API_MODE, frame_mb=0.1,
                          main_factory=make_api_main(calls, drain, vec, a, b))
        runtime.submit(app, at=k * 2e-5)
    runtime.seal()
    runtime.run()
    return RunResult.from_runtime(runtime), runtime.engine.events_processed


#: dense enough that a five-call application meets faults within its
#: few hundred simulated microseconds; ``max_retries=0`` turns the first
#: failed attempt into a lost task, i.e. a ``fail()`` on open handles
_FAULTS = st.one_of(
    st.none(),
    st.builds(
        FaultConfig,
        rate=st.sampled_from([5e2, 2e3, 5e3]),
        seed=st.integers(0, 2**16),
        kinds=st.sampled_from(["transient", "transient,hang", "failstop,transient"]).map(
            FaultConfig.parse_kinds
        ),
        max_retries=st.integers(0, 1),
    ),
)


def _compare(plan, seed, scheduler, faults) -> dict:
    """Run the plan through both handles, require identical runs; returns
    how many handles each settle path closed."""
    got_tally = {"completed": 0, "failed": 0}
    want_tally = {"completed": 0, "failed": 0}
    with pytest.MonkeyPatch.context() as patch:
        got, got_events = _run(
            _counting(CompletionHandle, got_tally), plan, seed, scheduler, faults, patch
        )
        want, want_events = _run(
            _counting(ReferenceHandle, want_tally), plan, seed, scheduler, faults, patch
        )
    assert diff_results(got, want) == []
    assert got_events == want_events
    assert got_tally == want_tally
    return got_tally


@given(plan=api_call_plans(), seed=st.integers(0, 2**20),
       scheduler=st.sampled_from(["rr", "eft", "etf", "heft_rt"]), faults=_FAULTS)
@settings(max_examples=40, deadline=None)
def test_both_handles_produce_the_same_run(plan, seed, scheduler, faults):
    _compare(plan, seed, scheduler, faults)


@pytest.mark.parametrize("drain", ["wait_all", "wait_any"])
@pytest.mark.parametrize("rate,fault_seed,kinds", [
    (1e3, 1, "failstop,transient"),
    (5e3, 3, "transient"),
])
def test_both_settle_paths_are_compared(rate, fault_seed, kinds, drain):
    """Fixed plans under faults with no retry budget: some tasks are lost,
    so ``fail()`` closes handles as well as ``complete()`` - the equivalence
    above is about both, not only the happy path."""
    plan = (
        [("fft", False), ("zip", True), ("gemm", False), ("ifft", False), ("fft", True)],
        drain,
    )
    faults = FaultConfig(
        rate=rate, seed=fault_seed, kinds=FaultConfig.parse_kinds(kinds), max_retries=0
    )
    tally = _compare(plan, seed=11, scheduler="eft", faults=faults)
    assert tally["completed"] > 0
    assert tally["failed"] > 0


@pytest.mark.parametrize("latency", [0.0, 2e-6])
def test_waiters_and_a_wait_any_style_watcher_on_one_handle(latency):
    """Outside the fuzz's reach (an application either waits on a request or
    ``wait_any``s it): blocked waiters *and* a thread-waking watcher on the
    same handle resume in the pair's order - waiters FIFO, then watchers."""

    def trace(cls):
        engine = Engine(cores=4)
        handle = cls(engine, latency)
        log = []

        def waiter(name):
            log.append((name, (yield from handle.wait()), engine.now.hex()))

        def watcher():
            me = engine.current
            handle.add_watcher(
                lambda: engine.call_at(engine.now + latency, lambda: engine.wake(me))
            )
            yield Block()
            log.append(("watcher", handle.result, engine.now.hex()))

        def settler():
            yield Compute(1e-5)
            handle.complete("r")

        engine.spawn(waiter("w0"), "w0")
        engine.spawn(watcher(), "watcher")
        engine.spawn(waiter("w1"), "w1")
        engine.spawn(settler(), "settler")
        engine.run()
        return log, engine.events_processed

    got, want = trace(CompletionHandle), trace(ReferenceHandle)
    assert got == want
    assert [name for name, _, _ in got[0]] == ["w0", "w1", "watcher"]
