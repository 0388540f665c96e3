"""Soak bench: one million engine events through the event core.

The Fig. 10 sweeps bound what one *frame* costs; this bench bounds what a
*campaign* costs: a fig10-style pool of pinned worker threads (CEDR pins
its workers to cores) grinding compute segments until the engine has
dispatched ``REPRO_SOAK_EVENTS`` events (default one million), plus a
timer-heavy variant that pushes the same order of magnitude of sleep and
``call_at`` traffic through the engine's timer heap, with far-future
timers held pending under the near-future churn.

The throughput assertion rides the ``check_throughput`` fixture against
the ``soak_event_throughput`` entry in ``baseline.json``: the soak rate
must beat the PR-1 engine figure (497k events/s) by 2x.  CI smoke-runs a
100k-event variant with ``REPRO_PERF_CHECK=0`` (shape only, no ratio).

Env overrides:

* ``REPRO_SOAK_EVENTS`` - total engine events to push (default 1_000_000)
* ``REPRO_PERF_CHECK``  - 0 skips the ratio assertion
"""

import os

from repro.simcore import Compute, Engine, Sleep

#: total dispatch events the compute soak pushes through the engine.
SOAK_EVENTS = int(os.environ.get("REPRO_SOAK_EVENTS", 1_000_000))
#: fig10-style pool: 16 worker threads pinned round-robin over 4 cores.
SOAK_THREADS = 16
SOAK_CORES = 4


def _soak_run() -> int:
    """One soak campaign; returns the engine's dispatch-event count."""
    eng = Engine(cores=SOAK_CORES)
    segments = SOAK_EVENTS // SOAK_THREADS
    # Requests are immutable value objects, so each worker reuses one
    # Compute - the bench then times the event core, not the allocator.
    seg = Compute(1e-6)

    def worker(n):
        for _ in range(n):
            yield seg

    for i in range(SOAK_THREADS):
        eng.spawn(worker(segments), f"w{i}", affinity=eng.cores[i % SOAK_CORES])
    eng.run()
    return eng.events_processed


def test_soak_million_event_throughput(benchmark, check_throughput):
    """>= 1M events through pinned compute workers, 2x the PR-1 rate."""
    events = benchmark.pedantic(_soak_run, rounds=3, iterations=1)
    assert events >= SOAK_EVENTS
    check_throughput("soak_event_throughput", benchmark, events)


def test_soak_timer_mix(benchmark):
    """Timer-dominated soak: sleeps + far-future timers at 1/10 scale.

    Every sleeping thread parks in the timer heap each round-trip while a
    metronome's far-future timers stay pending underneath, so the run
    exercises same-instant batch drains over a heap of ~80 entries.
    Asserted on the event-core stats, not a rate floor - the compute soak
    above carries the throughput criterion.
    """

    def run():
        eng = Engine(cores=SOAK_CORES)
        n_timers = max(SOAK_EVENTS // 10, 1000)
        per_thread = n_timers // SOAK_THREADS
        nap = Sleep(5e-6)
        fired = []

        # far-future metronome: 64 timers pending from the start
        for k in range(64):
            eng.call_at(0.05 + k * 0.01, lambda: fired.append(eng.now))

        def sleeper(n):
            for _ in range(n):
                yield nap

        for i in range(SOAK_THREADS):
            eng.spawn(sleeper(per_thread), f"s{i}", affinity=eng.cores[i % SOAK_CORES])
        eng.run()
        return eng, len(fired)

    eng, metronome_fired = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = eng.event_core_stats()
    assert metronome_fired == 64
    assert stats["timers_fired"] >= SOAK_EVENTS // 10
    # the metronome and every sleeper pending at once
    assert stats["occupancy_hwm"] >= 64 + SOAK_THREADS
    # same-instant batching: 16 identical sleeps per instant drain together
    assert stats["mean_batch"] > 4.0
