"""Engine timers against a transparent model of their firing contract.

The engine keeps pending timers in one ``heapq`` of ``(when, seq,
callback)``.  The contract a caller can observe: ``call_at`` clamps a past
instant to now (and counts it in ``late_timers``); every timer due at a
reached instant fires in ``(clamped when, push seq)`` order; timers that
the callbacks chain at that same instant join the drain after the batch
being fired; one drain per instant (``drain_batches``); and ``run(until=)``
fires exactly what is due by ``until``.  The Hypothesis test drives random
``call_at`` programs - equal-``when`` ties, past instants, same-instant and
later chains, ``until`` steps - through an ``Engine`` and through
:class:`_Model`, and requires the same firing log and the same
``event_core_stats()``.  Instants are integers, so every float op is exact
and the model needs no epsilon.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Engine

#: a timer's callback chains children: ``[(offset, grandchildren), ...]``,
#: each pushed at ``now + offset`` (negative offsets are past instants)
_NODES = st.recursive(
    st.just([]),
    lambda kids: st.lists(st.tuples(st.integers(-3, 3), kids), max_size=3),
    max_leaves=8,
)

#: a program: top-level pushes at absolute instants, interleaved with
#: ``run(until=)`` steps (a final full ``run()`` always follows)
_PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 20), _NODES),
        st.tuples(st.just("until"), st.integers(0, 25), st.just(None)),
    ),
    min_size=1,
    max_size=25,
)


class _Model:
    """Reference semantics: a heap of ``(when, seq, tag, node)`` drained one
    instant at a time, each pass popping everything due before firing."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.log = []
        self.batches = 0
        self.late = 0
        self.hwm = 0

    def push(self, when, tag, node):
        if when < self.now:
            self.late += 1
            when = self.now
        heappush(self.heap, (when, self.seq, tag, node))
        self.seq += 1
        self.hwm = max(self.hwm, len(self.heap))

    def run(self, until=None):
        heap = self.heap
        while heap and (until is None or heap[0][0] <= until):
            self.now = at = heap[0][0]
            while heap and heap[0][0] <= at:
                batch = []
                while heap and heap[0][0] <= at:
                    batch.append(heappop(heap))
                for _, _, tag, node in batch:
                    self.log.append((tag, at))
                    for j, (offset, child) in enumerate(node):
                        self.push(at + offset, f"{tag}.{j}", child)
            self.batches += 1
        if until is not None and heap:
            self.now = float(until)  # partial advance to a not-yet-due head


def _schedule(engine, when, tag, node, log):
    def fire():
        log.append((tag, engine.now))
        for j, (offset, child) in enumerate(node):
            _schedule(engine, engine.now + offset, f"{tag}.{j}", child, log)

    engine.call_at(when, fire)


def _stats(model):
    return {
        "pending": len(model.heap),
        "occupancy_hwm": model.hwm,
        "late_timers": model.late,
        "timers_fired": len(model.log),
        "drain_batches": model.batches,
    }


@given(program=_PROGRAMS)
@settings(max_examples=200, deadline=None)
def test_engine_timers_match_the_heap_model(program):
    engine, model, log = Engine(cores=1), _Model(), []
    for i, (op, at, node) in enumerate(program):
        if op == "push":
            _schedule(engine, float(at), str(i), node, log)
            model.push(float(at), str(i), node)
        elif at >= engine.now:  # until never moves backwards
            engine.run(until=float(at))
            model.run(until=at)
        assert engine.now == model.now
        assert log == model.log
        stats = engine.event_core_stats()
        assert {k: stats[k] for k in _stats(model)} == _stats(model)
    engine.run()
    model.run()
    assert log == model.log
    assert engine.now == model.now
    stats = engine.event_core_stats()
    assert {k: stats[k] for k in _stats(model)} == _stats(model)
    if model.batches:
        assert stats["mean_batch"] == len(model.log) / model.batches


def test_same_instant_chain_joins_the_drain_after_the_batch():
    """A callback chaining a timer at its own instant does not cut into the
    batch being fired: the pending same-instant sibling fires first, and the
    chained timer still fires in the same drain."""
    engine, log = Engine(cores=1), []
    engine.call_at(1.0, lambda: (log.append("a"), engine.call_at(0.5, lambda: log.append("late"))))
    engine.call_at(1.0, lambda: log.append("b"))
    engine.call_at(2.0, lambda: log.append("c"))
    engine.run()
    assert log == ["a", "b", "late", "c"]
    stats = engine.event_core_stats()
    assert stats["late_timers"] == 1
    assert (stats["timers_fired"], stats["drain_batches"]) == (4, 2)
    assert stats["occupancy_hwm"] == 3
