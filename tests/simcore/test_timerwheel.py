"""The timer wheel: unit tests plus the heap-equivalence model.

The wheel's whole correctness argument is "pops in exactly the ``(when,
seq)`` order a plain heapq would"; the Hypothesis model test at the bottom
drives the wheel and a transparent test-local heap through arbitrary
interleavings of pushes (including equal-``when`` ties), cancellations, and
partial ``pop_due`` drains and requires identical observable behaviour at
every step.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import TimerWheel
from repro.simcore.timerwheel import DEFAULT_BUCKET_S, DEFAULT_N_BUCKETS


def fired(queue, deadline):
    """Pop everything due and return the callback payloads (see _cb)."""
    return [cb() for cb in queue.pop_due(deadline)]


def _cb(tag):
    """A callback that identifies itself when fired."""
    return lambda: tag


@pytest.fixture
def queue():
    return TimerWheel()


# --------------------------------------------------------------------- #
# queue interface (default geometry)
# --------------------------------------------------------------------- #


def test_pop_due_returns_when_seq_order(queue):
    queue.push(2.0, 1, _cb("b"))
    queue.push(1.0, 2, _cb("a"))
    queue.push(2.0, 0, _cb("b0"))  # equal when: seq breaks the tie
    queue.push(3.0, 3, _cb("c"))
    assert queue.peek() == 1.0
    assert fired(queue, 2.5) == ["a", "b0", "b"]
    assert queue.peek() == 3.0
    assert fired(queue, 3.0) == ["c"]
    assert queue.peek() is None
    assert len(queue) == 0


def test_cancel_is_lazy_and_idempotent(queue):
    entry = queue.push(1.0, 0, _cb("x"))
    queue.push(2.0, 1, _cb("y"))
    assert queue.cancel(entry) is True
    assert queue.cancel(entry) is False  # second cancel is a no-op
    assert len(queue) == 1
    assert queue.peek() == 2.0  # cancelled head skipped
    assert fired(queue, 5.0) == ["y"]


def test_stats_schema_and_occupancy_hwm(queue):
    entries = [queue.push(float(i), i, _cb(i)) for i in range(5)]
    queue.cancel(entries[0])
    fired(queue, 10.0)
    stats = queue.stats()
    assert set(stats) == {"kind", "pending", "occupancy_hwm", "overflow_spills"}
    assert stats["kind"] == queue.kind
    assert stats["pending"] == 0
    assert stats["occupancy_hwm"] == 5


def test_pop_due_with_nothing_due_is_empty(queue):
    queue.push(5.0, 0, _cb("later"))
    assert queue.pop_due(1.0) == []
    assert len(queue) == 1


# --------------------------------------------------------------------- #
# wheel-specific structure
# --------------------------------------------------------------------- #


def test_wheel_spills_beyond_horizon_and_rotates_back():
    wheel = TimerWheel(now=0.0, bucket_s=1e-3, n_buckets=4)  # 4 ms horizon
    wheel.push(1e-3, 0, _cb("near"))
    wheel.push(0.1, 1, _cb("far"))       # beyond 4 ms -> overflow
    wheel.push(0.1, 2, _cb("far-tie"))   # same instant, later seq
    assert wheel.spills == 2
    assert fired(wheel, 1e-3) == ["near"]
    assert wheel.peek() == 0.1           # answered from overflow, no rotation
    assert fired(wheel, 0.1) == ["far", "far-tie"]  # rotation preserves order
    assert wheel.peek() is None


def test_wheel_rotation_skips_cancelled_overflow_entries():
    wheel = TimerWheel(now=0.0, bucket_s=1e-3, n_buckets=4)
    dead = wheel.push(0.5, 0, _cb("dead"))
    wheel.push(0.5, 1, _cb("alive"))
    wheel.cancel(dead)
    assert fired(wheel, 1.0) == ["alive"]


def test_wheel_push_into_drained_past_lands_in_cursor_bucket():
    wheel = TimerWheel(now=0.0, bucket_s=1e-3, n_buckets=8)
    wheel.push(5e-3, 0, _cb("ahead"))
    assert fired(wheel, 4e-3) == []      # cursor advanced past early buckets
    wheel.push(1e-4, 1, _cb("past"))     # would index an already-drained bucket
    assert wheel.peek() == 1e-4
    assert fired(wheel, 5e-3) == ["past", "ahead"]


def test_wheel_geometry_validation():
    with pytest.raises(ValueError, match="bucket_s"):
        TimerWheel(bucket_s=0.0)
    with pytest.raises(ValueError, match="n_buckets"):
        TimerWheel(n_buckets=1)
    assert DEFAULT_BUCKET_S > 0 and DEFAULT_N_BUCKETS >= 2


# --------------------------------------------------------------------- #
# Hypothesis: the wheel is observationally equal to a plain heapq
# --------------------------------------------------------------------- #

# Operations: push at a (possibly repeated) when, cancel an earlier push,
# or drain everything due at a deadline.  Whens are drawn from a coarse
# grid so equal-``when`` ties are common (the tie-break is the contract's
# hard part), and the range straddles the wheel horizon so pushes land in
# buckets, the cursor bucket, and the overflow heap.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=2000)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("pop"), st.integers(min_value=0, max_value=2500)),
    ),
    min_size=1,
    max_size=120,
)


class _HeapModel:
    """Reference semantics: a transparent heapq of [when, seq, tag]."""

    def __init__(self):
        self.heap = []
        self.entries = []

    def push(self, when, seq, tag):
        entry = [when, seq, tag]
        heapq.heappush(self.heap, entry)
        self.entries.append(entry)

    def cancel(self, idx):
        entry = self.entries[idx]
        live = entry[2] is not None
        entry[2] = None
        return live

    def pop_due(self, deadline):
        out = []
        while self.heap and self.heap[0][0] <= deadline:
            entry = heapq.heappop(self.heap)
            if entry[2] is not None:
                out.append(entry[2])
                entry[2] = None  # fired (matches the wheel)
        return out

    def peek(self):
        while self.heap and self.heap[0][2] is None:
            heapq.heappop(self.heap)
        return self.heap[0][0] if self.heap else None


@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_wheel_matches_heap_reference_pop_order(ops):
    # Tiny geometry (20 us horizon) so a generated trace exercises bucket
    # hits, cursor clamps, horizon spills, and rotations all at once.
    wheel = TimerWheel(now=0.0, bucket_s=1e-5, n_buckets=2)
    model = _HeapModel()
    handles = []
    seq = 0
    live = 0
    drained_to = -1.0  # engine invariant: deadlines never move backwards
    for op, arg in ops:
        if op == "push":
            # grid of 1 us steps over [0, 2 ms]: ties are frequent, and
            # anything past 20 us lands in the wheel's overflow heap
            when = max(arg * 1e-6, drained_to)
            handles.append(wheel.push(when, seq, _cb(seq)))
            model.push(when, seq, seq)
            seq += 1
            live += 1
        elif op == "cancel":
            if handles:
                idx = arg % len(handles)
                cancelled = wheel.cancel(handles[idx])
                assert cancelled == model.cancel(idx)
                live -= cancelled
        else:  # pop
            deadline = max(arg * 1e-6, drained_to)
            drained_to = deadline
            got = [cb() for cb in wheel.pop_due(deadline)]
            assert got == model.pop_due(deadline)
            assert wheel.peek() == model.peek()
            live -= len(got)
        assert len(wheel) == live
    # final full drain must agree exactly
    final = [cb() for cb in wheel.pop_due(float("inf"))]
    assert final == model.pop_due(float("inf"))
    assert wheel.peek() is None and model.peek() is None
    assert len(wheel) == 0


def test_wheel_rotation_exactly_at_default_horizon_boundary():
    """The 512 x 10 us production geometry, probed right at the page edge:
    a push at ``base + span`` exactly must spill (the horizon is
    half-open), and draining exactly to the boundary rotates the base to
    the next page with the edge entry firing from bucket 0."""
    span = DEFAULT_BUCKET_S * DEFAULT_N_BUCKETS
    wheel = TimerWheel(now=0.0)
    wheel.push(span - DEFAULT_BUCKET_S, 0, _cb("last-in-horizon"))
    wheel.push(span, 1, _cb("edge"))                    # == horizon: overflow
    wheel.push(span + DEFAULT_BUCKET_S, 2, _cb("beyond"))
    wheel.push(3 * span, 3, _cb("pages-later"))
    assert wheel.spills == 3
    assert fired(wheel, span - DEFAULT_BUCKET_S) == ["last-in-horizon"]
    assert fired(wheel, span) == ["edge"]
    assert wheel._base == span                          # rotated one full page
    assert fired(wheel, span + DEFAULT_BUCKET_S) == ["beyond"]
    assert fired(wheel, 3 * span) == ["pages-later"]    # multi-page jump
    assert wheel.peek() is None and len(wheel) == 0


def test_wheel_lazy_cancel_after_overflow_migration():
    """A cancel handle must stay valid across rotation: the entry object
    migrates from the overflow heap into a bucket unchanged, so blanking
    its callback slot afterwards still suppresses the fire."""
    wheel = TimerWheel(now=0.0, bucket_s=1e-3, n_buckets=4)  # 4 ms horizon
    wheel.push(5e-3, 0, _cb("first"))
    doomed = wheel.push(7e-3, 1, _cb("doomed"))
    assert wheel.spills == 2
    # draining to the first entry rotates; BOTH entries migrate to buckets
    assert fired(wheel, 5e-3) == ["first"]
    assert wheel._in_buckets == 1
    assert wheel.cancel(doomed) is True     # handle survived the migration
    assert wheel.cancel(doomed) is False    # and cancellation is idempotent
    assert fired(wheel, 1.0) == []          # lazy discard, nothing fires
    assert wheel.peek() is None
    assert len(wheel) == 0
