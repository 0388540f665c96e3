"""The engine's pending-timer set: a calendar-queue timer wheel.

The engine's main loop needs three operations on its pending timers:
*push* an ``(when, seq, callback)`` entry, *peek* the earliest pending
``when``, and *pop everything due* at the instant the clock just reached.
With one global binary heap every push and pop costs ``O(log n)`` where ``n``
includes *every* pending timer - at million-task scale the far-future
arrival timers inflate the heap and tax each microsecond-scale signal
timer with a 15-20 level sift.  The classic fix (Brown's calendar queue,
the kernel timer wheel; also the move DS3-style DSSoC simulators make to
reach realistic injection rates) is to bucket the near future and keep
only the far future in a heap: :class:`TimerWheel` divides the *horizon*
``[base, base + n*width)`` into ``n`` buckets of ``width`` simulated
seconds.  A push lands in its bucket by one multiply (amortized O(1));
entries beyond the horizon spill into an overflow heap whose size no longer
taxes near-future traffic.  When the wheel drains past the horizon it
*rotates*: the base jumps to the overflow head's page and every overflow
entry inside the new horizon migrates into buckets (each migration is one
heap pop it would have cost anyway).

Ordering contract: entries pop in exact ``(when, seq)`` order, the order a
plain ``heapq`` of the same entries would give.  Bucket index is a monotone
non-decreasing function of ``when`` (floor of a monotone float division),
so bucket order can never contradict time order, and within a bucket
entries sort by ``(when, seq)``.  The Hypothesis model test in
``tests/simcore/test_timerwheel.py`` pins this against a transparent
``heapq`` under arbitrary push/cancel/pop interleavings.

Cancellation is lazy: :meth:`TimerWheel.cancel` blanks the entry's callback
slot and the entry is discarded whenever a peek/pop/rotation next touches
it - O(1) cancel without tombstone bookkeeping.

Bucket width choice: timers in this simulator are bimodal - microsecond
signal/dispatch latencies near ``now`` and millisecond-to-second arrival
timers far ahead.  The default 10 us buckets x 512 slots give a ~5 ms
horizon: wide enough that rotation is rare (one per ~5 ms of simulated
time), narrow enough that a bucket rarely holds more than a handful of
entries, so the per-bucket sort stays effectively O(batch).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

__all__ = ["DEFAULT_BUCKET_S", "DEFAULT_N_BUCKETS", "TimerWheel"]

#: default wheel geometry (see module docstring for the rationale).
DEFAULT_BUCKET_S = 1e-5
DEFAULT_N_BUCKETS = 512

#: a pending timer: ``[when, seq, callback]``.  A mutable list so
#: :meth:`cancel` can blank the callback slot in place; ``(when, seq)`` is
#: a unique prefix, so heap/sort comparisons never reach the callback.
TimerEntry = List


class TimerWheel:
    """Calendar-queue / timer-wheel hybrid (see module docstring).

    Structure invariants:

    * every bucket entry has ``when < base + n*width`` (the horizon);
    * every overflow entry has ``when >=`` the horizon;
    * buckets strictly order by time: an entry in bucket ``i`` never
      sorts after one in bucket ``j > i`` (monotone index + clamps that
      only move entries toward the cursor, never past a later entry);
    * ``_in_buckets`` counts entries *stored* in buckets (cancelled ones
      included until discarded), which is what the cursor scan needs to
      terminate; ``_live`` counts non-cancelled entries queue-wide.
    """

    #: reported as ``kind`` in :meth:`stats` (the ``event_core`` block of
    #: ``run --perf-json``)
    kind = "wheel"

    __slots__ = (
        "_width",
        "_inv_width",
        "_n",
        "_span",
        "_base",
        "_cursor",
        "_cursor_sorted",
        "_buckets",
        "_overflow",
        "_live",
        "_in_buckets",
        "occupancy_hwm",
        "spills",
    )

    def __init__(
        self,
        now: float = 0.0,
        bucket_s: float = DEFAULT_BUCKET_S,
        n_buckets: int = DEFAULT_N_BUCKETS,
    ) -> None:
        if bucket_s <= 0.0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s}")
        if n_buckets < 2:
            raise ValueError(f"n_buckets must be >= 2, got {n_buckets}")
        self._width = bucket_s
        self._inv_width = 1.0 / bucket_s
        self._n = n_buckets
        self._span = bucket_s * n_buckets
        self._base = now
        self._cursor = 0
        #: whether the cursor bucket is currently sorted by (when, seq).
        self._cursor_sorted = True
        self._buckets: list[list[TimerEntry]] = [[] for _ in range(n_buckets)]
        self._overflow: list[TimerEntry] = []
        self._live = 0
        self._in_buckets = 0
        #: high-water mark of live entries (wheel + overflow together).
        self.occupancy_hwm = 0
        #: pushes that landed beyond the horizon, into the overflow heap.
        self.spills = 0

    def __len__(self) -> int:
        return self._live

    def push(self, when: float, seq: int, callback: Callable[[], None]) -> TimerEntry:
        entry = [when, seq, callback]
        base = self._base
        if when - base >= self._span:
            heapq.heappush(self._overflow, entry)
            self.spills += 1
        else:
            idx = int((when - base) * self._inv_width)
            cursor = self._cursor
            if idx <= cursor:
                # Already-drained bucket (clock caught up past it) or the
                # bucket under the cursor: both land in the cursor bucket,
                # whose sort restores exact (when, seq) order.
                idx = cursor
                self._cursor_sorted = False
            elif idx >= self._n:  # float rounding at the horizon edge
                idx = self._n - 1
            self._buckets[idx].append(entry)
            self._in_buckets += 1
        self._live += 1
        if self._live > self.occupancy_hwm:
            self.occupancy_hwm = self._live
        return entry

    def cancel(self, entry: TimerEntry) -> bool:
        """Blank *entry*'s callback; returns False if already fired/cancelled."""
        if entry[2] is None:
            return False
        entry[2] = None
        self._live -= 1
        return True

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _advance_cursor(self) -> None:
        """Move the cursor to the next non-empty bucket (one must exist)."""
        buckets = self._buckets
        cursor = self._cursor
        if buckets[cursor]:
            return
        while not buckets[cursor]:
            cursor += 1
        self._cursor = cursor
        self._cursor_sorted = False

    def _rotate(self) -> None:
        """Jump the horizon to the overflow head's page and migrate every
        overflow entry that now falls inside it.  Only called with empty
        buckets and a non-empty overflow."""
        overflow = self._overflow
        head = overflow[0][0]
        span = self._span
        base = self._base
        base += span * int((head - base) / span)
        # float guards: land the head strictly inside [base, base + span)
        if head < base:
            base -= span
        elif head - base >= span:
            base += span
        self._base = base
        self._cursor = 0
        self._cursor_sorted = False
        n = self._n
        inv_width = self._inv_width
        buckets = self._buckets
        migrated = 0
        while overflow and overflow[0][0] - base < span:
            entry = heapq.heappop(overflow)
            if entry[2] is None:  # cancelled while waiting beyond the horizon
                continue
            idx = int((entry[0] - base) * inv_width)
            if idx < 0:
                idx = 0
            elif idx >= n:
                idx = n - 1
            buckets[idx].append(entry)
            migrated += 1
        self._in_buckets += migrated

    def _drop_cancelled_overflow_heads(self) -> None:
        overflow = self._overflow
        while overflow and overflow[0][2] is None:
            heapq.heappop(overflow)

    # ------------------------------------------------------------------ #
    # queue interface
    # ------------------------------------------------------------------ #

    def peek(self) -> Optional[float]:
        """Earliest pending ``when``, or None.

        Buckets always hold earlier entries than the overflow (horizon
        invariant), so the bucket scan answers first and the overflow head
        answers only when every bucket is empty - no rotation needed just
        to look.
        """
        while self._in_buckets:
            self._advance_cursor()
            bucket = self._buckets[self._cursor]
            if not self._cursor_sorted:
                bucket.sort()
                self._cursor_sorted = True
            while bucket and bucket[0][2] is None:
                del bucket[0]
                self._in_buckets -= 1
            if bucket:
                return bucket[0][0]
        self._drop_cancelled_overflow_heads()
        overflow = self._overflow
        return overflow[0][0] if overflow else None

    def pop_due(self, deadline: float) -> list[Callable[[], None]]:
        """Callbacks of every live entry with ``when <= deadline``, in
        ``(when, seq)`` order; the entries leave the queue."""
        out: list[Callable[[], None]] = []
        while True:
            if self._in_buckets:
                self._advance_cursor()
                bucket = self._buckets[self._cursor]
                if not self._cursor_sorted:
                    bucket.sort()
                    self._cursor_sorted = True
                i = 0
                end = len(bucket)
                while i < end and bucket[i][0] <= deadline:
                    entry = bucket[i]
                    cb = entry[2]
                    if cb is not None:
                        out.append(cb)
                        self._live -= 1
                        entry[2] = None  # fired: cancel is now a no-op
                    i += 1
                if i == 0:
                    break  # bucket head (hence everything else) is later
                del bucket[:i]
                self._in_buckets -= i
                if bucket:
                    break  # rest of this bucket is beyond the deadline
            else:
                self._drop_cancelled_overflow_heads()
                overflow = self._overflow
                if not overflow or overflow[0][0] > deadline:
                    break
                self._rotate()
        return out

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "pending": self._live,
            "occupancy_hwm": self.occupancy_hwm,
            "overflow_spills": self.spills,
        }
