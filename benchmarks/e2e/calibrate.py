"""The calibration kernel: the benchmark's unit of host time.

Raw wall seconds of unchanged code drift by tens of percent between
back-to-back runs on a small shared sandbox, so no end-to-end time is
reported in seconds.  Every timed repetition is instead sandwiched between
two runs of this fixed kernel and divided by their mean: a *calibration
unit* is "one pass of the kernel below, measured in the same second".

The kernel is pure CPython with the simulator's instruction mix - generator
``send`` (the coroutine hop of every simulated thread), ``heapq`` push/pop
(the timer queue), slotted-object allocation (tasks, timers), dict stores
(the runtime's books) and tiny-NumPy ``fromiter``/reduce calls (one
scheduling round) - so that whatever slows the interpreter under the
simulator slows the kernel by the same factor.  It imports nothing from
``repro``: a change to the program cannot move the unit.

The work is fixed (``CALIB_ROUNDS``); never tune it to a host.  Changing it
rescales every ``norm_wall`` ever recorded.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

__all__ = ["CALIB_ROUNDS", "calibration_kernel", "calibrate"]

#: iterations of the mixed loop; ~0.16 s on the 2-vCPU reference sandbox
CALIB_ROUNDS = 160_000

#: checksum of one kernel pass - a pass that computes anything else did
#: not do the fixed work, and its time means nothing
_EXPECTED = 83_685_262.0


class _Cell:
    __slots__ = ("when", "seq", "owner")

    def __init__(self, when: float, seq: int, owner: object) -> None:
        self.when = when
        self.seq = seq
        self.owner = owner


def _accumulator():
    total = 0
    while True:
        total += yield total


def calibration_kernel(rounds: int = CALIB_ROUNDS) -> float:
    """One pass of the fixed mixed workload; returns its checksum."""
    heap: list = []
    books: dict = {}
    gen = _accumulator()
    next(gen)
    send = gen.send
    push = heapq.heappush
    pop = heapq.heappop
    fromiter = np.fromiter
    check = 0.0
    for i in range(rounds):
        cell = _Cell(float((i * 7919) % 1009), i, books)
        push(heap, (cell.when, i, cell))
        books[i & 1023] = cell
        send(i & 7)
        if i >= 32:  # a steady 32-deep queue, like the engine's timer heap
            check += pop(heap)[0]
        if i & 63 == 63:
            row = fromiter((c[0] for c in heap[:8]), dtype=np.float64, count=8)
            check += float(row.min()) + float(row.argmin())
    return check + send(0)


def calibrate() -> float:
    """Wall seconds of one kernel pass (the unit every rep is divided by)."""
    t0 = time.perf_counter()
    check = calibration_kernel()
    elapsed = time.perf_counter() - t0
    if check != _EXPECTED:
        raise RuntimeError(
            f"calibration kernel checksum {check!r} != {_EXPECTED!r}: "
            f"the fixed work changed, so calibration units are not comparable"
        )
    return elapsed
