"""Online-auditor overhead on the scheduler hot path.

The audit layer's cost contract (docs/INTERNALS.md): arming
``RuntimeConfig(audit=True)`` may not slow a scheduling round by more than
10% at the acceptance depth of 128.  This benchmark times the exact pair
the daemon runs - one ETF round through the runtime's
:class:`~repro.platforms.timing.CostTable`, with and without the
:class:`~repro.audit.OnlineAuditor.on_round` hook behind it - and asserts
the audited/plain ratio against ``max_overhead_ratio`` in
``baseline.json``.  Both sides are timed interleaved (best-of over
alternating blocks) so machine noise hits them equally; the ratio is
self-relative and needs no host-specific re-recording.  Set
``REPRO_PERF_CHECK=0`` to skip the assertion entirely.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.audit import OnlineAuditor
from repro.platforms import zcu102
from repro.platforms.timing import CostTable
from repro.runtime.task import Task
from repro.sched import SCHEDULERS

#: same shape mixture as test_scheduler_rounds - a handful of interned
#: cost rows repeated across the batch, the regime the support memo exploits
_SHAPES = (
    ("fft", {"n": 128, "batch": 1}),
    ("fft", {"n": 256, "batch": 1}),
    ("ifft", {"n": 128, "batch": 1}),
    ("ifft", {"n": 256, "batch": 1}),
    ("zip", {"n": 256}),
    ("cpu_op", {"work_1ghz": 1.28e-4}),
)

DEPTH = 128


class _BareRuntime:
    """The three attributes OnlineAuditor reads off a runtime - nothing
    else, so the measurement isolates the hook itself."""

    def __init__(self, table, platform):
        self.cost_table = table
        self.platform = platform
        self.faults = None


def _harness():
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(_SHAPES), size=DEPTH)
    ready = [
        Task(api=_SHAPES[k][0], params=_SHAPES[k][1], app_id=i)
        for i, k in enumerate(picks)
    ]
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    table = CostTable(platform.timing, platform.pes)
    scheduler = SCHEDULERS.create("etf")
    pes = platform.pes
    auditor = OnlineAuditor(_BareRuntime(table, platform))

    def plain():
        for pe in pes:
            pe.expected_free = 0.0
        return scheduler.schedule(ready, pes, 0.0, table)

    def audited():
        for pe in pes:
            pe.expected_free = 0.0
        assignments = scheduler.schedule(ready, pes, 0.0, table)
        auditor.on_round(ready, assignments, 0.0)
        return assignments

    return plain, audited, auditor


def _interleaved_best(plain, audited, blocks: int = 120, inner: int = 10):
    """Best block time for each side, alternating so noise is shared."""
    best_plain = best_audited = float("inf")
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(inner):
            plain()
        t1 = time.perf_counter()
        for _ in range(inner):
            audited()
        t2 = time.perf_counter()
        best_plain = min(best_plain, (t1 - t0) / inner)
        best_audited = min(best_audited, (t2 - t1) / inner)
    return best_plain, best_audited


def test_audit_round_overhead_under_ten_percent(perf_baseline):
    plain, audited, auditor = _harness()
    plain()  # warm-up: intern every cost row so both sides run steady-state
    assert len(audited()) == DEPTH  # smoke the audited path before timing
    best_plain, best_audited = _interleaved_best(plain, audited)
    ratio = best_audited / best_plain
    print(
        f"\ndepth-{DEPTH} ETF round: plain {best_plain * 1e6:.1f}us, "
        f"audited {best_audited * 1e6:.1f}us, ratio {ratio:.3f} "
        f"({auditor.checks} rounds checked)"
    )
    if os.environ.get("REPRO_PERF_CHECK", "1") == "0":
        return
    entry = perf_baseline["audit_round_overhead"]
    assert ratio <= entry["max_overhead_ratio"], (
        f"auditor overhead ratio {ratio:.3f} exceeds the "
        f"{entry['max_overhead_ratio']:g} bound recorded in "
        f"benchmarks/baseline.json (measured {entry['measured_ratio']:g} "
        f"at recording time)"
    )
