"""Resilience sweep - execution time and goodput vs fault rate.

This figure has no counterpart in the paper: it exercises the
``repro.faults`` subsystem, which extends the reproduced CEDR runtime with
deterministic fault injection and task-level recovery (see
docs/INTERNALS.md, "Fault model & recovery").

Setup: the paper's radar/comms workload (5x Pulse Doppler + 5x WiFi TX) on
the ZCU102 with 3 ARM cores and 1 FFT accelerator, API mode, pinned at a
saturated 200 Mbps injection rate.  The x-axis sweeps the per-PE fault
rate (faults per simulated second per PE) over all paper schedulers:

* ``resilience_exec`` - average execution time of *surviving* applications;
* ``resilience_goodput`` - fraction of applications that completed despite
  injected faults (failed apps count against it, cancelled apps do not).

Expected shape: execution time rises with fault rate (retries, reroutes
and slowdown windows stretch every queue) while goodput holds near 1.0 for
moderate rates - the watchdog + retry machinery absorbs the faults - then
collapses once the fault inter-arrival time approaches task service times
and retry budgets exhaust.

Every (scheduler, fault rate, trial) cell is an independent unit of work
sharded across the PR-1 process pool; the fault schedule is a pure
function of ``(platform, fault config, seed)``, so ``n_jobs > 1`` is
bit-identical to the serial sweep.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults import FaultConfig
from repro.metrics import FigureSeries, aggregate_trials
from repro.platforms import zcu102
from repro.runtime import RuntimeConfig
from repro.sched import paper_schedulers
from repro.workload import radar_comms_workload

from .common import run_cells, trial_seeds

__all__ = ["run_fig_resilience", "FAULT_RATES", "RESILIENCE_RATE_MBPS"]

#: per-PE fault rates (faults/s/PE) swept on the x-axis
FAULT_RATES = (0.0, 5.0, 10.0, 20.0, 50.0, 100.0)
#: saturated injection rate the workload is pinned at (Mbps)
RESILIENCE_RATE_MBPS = 200.0


def run_fig_resilience(
    fault_rates: Optional[Sequence[float]] = None,
    trials: int = 2,
    seed: int = 0,
    fault_seed: Optional[int] = None,
    schedulers: Sequence[str] = paper_schedulers(),
    n_jobs: Optional[int] = None,
) -> dict[str, FigureSeries]:
    """Sweep fault rate x scheduler; returns {panel id: FigureSeries}.

    ``fault_seed=None`` derives each run's fault schedule from its trial
    seed (schedules vary across trials); a fixed integer pins the same
    schedule for every trial, isolating scheduler behaviour.
    """
    fault_rates = tuple(float(r) for r in (fault_rates if fault_rates is not None else FAULT_RATES))
    platform = zcu102(n_cpu=3, n_fft=1)
    workload = radar_comms_workload()
    setup = "ZCU102 3C+1FFT, 5xPD + 5xTX @ 200 Mbps, API mode"
    panels = {
        "resilience_exec": FigureSeries(
            "resilience_exec", f"Execution time under fault injection ({setup})",
            "fault rate (faults/s/PE)", "execution time per surviving app (s)",
        ),
        "resilience_goodput": FigureSeries(
            "resilience_goodput", f"Goodput under fault injection ({setup})",
            "fault rate (faults/s/PE)", "goodput (completed / submitted apps)",
        ),
    }
    seeds = trial_seeds(trials, seed)
    for scheduler in schedulers:
        cells = []
        for rate in fault_rates:
            faults = FaultConfig(rate=rate, seed=fault_seed) if rate > 0.0 else None
            config = RuntimeConfig(scheduler=scheduler, faults=faults)
            cells.extend(
                (platform, workload, "api", RESILIENCE_RATE_MBPS, scheduler,
                 s, False, config)
                for s in seeds
            )
        results = run_cells(cells, n_jobs)
        exec_ys, goodput_ys = [], []
        for i in range(len(fault_rates)):
            stats = aggregate_trials(results[i * trials:(i + 1) * trials])
            exec_ys.append(stats["exec_time"].mean)
            goodput_ys.append(stats["goodput"].mean)
        panels["resilience_exec"].add(scheduler.upper(), fault_rates, exec_ys)
        panels["resilience_goodput"].add(scheduler.upper(), fault_rates, goodput_ys)
    return panels
