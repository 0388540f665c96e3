"""Ablation bench: periodic vs Poisson workload injection.

The paper's injection model is strictly periodic per stream; real CEDR
accepts arbitrary arrival traces.  This bench compares the radar-comms
workload under periodic and Poisson arrivals at the same *mean* rate in
the transition region.  The interesting finding is about *predictability*,
not the mean: the periodic schedule is deterministic (its synchronized
stream starts are themselves a repeatable burst), so per-application
execution times barely move across trials, while Poisson arrivals make
both the trial-to-trial mean and the worst-per-app execution time swing by
large factors - the tail-latency risk an integrator accepts when arrivals
are not isochronous.
"""

import numpy as np

from repro.apps import PulseDoppler, WifiTx
from repro.experiments import run_trials
from repro.platforms import zcu102
from repro.runtime import RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec

RATE = 60.0  # transition region: neither serial nor fully saturated
TRIALS = 5


def make_workload(process: str) -> WorkloadSpec:
    return WorkloadSpec(
        name=f"rc-{process}",
        entries=(
            WorkloadEntry(PulseDoppler(), 5),
            WorkloadEntry(WifiTx(), 5),
        ),
        arrival_process=process,
    )


def test_bursty_arrivals_destroy_predictability(benchmark):
    platform = zcu102(n_cpu=3, n_fft=1)

    def sweep():
        out = {}
        for process in ("periodic", "poisson"):
            out[process] = run_trials(
                platform, make_workload(process), "api", RATE,
                RuntimeConfig(scheduler="heft_rt", execute_kernels=False),
                trials=TRIALS, base_seed=11,
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    stats = {}
    print("\narrival-process ablation (radar-comms @60 Mbps, HEFT_RT):")
    for process, runs in results.items():
        means = np.array([r.mean_exec_time for r in runs])
        worsts = np.array([max(r.exec_times) for r in runs])
        stats[process] = {
            "mean": float(means.mean()),
            "mean_std": float(means.std(ddof=1)),
            "swing": float(means.max() / means.min()),
            "worst": float(worsts.max()),
        }
        print(f"{process:>9}: mean exec {means.mean()*1e3:8.2f} ms "
              f"(trial std {means.std(ddof=1)*1e3:6.2f}, "
              f"max/min swing {means.max()/means.min():.2f}), "
              f"worst app over trials {worsts.max()*1e3:8.2f} ms")

    periodic, poisson = stats["periodic"], stats["poisson"]
    # periodic injection is deterministic run to run (timing-only runs:
    # trial payloads differ, arrival timing does not) while Poisson swings
    assert periodic["mean_std"] < 1e-9
    assert poisson["mean_std"] > 1e-3
    assert poisson["swing"] > 1.1
    # at equal mean offered load, the means stay within the same regime -
    # note the periodic schedule's synchronized stream starts are already a
    # worst-case burst, so Poisson does not dominate it on averages
    assert 0.5 < poisson["mean"] / periodic["mean"] < 2.0
