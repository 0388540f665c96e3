"""Ablation bench: the full scheduler repertoire on the AV workload.

Beyond the paper's four heuristics this adds MET (queue-blind
minimum-execution-time) and seeded-random mapping from the wider CEDR
scheduler studies, on the stressed Fig. 9(a) configuration.  Expected
ordering: the backlog-aware heuristics (EFT/ETF/HEFT_RT) in front, the
queue-blind-but-type-aware MET in the middle, and the two spreading
policies (RR, random) at the back - they maximize simultaneously active
accelerator-management threads.
"""

from repro.experiments import run_once
from repro.platforms import zcu102
from repro.runtime import RuntimeConfig
from repro.workload import av_workload_scaled

ALL_SCHEDULERS = ("rr", "eft", "etf", "heft_rt", "met", "random")
RATE = 300.0


def test_scheduler_repertoire(benchmark, ld_batch):
    workload = av_workload_scaled(ld_batch=ld_batch)
    platform = zcu102(n_cpu=3, n_fft=8)

    def sweep():
        return {
            name: run_once(platform, workload, "api", RATE, 1,
                           RuntimeConfig(scheduler=name, execute_kernels=False))
            for name in ALL_SCHEDULERS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nscheduler repertoire (ZCU102 3C+8FFT, AV workload @300 Mbps):")
    print(f"{'scheduler':>10} | {'exec/app (ms)':>13} | {'sched oh (ms)':>13} | {'q mean':>6}")
    for name in ALL_SCHEDULERS:
        r = results[name]
        print(f"{name:>10} | {r.mean_exec_time*1e3:13.1f} | "
              f"{r.sched_overhead_per_app*1e3:13.3f} | {r.ready_depth_mean:6.1f}")

    exec_of = {name: results[name].mean_exec_time for name in ALL_SCHEDULERS}
    smart_best = min(exec_of["eft"], exec_of["etf"], exec_of["heft_rt"])
    # the spreading policies sit clearly behind the backlog-aware heuristics
    assert exec_of["rr"] > 1.3 * smart_best
    assert exec_of["random"] > 1.3 * smart_best
    # queue-blind MET cannot beat the backlog-aware group under load
    assert exec_of["met"] >= 0.95 * smart_best
    # every scheduler terminates the full workload
    assert all(r.n_apps == 11 for r in results.values())
