"""Ablation bench: the paper's big.LITTLE future-work proposal.

Paper conclusion: "exchange a fraction of the heavyweight CPUs with a
larger quantity of lightweight CPUs specialized for worker thread
management ... to enable maximal parallelism across diverse configurations
of heterogeneous accelerators while minimizing the energy and latency".

This bench tests that hypothesis inside the reproduction's model: the
Fig. 10(a) configuration that hurt the most (3 big cores + 8 FFT
accelerators, AV workload, 300 Mbps) is rerun with the accelerator-
management threads moved onto 4 LITTLE (0.45x) cores.  Expected: a large
execution-time recovery - the management spinners stop crowding the big
cores - at a modest energy cost, and the "more accelerators is worse"
trend of Fig. 10(a) flattens.
"""

from repro.platforms import estimate_energy, zcu102, zcu102_biglittle
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.workload import av_workload_scaled

RATE = 300.0


def run_config(platform_cfg, workload, scheduler="heft_rt", seed=1):
    platform = platform_cfg.build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler,
                                                  execute_kernels=False))
    runtime.start()
    for app, arrival in workload.instantiate("api", RATE, seed):
        runtime.submit(app, at=arrival)
    runtime.seal()
    runtime.run()
    from repro.metrics import RunResult

    result = RunResult.from_runtime(runtime)
    energy = estimate_energy(platform)
    return result, energy


def test_biglittle_recovers_accelerator_value(benchmark, ld_batch):
    workload = av_workload_scaled(ld_batch=ld_batch)

    def sweep():
        out = {}
        out["baseline-8fft"] = run_config(zcu102(n_cpu=3, n_fft=8), workload)
        out["baseline-0fft"] = run_config(zcu102(n_cpu=3, n_fft=0), workload)
        out["biglittle-8fft"] = run_config(
            zcu102_biglittle(n_big=3, n_little=4, n_fft=8), workload
        )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nbig.LITTLE ablation (AV workload @300 Mbps, HEFT_RT):")
    print(f"{'configuration':>18} | {'exec/app (ms)':>13} | {'energy (J)':>10} | {'avg W':>6}")
    for name, (res, energy) in results.items():
        print(f"{name:>18} | {res.mean_exec_time*1e3:13.1f} | "
              f"{energy.total_j:10.2f} | {energy.average_power_w:6.2f}")

    base8 = results["baseline-8fft"][0].mean_exec_time
    base0 = results["baseline-0fft"][0].mean_exec_time
    bl8 = results["biglittle-8fft"][0].mean_exec_time

    # the paper's hypothesis: LITTLE-hosted management threads recover a
    # large share of the Fig. 10(a) degradation...
    assert bl8 < 0.75 * base8
    # ...making 8 accelerators no longer strictly worse than none
    assert bl8 < 1.15 * base0
    # energy: the LITTLE cores add little; average power stays in the same
    # class as the baseline
    p_base = results["baseline-8fft"][1].average_power_w
    p_bl = results["biglittle-8fft"][1].average_power_w
    assert p_bl < 1.5 * p_base
