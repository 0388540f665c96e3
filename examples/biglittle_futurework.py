#!/usr/bin/env python
"""Exploring the paper's future work: big.LITTLE worker management.

The paper closes with: "One promising path to address the barrier of CPU
availability is to leverage progress in big.LITTLE architectures and
exchange a fraction of the heavyweight CPUs with a larger quantity of
lightweight CPUs specialized for worker thread management."

This example runs the autonomous-vehicle workload on three emulated SoCs -
the evaluated ZCU102 without and with its 8 FFT accelerators, and the
proposed big.LITTLE variant where 4 lightweight cores host every
accelerator-management thread - and reports execution time and estimated
energy for each, quantifying the paper's hypothesis inside the model.

Run:  python examples/biglittle_futurework.py
"""

from repro.metrics import RunResult
from repro.platforms import estimate_energy, zcu102, zcu102_biglittle
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.workload import av_workload_scaled

RATE_MBPS = 300.0


def run(platform_cfg):
    platform = platform_cfg.build(seed=1)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="heft_rt",
                                                  execute_kernels=False))
    runtime.start()
    workload = av_workload_scaled(ld_batch=64)
    for app, arrival in workload.instantiate("api", RATE_MBPS, seed=1):
        runtime.submit(app, at=arrival)
    runtime.seal()
    runtime.run()
    return RunResult.from_runtime(runtime), estimate_energy(platform)


def main() -> None:
    configs = [
        ("ZCU102, 3 big, 0 FFT", zcu102(n_cpu=3, n_fft=0)),
        ("ZCU102, 3 big, 8 FFT", zcu102(n_cpu=3, n_fft=8)),
        ("future: 3 big + 4 LITTLE, 8 FFT", zcu102_biglittle(n_big=3, n_little=4, n_fft=8)),
    ]
    print(f"AV workload (1xLD + 5xPD + 5xTX) @ {RATE_MBPS:.0f} Mbps, HEFT_RT\n")
    print(f"{'configuration':>34} | {'exec/app (ms)':>13} | {'energy (J)':>10} | {'avg power (W)':>13}")
    print("-" * 82)
    rows = {}
    for name, cfg in configs:
        result, energy = run(cfg)
        rows[name] = result.mean_exec_time
        print(f"{name:>34} | {result.mean_exec_time*1e3:13.1f} | "
              f"{energy.total_j:10.2f} | {energy.average_power_w:13.2f}")

    base = rows["ZCU102, 3 big, 8 FFT"]
    future = rows["future: 3 big + 4 LITTLE, 8 FFT"]
    print(f"\nMoving the 8 FFT management threads onto LITTLE cores recovers "
          f"{(base - future) / base:.0%} of the 8-FFT configuration's execution "
          "time - the paper's big.LITTLE hypothesis, confirmed in-model.")


if __name__ == "__main__":
    main()
