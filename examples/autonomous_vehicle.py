#!/usr/bin/env python
"""The paper's autonomous-vehicle scenario, scaled to run in seconds.

"An example scenario could involve Lane Detection running as a continuous
process where Pulse Doppler and WiFi TX applications arrive dynamically"
(paper Section III).  This example submits exactly that mix to API-based
CEDR on both emulated platforms (reduced frame size so the lane-detection
convolutions execute numerically in a few seconds of wall time) and prints
per-application execution times plus where the work landed.

Run:  python examples/autonomous_vehicle.py
"""

import numpy as np

from repro.apps import LaneDetection, PulseDoppler, WifiTx
from repro.platforms import jetson, zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec


def build_workload() -> WorkloadSpec:
    return WorkloadSpec(
        name="av-demo",
        entries=(
            WorkloadEntry(LaneDetection(height=108, width=192, batch=32), 1),
            WorkloadEntry(PulseDoppler(batch=8), 2),
            WorkloadEntry(WifiTx(n_packets=30, batch=3), 2),
        ),
    )


def run_platform(platform_config, workload: WorkloadSpec, rate_mbps: float = 100.0):
    platform = platform_config.build(seed=9)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="heft_rt"))
    runtime.start()
    for instance, arrival in workload.instantiate("api", rate_mbps, seed=9):
        runtime.submit(instance, at=arrival)
    runtime.seal()
    runtime.run()

    print(f"\n== {platform_config.name} @ {rate_mbps:.0f} Mbps ==")
    for app in runtime.apps.values():
        extra = ""
        if app.name == "LD" and app.result is not None:
            left, right = app.result
            if left and right:
                extra = (f"  lanes at theta {np.degrees(left.theta):+.0f} deg / "
                         f"{np.degrees(right.theta):+.0f} deg")
        print(f"  {app.name}#{app.app_id}: exec {app.execution_time * 1e3:8.2f} ms{extra}")
    print(f"  tasks per PE: {runtime.logbook.tasks_by_pe()}")
    util = {d.name: f"{d.utilization(runtime.logbook.makespan):.0%}"
            for d in platform.engine.devices}
    if util:
        print(f"  accelerator occupancy: {util}")


def main() -> None:
    workload = build_workload()
    run_platform(zcu102(n_cpu=3, n_fft=2), workload)
    run_platform(jetson(n_cpu=7, n_gpu=1), workload)
    print("\nSame application binaries, two DSSoCs - the portability the "
          "CEDR compile/runtime split is designed for.")


if __name__ == "__main__":
    main()
