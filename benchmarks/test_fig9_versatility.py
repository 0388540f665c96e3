"""Bench: regenerate Fig. 9 - the autonomous-vehicle workload (API-CEDR).

Paper results asserted here:

* both platforms show execution time rising toward saturation with
  injection rate (the ZCU102 saturating by ~100-300 Mbps);
* the Jetson copes far better: saturated ~600-700 ms vs ~2000 ms on the
  ZCU102 (we assert a >= 2x platform gap);
* RR is the worst scheduler on both platforms - it cannot exploit the
  richer PE pool.
"""

from repro.experiments import run_figure
from repro.metrics import print_series_table


def test_fig9_av_workload(benchmark):
    rates = [20.0, 60.0, 150.0, 400.0, 1000.0]
    panels = benchmark.pedantic(
        run_figure,
        args=("fig9",),
        kwargs={"xs": rates, "trials": 1},
        rounds=1, iterations=1,
    )
    for pid in ("fig9a", "fig9b"):
        print_series_table(panels[pid], y_scale=1e3, y_fmt="{:10.1f}")

    zcu_best = min(panels["fig9a"].get(s).ys[-1] for s in ("EFT", "ETF", "HEFT_RT"))
    jet_best = min(panels["fig9b"].get(s).ys[-1] for s in ("EFT", "ETF", "HEFT_RT"))
    print(f"\nsaturated best-scheduler exec/app: ZCU102 {zcu_best*1e3:.0f} ms vs "
          f"Jetson {jet_best*1e3:.0f} ms (paper: ~2000 vs 600-700 ms)")
    assert jet_best < zcu_best / 2

    # RR worst on both platforms at the saturated end
    for pid in ("fig9a", "fig9b"):
        rr_last = panels[pid].get("RR").ys[-1]
        for sched in ("EFT", "ETF", "HEFT_RT"):
            assert rr_last > panels[pid].get(sched).ys[-1], (pid, sched)

    # execution time never meaningfully *improves* with load: the curves
    # rise to saturation, then flatten (LD dominates the average, so the
    # rise is mild; allow 10% flat-region noise)
    for pid in ("fig9a", "fig9b"):
        s = panels[pid].get("RR")
        assert s.ys[-1] >= 0.9 * s.ys[0]
