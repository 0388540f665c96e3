"""Bench: regenerate Fig. 10 - scalability over the PE pool (API-CEDR).

Paper results asserted here:

* (a) ZCU102 @300 Mbps: the least execution time is at 0 FFT accelerators
  and the trend is upward as FFTs are added (each accelerator adds a
  CPU-hungry management thread to 3 shared cores); RR degrades the most,
  the heterogeneity-aware heuristics the least;
* (b) Jetson @500 Mbps: execution time vs CPU-worker count is polynomial
  with an interior minimum (paper: at 5 CPU + 1 GPU) - concurrency gains
  first, worker/application-thread crowding after.
"""

from repro.experiments import run_figure
from repro.metrics import print_series_table


def test_fig10a_zcu_fft_scaling(benchmark):
    fig = benchmark.pedantic(
        run_figure,
        args=("fig10a",),
        kwargs={"xs": [0, 1, 2, 4, 8], "trials": 1},
        rounds=1, iterations=1,
    )["fig10a"]
    print_series_table(fig, y_scale=1e3, y_fmt="{:10.1f}")

    for sched in ("RR", "EFT", "ETF", "HEFT_RT"):
        s = fig.get(sched)
        # 0 FFTs is (within noise) the best configuration...
        assert s.ys[0] <= 1.05 * min(s.ys), f"{sched}: 0 FFTs must be ~best"
        # ...and the trend with added FFT accelerators is clearly upward
        assert s.ys[-1] > 1.2 * s.ys[0], f"{sched}: adding FFTs must hurt"

    # scheduler ordering at the 8-FFT end: RR worst, smart heuristics best
    rr8 = fig.get("RR").y_at(8.0)
    for sched in ("EFT", "ETF", "HEFT_RT"):
        assert rr8 > fig.get(sched).y_at(8.0)
    print(f"\n8-FFT exec/app: RR {rr8*1e3:.0f} ms vs HEFT_RT "
          f"{fig.get('HEFT_RT').y_at(8.0)*1e3:.0f} ms - fairness maximizes "
          "management-thread contention")


def test_fig10b_jetson_cpu_scaling(benchmark):
    fig = benchmark.pedantic(
        run_figure,
        args=("fig10b",),
        kwargs={"xs": [1, 2, 3, 4, 5, 6, 7], "trials": 1},
        rounds=1, iterations=1,
    )["fig10b"]
    print_series_table(fig, y_scale=1e3, y_fmt="{:10.1f}")

    # RR shows the paper's clean polynomial: an interior minimum
    rr_ys = fig.get("RR").ys
    rr_best = rr_ys.index(min(rr_ys))
    assert 0 < rr_best < len(rr_ys) - 1, f"RR minimum at endpoint {rr_best}"
    # every scheduler is past its optimum by 7 CPU workers: the added
    # workers crowd the application threads (the paper's upswing)
    for sched in ("RR", "EFT", "ETF", "HEFT_RT"):
        ys = fig.get(sched).ys
        assert ys[-1] > 1.3 * min(ys), f"{sched}: no upswing at 7 CPUs"
    cpus = fig.get("RR").xs
    mins = {s: cpus[fig.get(s).ys.index(min(fig.get(s).ys))]
            for s in ("RR", "EFT", "ETF", "HEFT_RT")}
    print(f"\noptimal CPU-worker counts: {mins} (paper: 5 CPU + 1 GPU)")
