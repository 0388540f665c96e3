"""Bench: regenerate Figs 6 and 7 - execution time and scheduling overhead
across schedulers on the ZCU102 (3 CPU + 1 FFT + 1 MMULT).

Paper results asserted here (saturated region):

* Fig 6(a): ETF's DAG-mode execution time (~700 ms) far above the other
  schedulers (~200 ms);
* Fig 6(b): API-mode execution sits above DAG-mode for the non-ETF
  schedulers (thread contention; paper 350 vs 200 ms), while ETF improves
  markedly moving from DAG to API (700 -> 425 ms);
* Fig 7(a/b): ETF's scheduling overhead collapses by >10x from DAG mode
  (~70 ms/app) to API mode (~1 ms/app); the other heuristics stay flat and
  cheap in both.
"""

from repro.experiments import run_figure
from repro.metrics import print_series_table, saturated_mean

SAT = 200.0


def sat(series):
    return saturated_mean(series.xs, series.ys, SAT)


def test_fig6_fig7_exec_and_sched_overhead(benchmark, bench_rates, bench_trials):
    panels = benchmark.pedantic(
        run_figure,
        args=("fig67",),
        kwargs={"xs": bench_rates, "trials": bench_trials},
        rounds=1, iterations=1,
    )
    for pid in ("fig6a", "fig6b"):
        print_series_table(panels[pid], y_scale=1e3, y_fmt="{:10.1f}")
    for pid in ("fig7a", "fig7b"):
        print_series_table(panels[pid], y_scale=1e3, y_fmt="{:10.4f}")

    # --- Fig 6(a): ETF is the DAG-mode execution-time outlier ------------- #
    dag_etf = sat(panels["fig6a"].get("ETF"))
    dag_others = [sat(panels["fig6a"].get(s)) for s in ("RR", "EFT", "HEFT_RT")]
    assert dag_etf > 1.6 * max(dag_others)

    # --- Fig 6(b): non-ETF API execution above its DAG counterpart ------- #
    api_rr = sat(panels["fig6b"].get("RR"))
    dag_rr = sat(panels["fig6a"].get("RR"))
    assert api_rr > 1.1 * dag_rr

    # --- Fig 6: ETF improves moving DAG -> API (700 -> 425 in the paper) -- #
    api_etf = sat(panels["fig6b"].get("ETF"))
    assert api_etf < 0.8 * dag_etf

    # --- Fig 7: the ETF queue-size collapse ------------------------------- #
    dag_etf_oh = sat(panels["fig7a"].get("ETF"))
    api_etf_oh = sat(panels["fig7b"].get("ETF"))
    print(f"\nETF scheduling overhead/app: DAG {dag_etf_oh*1e3:.1f} ms -> "
          f"API {api_etf_oh*1e3:.3f} ms (paper: 70 -> 1.15 ms)")
    assert dag_etf_oh > 10 * api_etf_oh
    assert 0.01 < dag_etf_oh < 0.3          # tens of ms per app
    # non-ETF schedulers stay cheap and stable in both modes
    for panel in ("fig7a", "fig7b"):
        for s in ("RR", "EFT", "HEFT_RT"):
            assert sat(panels[panel].get(s)) < dag_etf_oh / 10
