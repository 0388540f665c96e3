"""Bench: regenerate Fig. 8 - the same workload on the Jetson AGX Xavier.

Paper result: with 7 physical worker-pool cores, the API runtime's
application threads exploit the cores the DAG runtime's 3+1 workers leave
idle, so API-based execution time comes out *below* DAG-based - the
opposite of the ZCU102's Fig. 6.  The bench asserts that flip for the fair
(RR) scheduler and that both modes stay well below the ZCU102 magnitudes.
"""

from repro.experiments import run_figure
from repro.metrics import print_series_table, saturated_mean

SAT = 200.0


def sat(series):
    return saturated_mean(series.xs, series.ys, SAT)


def test_fig8_jetson_execution_time(benchmark, bench_rates, bench_trials):
    panels = benchmark.pedantic(
        run_figure,
        args=("fig8",),
        kwargs={"xs": bench_rates, "trials": bench_trials},
        rounds=1, iterations=1,
    )
    for pid in ("fig8a", "fig8b"):
        print_series_table(panels[pid], y_scale=1e3, y_fmt="{:10.2f}")

    dag_rr = sat(panels["fig8a"].get("RR"))
    api_rr = sat(panels["fig8b"].get("RR"))
    print(f"\nJetson saturated exec/app (RR): DAG {dag_rr*1e3:.1f} ms vs "
          f"API {api_rr*1e3:.1f} ms - API wins on the core-rich platform")
    assert api_rr < dag_rr

    # HEFT_RT also benefits (or at worst ties) from the extra cores
    assert sat(panels["fig8b"].get("HEFT_RT")) < 1.1 * sat(panels["fig8a"].get("HEFT_RT"))

    # Jetson magnitudes sit far below the ZCU102's ~200-350 ms regime
    assert dag_rr < 0.15
    assert api_rr < 0.15
