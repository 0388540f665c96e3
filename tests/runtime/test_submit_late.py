"""Late submissions: past ``at=`` clamps to now, counted and ordered.

The service tier (hold-queue releases, trace replays) submits applications
whose nominal arrival instant is already in the past.  ``Daemon.submit``
documents clamp-to-now semantics for those: the arrival fires at the
current instant, strictly after same-instant scheduled work, preserving
submission order among late submissions, with every clamp counted in
``engine.late_timers`` and folded into the ``simcore_late_timers_total``
metric.
"""

import pytest

from repro.metrics import RunResult
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.telemetry import TelemetryConfig


def make_runtime(zcu_small, telemetry=False):
    config = RuntimeConfig(
        scheduler="heft_rt", execute_kernels=False,
        telemetry=TelemetryConfig() if telemetry else None,
    )
    return CedrRuntime(zcu_small.build(seed=0), config)


def run_with_late_submissions(runtime, apps, late_at=0.005, nominal=(0.002, 0.001)):
    """Submit apps[0] normally, then apps[1:] mid-run with past ``at``s."""
    runtime.start()
    runtime.submit(apps[0], at=0.0)

    def submit_late():
        for app, at in zip(apps[1:], nominal):
            runtime.submit(app, at=at)
        runtime.seal()

    runtime.engine.call_at(late_at, submit_late)
    runtime.run()


def test_past_at_clamps_to_now_and_counts(zcu_small, pd_small, tx_small, rng):
    runtime = make_runtime(zcu_small)
    apps = [
        pd_small.make_instance("api", rng),
        tx_small.make_instance("api", rng),
        tx_small.make_instance("api", rng),
    ]
    run_with_late_submissions(runtime, apps)
    # both nominal instants (0.002, 0.001) were already past at 0.005:
    # each arrival clamps to the submission instant
    assert apps[1].t_arrival == pytest.approx(0.005)
    assert apps[2].t_arrival == pytest.approx(0.005)
    assert runtime.engine.late_timers == 2
    result = RunResult.from_runtime(runtime)
    assert result.n_apps == 3


def test_submission_order_preserved_among_late_arrivals(
    zcu_small, tx_small, rng
):
    # the second late submission nominally precedes the first (0.001 <
    # 0.002) but must still arrive after it: clamped timers get fresh seqs
    runtime = make_runtime(zcu_small)
    apps = [tx_small.make_instance("api", rng) for _ in range(3)]
    run_with_late_submissions(runtime, apps)
    order = list(runtime.logbook.apps)  # dict: insertion == arrival order
    assert order == [apps[0].app_id, apps[1].app_id, apps[2].app_id]


def test_late_timers_fold_into_telemetry(zcu_small, tx_small, rng):
    runtime = make_runtime(zcu_small, telemetry=True)
    apps = [tx_small.make_instance("api", rng) for _ in range(3)]
    run_with_late_submissions(runtime, apps)
    family = runtime.telemetry.registry.get("simcore_late_timers_total")
    assert family.labels().value == 2
    assert runtime.logbook.late_timers == [0.005, 0.005]


def test_on_time_submissions_never_count_late(zcu_small, tx_small, rng):
    runtime = make_runtime(zcu_small)
    runtime.start()
    for at in (0.0, 0.01):
        runtime.submit(tx_small.make_instance("api", rng), at=at)
    runtime.seal()
    runtime.run()
    assert runtime.engine.late_timers == 0
