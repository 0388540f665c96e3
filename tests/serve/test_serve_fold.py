"""The service ledger is a fold of the logbook.

``ServeResult.from_logbook(book, serve)`` over a saved and reloaded dump
must equal what ``ServeDriver.result()`` returned for the live run: the
driver keeps no tallies, only the admission rows it writes to the book.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.runtime import CedrRuntime, Logbook, RuntimeConfig
from repro.scenario import load_scenario
from repro.serve import (
    AdmissionConfig,
    ArrivalSpec,
    ServeConfig,
    ServeDriver,
    ServeResult,
    TenantSpec,
)

SERVE_POISSON = Path(__file__).parents[2] / "examples" / "scenarios" / "serve_poisson.toml"


def two_tenants(pd, tx, rate, **admission):
    return ServeConfig(
        tenants=(
            TenantSpec("radar", ArrivalSpec.make("poisson", rate=rate), apps=(pd,),
                       weight=2.0, slo_s=0.05),
            TenantSpec("comms", ArrivalSpec.make("poisson", rate=rate / 2), apps=(tx,),
                       slo_s=0.05),
        ),
        duration=0.2,
        admission=AdmissionConfig(**admission),
    )


def drive(platform, serve, seed, config=None, batch_apps=()):
    """One serve run (``serve_once`` by hand, to keep the runtime); the
    *batch_apps* are submitted beside the driver as ``(instance, at)``."""
    config = config or RuntimeConfig(scheduler="heft_rt", execute_kernels=False)
    runtime = CedrRuntime(platform.build(seed=seed), config)
    runtime.start()
    for instance, at in batch_apps:
        runtime.submit(instance, at=at)
    driver = ServeDriver(runtime, serve, seed)
    driver.arm()
    runtime.run()
    return runtime, driver.result()


def folded(runtime, serve, tmp_path):
    path = runtime.logbook.save(tmp_path / "serve.json")
    return ServeResult.from_logbook(Logbook.load(path), serve)


def test_scenario_document(tmp_path):
    spec = load_scenario(SERVE_POISSON)
    serve = spec.build_serve()
    runtime, live = drive(spec.build_platform(), serve, spec.seed, spec.build_config())
    assert live.completed > 0
    assert folded(runtime, serve, tmp_path) == live


def test_block_policy_with_holds(zcu_small, pd_small, tx_small, tmp_path):
    serve = two_tenants(pd_small, tx_small, 400.0, policy="block", max_in_system=4,
                        queue_cap=6)
    runtime, live = drive(zcu_small, serve, seed=2)
    assert live.shed and all(t.held and t.hold_hwm > 0 for t in live.tenants)
    assert live.in_system_hwm == 4
    assert folded(runtime, serve, tmp_path) == live


def test_degrade_policy(zcu_small, pd_small, tx_small, tmp_path):
    serve = two_tenants(pd_small, tx_small, 400.0, policy="degrade", max_in_system=4)
    runtime, live = drive(zcu_small, serve, seed=3)
    assert live.degraded and live.shed == 0
    assert folded(runtime, serve, tmp_path) == live


def test_batch_apps_on_a_serving_runtime_stay_out_of_the_ledger(
    zcu_small, pd_small, tx_small, tmp_path
):
    rng = np.random.default_rng(8)
    batch = [(pd_small.make_instance("api", rng, timing_only=True), 0.01 * i) for i in range(3)]
    serve = two_tenants(pd_small, tx_small, 200.0, policy="block", max_in_system=4,
                        queue_cap=4)
    runtime, live = drive(zcu_small, serve, seed=8, batch_apps=batch)
    assert folded(runtime, serve, tmp_path) == live
    # every batch app ran and counts in the closed-batch result only
    assert all(app.finished for app, _ in batch)
    assert live.run.n_apps == live.completed + len(batch)
    assert sum(t.admitted for t in live.tenants) == live.admitted == len(runtime.apps) - 3
    batch_ids = {app.app_id for app, _ in batch}
    assert not batch_ids & {row.app_id for row in runtime.logbook.admissions}


def test_one_row_per_offered_arrival(zcu_small, pd_small, tx_small):
    serve = two_tenants(pd_small, tx_small, 400.0, policy="block", max_in_system=4,
                        queue_cap=6)
    runtime, live = drive(zcu_small, serve, seed=2)
    rows = runtime.logbook.admissions
    assert len(rows) == live.offered
    assert sum(row.t_admitted is None for row in rows) == live.shed
    assert all(row.app_id == -1 for row in rows if row.t_admitted is None)
    assert all(row.t_admitted >= row.t_offered for row in rows if row.held)


def test_a_dump_without_admissions_is_refused():
    """The serve fold reads the admission rows; a dump without the section
    is refused when it loads, naming the section."""
    dump = Logbook().serialize()
    del dump["admissions"]
    with pytest.raises(ValueError, match=r"missing sections \['admissions'\]"):
        Logbook.from_dict(dump)
