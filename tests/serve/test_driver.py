"""Service driver: graceful drain, SLO accounting, serve determinism."""

import dataclasses

import pytest

from repro.runtime import CedrRuntime, RuntimeConfig
from repro.serve import (
    AdmissionConfig,
    ArrivalSpec,
    ServeConfig,
    ServeDriver,
    TenantSpec,
    serve_once,
    serve_trials,
)


def config(pd_small, tx_small, *, rate=150.0, duration=0.2, **admission):
    return ServeConfig(
        tenants=(
            TenantSpec("radar", ArrivalSpec.make("poisson", rate=rate),
                       apps=(pd_small,), weight=2.0, slo_s=0.05),
            TenantSpec("comms", ArrivalSpec.make("poisson", rate=rate / 2),
                       apps=(tx_small,), slo_s=0.05),
        ),
        duration=duration,
        admission=AdmissionConfig(**admission) if admission else AdmissionConfig(),
    )


class TestServeConfig:
    def test_validation(self, pd_small):
        tenant = TenantSpec("a", ArrivalSpec.make("poisson", rate=1.0), (pd_small,))
        with pytest.raises(ValueError, match="at least one tenant"):
            ServeConfig(tenants=(), duration=1.0)
        with pytest.raises(ValueError, match="duplicate tenant"):
            ServeConfig(tenants=(tenant, tenant), duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            ServeConfig(tenants=(tenant,), duration=0.0)

    def test_tenant_validation(self, pd_small):
        arrival = ArrivalSpec.make("poisson", rate=1.0)
        with pytest.raises(ValueError, match="at least one app"):
            TenantSpec("a", arrival, ())
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("a", arrival, (pd_small,), weight=0.0)
        with pytest.raises(ValueError, match="SLO"):
            TenantSpec("a", arrival, (pd_small,), slo_s=0.0)

    def test_offered_rate_sums_tenants(self, pd_small, tx_small):
        serve = config(pd_small, tx_small, rate=100.0)
        assert serve.offered_rate == pytest.approx(150.0)


class TestGracefulDrain:
    def test_every_admitted_app_completes(self, zcu_small, pd_small, tx_small):
        serve = config(pd_small, tx_small)
        result = serve_once(zcu_small, serve, seed=1)
        assert result.offered > 0
        assert result.offered == result.admitted + result.shed
        for t in result.tenants:
            assert t.completed + t.failed == t.admitted
            assert len(t.response_times) == t.completed
        # the embedded batch result agrees with the ledger
        assert result.run.n_apps == result.completed
        assert result.run.makespan >= serve.duration or result.admitted == 0

    def test_zero_arrival_window_still_drains(self, zcu_small, pd_small):
        serve = ServeConfig(
            tenants=(TenantSpec(
                "idle", ArrivalSpec.make("periodic", rate=10.0, phase=9.0),
                (pd_small,),
            ),),
            duration=0.05,   # first arrival is phased past the window
        )
        result = serve_once(zcu_small, serve, seed=0)
        assert result.offered == result.admitted == result.completed == 0
        assert result.throughput == 0.0
        assert result.p99_response_s == 0.0
        assert result.tenants[0].goodput == 1.0

    def test_block_policy_releases_every_hold(self, zcu_small, pd_small, tx_small):
        serve = config(pd_small, tx_small, rate=400.0,
                       policy="block", max_in_system=4, queue_cap=6)
        result = serve_once(zcu_small, serve, seed=2)
        held = sum(t.held for t in result.tenants)
        assert held > 0
        # every held arrival was eventually admitted (never stranded)
        assert result.offered == result.admitted + result.shed
        assert sum(t.queue_wait_s for t in result.tenants) > 0.0
        assert result.in_system_hwm <= 4
        for t in result.tenants:
            assert t.hold_hwm <= 6

    def test_finish_hook_slot_is_exclusive(self, zcu_small, pd_small, tx_small):
        platform = zcu_small.build(seed=0)
        runtime = CedrRuntime(
            platform, RuntimeConfig(scheduler="heft_rt", execute_kernels=False)
        )
        runtime.on_app_finished = lambda app: None
        driver = ServeDriver(runtime, config(pd_small, tx_small), seed=0)
        with pytest.raises(RuntimeError, match="already has an on_app_finished"):
            driver.arm()
        # a driver's own hook holds the slot just the same while it is armed
        runtime.on_app_finished = None
        ServeDriver(runtime, config(pd_small, tx_small), seed=0).arm()
        with pytest.raises(RuntimeError, match="already has an on_app_finished"):
            ServeDriver(runtime, config(pd_small, tx_small), seed=0).arm()

    def test_finish_hook_is_dropped_at_drain(self, zcu_small, pd_small, tx_small):
        """The drained runtime lets go of the driver's bound method (a
        runtime -> driver -> runtime cycle otherwise), and a second driver
        armed on a fresh runtime serves the same result."""
        serve = config(pd_small, tx_small)

        def serve_on_fresh_runtime():
            runtime = CedrRuntime(
                zcu_small.build(seed=1),
                RuntimeConfig(scheduler=serve.scheduler, execute_kernels=False),
            )
            runtime.start()
            driver = ServeDriver(runtime, serve, seed=1)
            driver.arm()
            assert runtime.on_app_finished is not None
            runtime.run()
            result = driver.result()
            assert runtime.on_app_finished is None
            return result

        first = serve_on_fresh_runtime()
        assert first.completed > 0
        assert serve_on_fresh_runtime() == first
        assert serve_once(zcu_small, serve, seed=1) == first

    def test_result_requires_a_finished_run(self, zcu_small, pd_small, tx_small):
        platform = zcu_small.build(seed=0)
        runtime = CedrRuntime(
            platform, RuntimeConfig(scheduler="heft_rt", execute_kernels=False)
        )
        runtime.start()
        driver = ServeDriver(runtime, config(pd_small, tx_small), seed=0)
        driver.arm()
        with pytest.raises(RuntimeError, match="never sealed"):
            driver.result()


class TestSloAccounting:
    def test_violations_match_response_times(self, zcu_small, pd_small, tx_small):
        serve = config(pd_small, tx_small, rate=250.0)
        result = serve_once(zcu_small, serve, seed=3)
        for t, spec in zip(result.tenants, serve.tenants):
            expected = sum(1 for r in t.response_times if r > spec.slo_s)
            assert t.slo_violations == expected
            good = max(0, t.completed - t.degraded - t.slo_violations)
            assert t.goodput == pytest.approx(good / t.offered)

    def test_degraded_completions_are_excluded(self, zcu_small, pd_small, tx_small):
        serve = config(pd_small, tx_small, rate=400.0,
                       policy="degrade", max_in_system=2)
        result = serve_once(zcu_small, serve, seed=4)
        assert result.shed == 0
        assert result.admitted == result.offered
        assert result.degraded > 0
        for t in result.tenants:
            # only full-service completions can violate the SLO
            assert t.slo_violations <= t.completed - t.degraded + t.failed

    def test_p99_is_exact_nearest_rank(self, zcu_small, pd_small, tx_small):
        result = serve_once(zcu_small, config(pd_small, tx_small), seed=5)
        merged = sorted(
            r for t in result.tenants for r in t.response_times
        )
        assert merged, "expected completions"
        rank = max(0, -(-99 * len(merged) // 100) - 1)
        assert result.p99_response_s == merged[rank]


class TestOverloadBound:
    def test_two_x_overload_is_bounded_end_to_end(self, zcu_small, pd_small):
        # calibrate capacity once, then offer ~2x that rate and require the
        # acceptance-criterion bounds: in-system and hold high-water marks
        # never exceed their caps while the excess sheds
        probe = ServeConfig(
            tenants=(TenantSpec(
                "load", ArrivalSpec.make("periodic", rate=2000.0), (pd_small,),
            ),),
            duration=0.1,
            admission=AdmissionConfig(policy="shed", max_in_system=6, queue_cap=3),
        )
        capacity = serve_once(zcu_small, probe, seed=0).throughput
        assert capacity > 0
        serve = dataclasses.replace(
            probe,
            tenants=(TenantSpec(
                "load", ArrivalSpec.make("poisson", rate=2.0 * capacity),
                (pd_small,),
            ),),
            duration=0.3,
            admission=AdmissionConfig(policy="block", max_in_system=6, queue_cap=3),
        )
        result = serve_once(zcu_small, serve, seed=1)
        tenant = result.tenants[0]
        assert result.in_system_hwm <= 6
        assert tenant.hold_hwm <= 3
        assert tenant.shed > 0
        assert tenant.completed + tenant.failed == tenant.admitted


class TestServeDeterminism:
    def test_trials_vary_by_seed_only(self, zcu_small, pd_small, tx_small):
        serve = config(pd_small, tx_small, duration=0.1)
        a, b = serve_trials(zcu_small, serve, trials=2, base_seed=0)
        assert a != b            # different seeds, different streams
        again_a, again_b = serve_trials(zcu_small, serve, trials=2, base_seed=0)
        assert (a, b) == (again_a, again_b)
