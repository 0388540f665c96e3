"""Determinism contracts: rate-0 bit-identity, seeded faults, pool parity."""

from repro.apps import PulseDoppler, WifiTx
from repro.experiments import run_once, run_trials
from repro.faults import FaultConfig
from repro.runtime import RuntimeConfig
from repro.workload import WorkloadEntry, WorkloadSpec

TINY = WorkloadSpec(
    "tiny",
    (WorkloadEntry(PulseDoppler(batch=8), 2), WorkloadEntry(WifiTx(batch=5), 2)),
)

FAULTY = RuntimeConfig(scheduler="eft", execute_kernels=False,
                       faults=FaultConfig(rate=40.0, seed=11))


def test_fault_rate_zero_is_bit_identical_to_no_fault_config(zcu_small):
    plain = run_once(zcu_small, TINY, "api", 200.0, 3,
                     RuntimeConfig(scheduler="eft", execute_kernels=False))
    gated = run_once(zcu_small, TINY, "api", 200.0, 3,
                     RuntimeConfig(scheduler="eft", execute_kernels=False,
                                   faults=FaultConfig(rate=0.0)))
    assert plain == gated


def test_faulty_run_reproduces_with_fixed_fault_seed(zcu_small):
    a = run_once(zcu_small, TINY, "api", 200.0, 3, FAULTY)
    b = run_once(zcu_small, TINY, "api", 200.0, 3, FAULTY)
    assert a == b
    assert a.faults_injected > 0


def test_fault_seed_changes_outcome_fault_free_seed_does_not(zcu_small):
    base = run_once(zcu_small, TINY, "api", 200.0, 3, FAULTY)
    other_cfg = RuntimeConfig(scheduler="eft", execute_kernels=False,
                              faults=FaultConfig(rate=40.0, seed=12))
    other = run_once(zcu_small, TINY, "api", 200.0, 3, other_cfg)
    assert base != other


def test_faulty_process_pool_sweep_matches_serial(zcu_small):
    serial = run_trials(zcu_small, TINY, "api", 200.0, FAULTY, trials=3, base_seed=0, n_jobs=1)
    pooled = run_trials(zcu_small, TINY, "api", 200.0, FAULTY, trials=3, base_seed=0, n_jobs=2)
    assert serial == pooled
    assert any(r.task_failures > 0 for r in serial)


def test_engine_seed_drives_faults_when_fault_seed_unset(zcu_small):
    cfg = RuntimeConfig(scheduler="eft", execute_kernels=False,
                        faults=FaultConfig(rate=40.0, seed=None))
    a = run_once(zcu_small, TINY, "api", 200.0, 3, cfg)
    b = run_once(zcu_small, TINY, "api", 200.0, 3, cfg)
    assert a == b
