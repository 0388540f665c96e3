"""The one result codec reads and writes the entries the two it replaced did.

Cache entries are derived from the frozen result dataclasses' fields
(``repro.experiments.cache._encode_result`` / ``_decode_result``).  Before,
``RunResult`` and ``ServeResult`` each had a hand-written encoder and
decoder; ``golden_result_codec.json`` holds what those wrote for one faulty
batch run and one ``block``-policy serve run, and is never regenerated.
The derived codec must encode the same runs to the same JSON (keys, key
order, ``int`` vs ``float``) and decode the stored dicts to equal results
with the same Python types, so every entry already on disk stays a hit.
"""

import json
from pathlib import Path

import pytest

from repro.apps import PulseDoppler, WifiTx
from repro.experiments import run_once
from repro.experiments.cache import RUN_CODEC
from repro.faults import FaultConfig, FaultKind
from repro.platforms import jetson, zcu102
from repro.runtime import RuntimeConfig
from repro.serve import AdmissionConfig, ArrivalSpec, ServeConfig, TenantSpec, serve_once
from repro.serve.driver import serve_codec
from repro.workload import WorkloadEntry, WorkloadSpec

FIXTURES = Path(__file__).parent / "golden_result_codec.json"


def faulty_run():
    """A Jetson batch run under transient / hang / slowdown faults."""
    workload = WorkloadSpec(
        name="codec", entries=(WorkloadEntry(PulseDoppler(batch=16), 3),)
    )
    faults = FaultConfig(
        rate=200.0, kinds=(FaultKind.TRANSIENT, FaultKind.HANG, FaultKind.SLOWDOWN)
    )
    config = RuntimeConfig(scheduler="etf", execute_kernels=False, faults=faults)
    return run_once(jetson(n_cpu=3, n_gpu=1), workload, "api", 200.0, 7, config)


def block_serve():
    """Two tenants at 400 arrivals/s into a cap of four: holds and sheds."""
    serve = ServeConfig(
        tenants=(
            TenantSpec("radar", ArrivalSpec.make("poisson", rate=400.0),
                       apps=(PulseDoppler(batch=16),), weight=2.0),
            TenantSpec("comms", ArrivalSpec.make("poisson", rate=200.0),
                       apps=(WifiTx(n_packets=20, batch=4),)),
        ),
        duration=0.2,
        admission=AdmissionConfig(policy="block", max_in_system=4, queue_cap=6),
    )
    return serve_once(zcu102(n_cpu=3, n_fft=1), serve, 2,
                      RuntimeConfig(scheduler="heft_rt", execute_kernels=False))


CASES = {"run/1": (faulty_run, RUN_CODEC), "serve/1": (block_serve, serve_codec())}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_codec_reproduces_the_hand_written_entries(kind):
    build, codec = CASES[kind]
    stored = json.loads(FIXTURES.read_text(encoding="utf-8"))[kind]
    result = build()
    assert codec.kind == kind
    # the runs are worth pinning: every fault and admission column moves
    if kind == "run/1":
        assert result.faults_injected and result.retries and result.mean_time_to_recovery
    else:
        assert result.shed and all(t.held and t.hold_hwm for t in result.tenants)
    # same keys in the same order, same JSON types (json.dumps tells 1 from 1.0)
    assert json.dumps(codec.encode(result)) == json.dumps(stored)
    # same coercions: repr tells tuples from lists and ints from floats
    assert repr(codec.decode(stored)) == repr(result)
    assert codec.decode(json.loads(json.dumps(codec.encode(result)))) == result
