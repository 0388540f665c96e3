"""Flags compile to a spec: the lowered ``ScenarioSpec`` builds objects equal
to hand-built library ones, and the verbs print the numbers the library
gives for those objects.

``repro run`` / ``repro serve`` used to wire platform, workload,
``RuntimeConfig`` and ``ServeConfig`` from argparse themselves; they now
lower the namespace to a spec and only ``spec.build_*`` construct.  These
cases pin the flag -> spec-field mapping against the library API, which
did not move.
"""

import dataclasses

import pytest

from repro.apps import APPS
from repro.cli import _lower, build_parser, main
from repro.experiments import cell_digest, run_once
from repro.faults import FaultConfig, FaultKind
from repro.metrics import RunResult
from repro.platforms import jetson, zcu102, zcu102_biglittle
from repro.runtime import RuntimeConfig
from repro.scenario import load_scenario, report_lines
from repro.serve import (
    AdmissionConfig,
    ArrivalSpec,
    ServeConfig,
    TenantSpec,
    serve_once,
)
from repro.telemetry import TelemetryConfig
from repro.workload import WorkloadEntry, WorkloadSpec

#: the registered application builds (``repro list`` names them PD and TX)
PD, TX = APPS.get("PD").factory, APPS.get("TX").factory
#: what ``--apps PD:2,TX:2`` (the run default) means; "cli" is an RNG label
CLI_WORKLOAD = WorkloadSpec(
    name="cli", entries=(WorkloadEntry(PD(), 2), WorkloadEntry(TX(), 2))
)
ZCU = zcu102(n_cpu=3, n_fft=1, n_mmult=0)


def _key(obj) -> str:
    """Content address of one cell component.  Application objects have no
    ``__eq__``, so "equal" for anything holding them means what it means to
    the sweep cache: the same canonical encoding, field by field."""
    return cell_digest((obj,))[0]


def _config(**overrides) -> RuntimeConfig:
    return RuntimeConfig(scheduler="heft_rt", execute_kernels=True, **overrides)


#: (flags after ``run``, platform, config, mode) - the library-side twin
RUN_LINES = [
    pytest.param([], ZCU, _config(), "api", id="defaults"),
    pytest.param(
        ["--platform", "zcu102-biglittle", "--fft", "2", "--little", "2"],
        zcu102_biglittle(n_big=3, n_little=2, n_fft=2, n_mmult=0),
        _config(), "api", id="biglittle",
    ),
    pytest.param(
        ["--platform", "jetson", "--gpu", "1", "--cpu", "5"],
        jetson(n_cpu=5, n_gpu=1), _config(), "api", id="jetson",
    ),
    pytest.param(
        ["--fault-rate", "25", "--fault-kinds", "transient,hang",
         "--max-retries", "2", "--fault-seed", "7"],
        ZCU,
        _config(faults=FaultConfig(
            rate=25.0, seed=7, kinds=(FaultKind.TRANSIENT, FaultKind.HANG),
            max_retries=2,
        )),
        "api", id="faults",
    ),
    pytest.param(
        ["--metrics-interval", "0.005"], ZCU,
        _config(telemetry=TelemetryConfig(sample_interval_s=0.005)),
        "api", id="telemetry",
    ),
    pytest.param(
        ["--mode", "dag", "--timing-only"], ZCU,
        RuntimeConfig(scheduler="heft_rt", execute_kernels=False),
        "dag", id="dag-timing-only",
    ),
]


@pytest.mark.no_auto_audit
@pytest.mark.parametrize("flags,platform,config,mode", RUN_LINES)
def test_run_flags_lower_to_library_objects(flags, platform, config, mode, capsys):
    argv = ["run", *flags]
    spec = _lower(build_parser().parse_args(argv))
    assert spec.kind == "run" and spec.mode == mode and spec.seed == 0
    assert spec.build_platform() == platform
    assert _key(spec.build_workload()) == _key(CLI_WORKLOAD)
    assert spec.build_config() == config

    result = run_once(
        platform, CLI_WORKLOAD, mode, 200.0, "heft_rt",
        seed=0, execute=config.execute_kernels, config=config,
    )
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"platform  : {platform.name}  mode={mode}  " in out
    assert (f"apps      : {result.n_apps} completed, {result.tasks_completed} "
            f"tasks, makespan {result.makespan * 1e3:.2f} ms") in out
    assert f"exec time : {result.mean_exec_time * 1e3:.2f} ms/app" in out
    assert (f"overheads : runtime {result.runtime_overhead_per_app * 1e3:.3f} "
            f"ms/app, scheduling {result.sched_overhead_per_app * 1e3:.3f} "
            f"ms/app ({result.sched_rounds} rounds") in out
    assert f"placement : {result.pe_task_histogram}" in out
    if config.faults is not None:
        assert (f"faults    : {result.faults_injected} injected, "
                f"{result.task_failures} task failures, {result.retries} "
                f"retries") in out


@pytest.mark.no_auto_audit
def test_cli_default_is_its_declarative_twin(repo_root, capsys):
    """``examples/scenarios/radar_zcu102.toml`` calls itself "the declarative
    twin of the CLI default" (``repro run --timing-only``): same objects,
    and after its ``trials :`` line ``scenario run`` prints what ``run`` does."""
    path = repo_root / "examples/scenarios/radar_zcu102.toml"
    twin = load_scenario(path)
    spec = _lower(build_parser().parse_args(["run", "--timing-only"]))
    assert spec.build_platform() == twin.build_platform() == ZCU
    assert _key(spec.build_workload()) == _key(twin.build_workload()) == _key(CLI_WORKLOAD)
    assert spec.build_config() == twin.build_config()
    assert (spec.mode, spec.rate_mbps, spec.scheduler) == (
        twin.mode, twin.rate_mbps, twin.scheduler
    )
    assert main(["run", "--timing-only"]) == 0
    flags = capsys.readouterr().out
    assert main(["scenario", "run", str(path), "--trials", "1", "--no-cache"]) == 0
    head, _, body = capsys.readouterr().out.partition("trials    : 1 (base seed 0)\n")
    assert head.startswith("scenario  : radar-zcu102 [run]") and body == flags


def test_several_trials_print_means_and_agreed_counts(repo_root):
    """Over several trials each number is its mean; a count stays an integer
    while every trial agrees on it, else prints its mean to one decimal."""
    spec = load_scenario(repo_root / "examples/scenarios/radar_zcu102.toml")
    one = RunResult(
        n_apps=4, n_cancelled=0, exec_times=(0.1, 0.3),
        exec_times_by_app={"PD": (0.1,), "TX": (0.3,)}, runtime_overhead_s=0.004,
        sched_overhead_s=0.0, sched_rounds=10, ready_depth_mean=1.0, ready_depth_max=2,
        makespan=0.2, tasks_completed=20, pe_task_histogram={"cpu0": 12, "fft0": 8},
    )
    two = dataclasses.replace(
        one, exec_times=(0.2, 0.4), exec_times_by_app={"PD": (0.2,), "TX": (0.4,)},
        sched_rounds=11, ready_depth_mean=2.0, makespan=0.3,
        pe_task_histogram={"cpu0": 12, "fft0": 7, "cpu1": 1},
    )
    assert report_lines(spec, [one, two]) == [
        "platform  : zcu102-3c1f0m  mode=api  scheduler=heft_rt  rate=200 Mbps",
        "apps      : 4 completed, 20 tasks, makespan 250.00 ms",
        "exec time : 250.00 ms/app  (per app type: PD 150.00, TX 350.00)",
        "overheads : runtime 1.000 ms/app, scheduling 0.000 ms/app "
        "(10.5 rounds, ready depth mean 1.5 / max 2)",
        "placement : {'cpu0': 12, 'fft0': 7.5, 'cpu1': 0.5}",
    ]


def _serve_config(n_tenants: int, admission: AdmissionConfig) -> ServeConfig:
    arrival = ArrivalSpec.parse("poisson:rate=100")
    apps = (PD(), TX())
    return ServeConfig(
        tenants=tuple(
            # the names feed RNG labels: "tenant" alone, "tenant<i>" in a crowd
            TenantSpec(f"tenant{i}" if n_tenants > 1 else "tenant", arrival,
                       apps=apps, slo_s=50.0 / 1e3)
            for i in range(n_tenants)
        ),
        duration=0.5,
        admission=admission,
        mode="api",
        scheduler="heft_rt",
    )


SERVE_LINES = [
    pytest.param([], _serve_config(1, AdmissionConfig(policy="shed")), id="defaults"),
    pytest.param(
        ["--tenants", "3", "--admission", "block", "--queue-cap", "4",
         "--quota-rate", "50"],
        _serve_config(3, AdmissionConfig(
            policy="block", max_in_system=32, queue_cap=4, quota_rate=50.0,
        )),
        id="three-tenants-block",
    ),
]


@pytest.mark.no_auto_audit
@pytest.mark.parametrize("flags,serve", SERVE_LINES)
def test_serve_flags_lower_to_library_objects(flags, serve, capsys):
    argv = ["serve", *flags]
    spec = _lower(build_parser().parse_args(argv))
    config = RuntimeConfig(scheduler="heft_rt", execute_kernels=False)
    assert spec.kind == "serve"
    assert spec.build_platform() == ZCU
    assert _key(spec.build_serve()) == _key(serve)
    assert spec.build_config() == config
    expected_names = ["tenant"] if len(serve.tenants) == 1 else [
        f"tenant{i}" for i in range(len(serve.tenants))
    ]
    assert [t.name for t in spec.build_serve().tenants] == expected_names

    result = serve_once(ZCU, serve, seed=0, config=config)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert (f"service   : {result.offered} offered, {result.admitted} admitted, "
            f"{result.shed} shed, {result.degraded} degraded, "
            f"{result.completed} completed") in out
    assert (f"slo       : p99 response {result.p99_response_s * 1e3:.2f} ms, "
            f"{result.slo_violations} violations") in out
    assert f"makespan {result.run.makespan * 1e3:.2f} ms" in out
    for tenant in result.tenants:
        assert f"  {tenant.name:<10} offered {tenant.offered:>4}" in out

