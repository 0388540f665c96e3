"""Runtime Configuration: the knobs a CEDR user sets per run.

Mirrors the "Runtime Configuration" input of the paper's Fig. 1: which
scheduling heuristic to use, plus the daemon-side cost constants that the runtime-overhead metric
measures.  The cost constants are the microsecond-scale prices of the
bookkeeping steps the paper enumerates when explaining Fig. 5 ("receiving
and parsing application DAG files via IPC ..., parsing shared object,
pushing tasks to the ready queue, popping completed tasks from the queue,
and finally terminating the completed applications"); their values were
calibrated so the measured overhead split reproduces the paper's ~19.5%
API-vs-DAG reduction (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.faults.model import FaultConfig
from repro.telemetry import TelemetryConfig

__all__ = ["RuntimeCosts", "RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeCosts:
    """Microsecond costs of the daemon/application bookkeeping steps.

    Values are referenced to the ZCU102's 1.2 GHz ARM cores; the runtime
    scales them by ``1.2 / cpu_clock_ghz`` so the Jetson's faster CPUs pay
    proportionally less for the same bookkeeping, then charges them as
    dedicated-core seconds to whichever thread performs the step.
    """

    # shared by both modes ------------------------------------------------ #
    ipc_receive_us: float = 1200.0        # accept one submission over IPC
    so_parse_us: float = 1500.0          # dlopen + symbol scan of the binary
    queue_pop_us: float = 0.5           # pop a completed task (main thread)
    app_terminate_us: float = 45.0      # teardown + log flush per app
    worker_dispatch_us: float = 1.6     # worker pops its mailbox
    completion_signal_us: float = 1.1   # pthread_cond_signal back to waiter

    # DAG mode only -------------------------------------------------------- #
    dag_parse_base_us: float = 170.0    # JSON load + validation
    dag_parse_per_node_us: float = 1.0  # per-node DAG construction
    queue_push_us: float = 0.7          # main thread pushes a ready task
    dep_update_us: float = 0.3         # successor dependency decrement

    # API mode only --------------------------------------------------------- #
    app_launch_us: float = 28.0         # spawn the application thread
    api_call_us: float = 2.4            # task alloc + mutex/cond init
    api_push_us: float = 1.4            # app thread pushes to ready queue
    api_kick_us: float = 0.5            # doorbell event to the daemon
    #: per-byte marshalling cost of a libCEDR call (the application thread
    #: stages its operand buffers for the runtime; DAG-mode nodes share the
    #: shared-object's buffers and pay nothing).  Runs processor-shared on
    #: the app thread, so it is amplified by the worker-spinner contention -
    #: one of the two drivers of the paper's API-mode execution-time
    #: increase on the core-starved ZCU102 (Fig. 6).
    api_copy_ns_per_byte: float = 8.0

    #: Fraction of the runtime core the daemon's main loop burns while idle
    #: (IPC/queue polling).  CEDR's event loop spins; at low injection rates
    #: the run stretches out and this idle spinning dominates the measured
    #: runtime overhead, producing the decreasing-then-saturating shape of
    #: the paper's Fig. 5.  Charged analytically at shutdown (the runtime
    #: core is reserved, so spinning contends with nothing).
    idle_poll_duty: float = 0.03


@dataclass(frozen=True)
class RuntimeConfig:
    """Per-run configuration of the CEDR daemon.

    ``scheduler`` is a name resolved through ``repro.sched.SCHEDULERS``.
    ``execute_kernels=False`` turns off functional kernel execution for
    timing-only sweeps (results become ``None``; all queueing behaviour is
    unchanged) - the large figure benchmarks use this, integration tests run
    with it on and check numerics end to end.
    """

    scheduler: str = "rr"
    execute_kernels: bool = True
    cost_noise_sigma: float = 0.0
    #: condvar wake latency (Fig. 4 path); seconds.
    signal_latency_s: float = 2.0e-6
    #: minimum spacing between scheduling rounds.  The default 0 models
    #: CEDR's actual main loop: it re-runs the heuristic as soon as events
    #: are processed, so under light load dispatch latency is microseconds,
    #: while under load a slow heuristic (ETF) delays its own next round,
    #: letting the ready queue grow - the positive feedback that produces
    #: the paper's Fig. 7 DAG-mode ETF overhead.  A positive value forces
    #: epoch-style scheduling (the scheduling-period ablation sweeps it).
    sched_period_s: float = 0.0
    costs: RuntimeCosts = field(default_factory=RuntimeCosts)
    #: fault-injection and recovery-policy configuration (repro.faults).
    #: ``None`` - or a config with rate 0 and no scripted faults - keeps the
    #: runtime on the exact pre-fault code paths: no injector, no watchdog
    #: timers, no extra events, bit-identical behaviour.
    faults: Optional[FaultConfig] = None
    #: telemetry registry configuration (repro.telemetry).  The registry
    #: is folded from the logbook at shutdown, so a run is the same with or
    #: without it; ``None`` builds no registry.
    telemetry: Optional[TelemetryConfig] = None
    #: shutdown audit (repro.audit): a drained run folds the invariant
    #: catalog over its logbook and raises on damage.  The fold only reads
    #: the book, so audited runs produce bit-identical results.  The
    #: scheduler contract (queue accounting, PE support) is checked at
    #: every round whatever this says.
    audit: bool = False

    def with_audit(self) -> "RuntimeConfig":
        """Copy of this config with the shutdown audit switched on."""
        return replace(self, audit=True)

    def with_scheduler(self, name: str) -> "RuntimeConfig":
        return replace(self, scheduler=name)
