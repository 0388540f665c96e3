"""Platform configuration and instantiation (the ``platform.h`` analogue).

A :class:`PlatformConfig` is the static description a user would encode in
CEDR's ``platform.h``: how many CPU cores exist, which accelerators are in
the fabric, and the timing coefficients of each.  :meth:`PlatformConfig.build`
turns it into a live :class:`PlatformInstance`: a simulation engine whose
cores model the physical CPU pool, one reserved *runtime core* for the CEDR
daemon + scheduler (the paper reserves one ARM core on both boards), and a
:class:`~repro.platforms.pe.PE` per schedulable resource.

Core-placement policy, copied from the paper's description:

* CPU worker *i* is pinned to worker-pool core *i*.
* Accelerator management threads are pinned round-robin to worker-pool cores
  starting just past the CPU workers - on the Jetson with <7 CPU workers the
  GPU management thread therefore gets a core of its own ("one is dedicated
  for GPU management"), while on the fully-populated ZCU102 the FFT
  management threads share the three ARM worker cores.
* Application threads (API mode) float across the whole worker pool, which
  is how the paper explains the thread-contention trends of Figs 6-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.simcore import Core, Engine

from .pe import PE, PEDescriptor, PEKind
from .timing import TimingModel, jetson_timing, zcu102_timing

__all__ = ["PlatformConfig", "PlatformInstance", "zcu102", "zcu102_biglittle", "jetson"]


@dataclass(frozen=True)
class PlatformConfig:
    """Static description of an emulated SoC configuration."""

    name: str
    n_worker_cores: int
    n_cpu_workers: int
    accelerators: tuple[PEKind, ...]
    timing: TimingModel
    #: per-core context-switch penalty (see :class:`repro.simcore.Core`);
    #: calibrated so oversubscription degrades throughput as in Fig. 10.
    cs_alpha: float = 0.06
    #: big.LITTLE extension (the paper's future-work proposal): this many
    #: additional *lightweight* cores, dedicated to hosting accelerator-
    #: management threads so their spinning stops crowding the big cores.
    #: 0 reproduces the paper's evaluated platforms exactly.
    n_little_cores: int = 0
    #: relative speed of a LITTLE core (Cortex-A7-class next to the A53s).
    little_speed: float = 0.45

    def __post_init__(self) -> None:
        if self.n_worker_cores < 1:
            raise ValueError("platform needs at least one worker core")
        if self.n_cpu_workers < 1:
            # some APIs run on CPUs only (cpu_op everywhere, zip on the
            # ZCU102): without one a run fails mid-simulation, not here
            raise ValueError(f"platform needs at least one CPU worker, got {self.n_cpu_workers}")
        if self.n_cpu_workers > self.n_worker_cores:
            raise ValueError(
                f"{self.n_cpu_workers} CPU workers do not fit "
                f"{self.n_worker_cores} worker cores"
            )
        if self.n_little_cores < 0:
            raise ValueError("negative LITTLE core count")
        if not 0.0 < self.little_speed <= 1.0:
            raise ValueError(f"little_speed must be in (0, 1], got {self.little_speed}")
        if not 0.0 <= self.cs_alpha < math.inf:
            raise ValueError(f"cs_alpha must be finite and >= 0, got {self.cs_alpha}")
        for kind in self.accelerators:
            if not kind.is_accelerator:
                raise ValueError(f"{kind} is not an accelerator kind")
            if kind not in self.timing.accel_clock_ghz:
                raise ValueError(f"timing model lacks a clock for {kind}")

    @property
    def n_pes(self) -> int:
        return self.n_cpu_workers + len(self.accelerators)

    def describe_pes(self) -> list[PEDescriptor]:
        """Materialize the PE descriptor list with core placements."""
        descs: list[PEDescriptor] = []
        for i in range(self.n_cpu_workers):
            descs.append(
                PEDescriptor(
                    name=f"cpu{i}",
                    kind=PEKind.CPU,
                    clock_ghz=self.timing.cpu_clock_ghz,
                    host_core_index=i,
                )
            )
        counters: dict[PEKind, int] = {}
        for j, kind in enumerate(self.accelerators):
            idx = counters.get(kind, 0)
            counters[kind] = idx + 1
            if self.n_little_cores > 0:
                # big.LITTLE: management threads live on the LITTLE cores,
                # which sit just past the big worker pool in the core list.
                host = self.n_worker_cores + (j % self.n_little_cores)
            else:
                host = (self.n_cpu_workers + j) % self.n_worker_cores
            descs.append(
                PEDescriptor(
                    name=f"{kind.value}{idx}",
                    kind=kind,
                    clock_ghz=self.timing.accel_clock_ghz[kind],
                    host_core_index=host,
                )
            )
        return descs

    def build(self, seed: int = 0) -> "PlatformInstance":
        """Instantiate engine, cores, devices, and PEs for one run."""
        big = [
            Core(name=f"core{i}", index=i, cs_alpha=self.cs_alpha)
            for i in range(self.n_worker_cores)
        ]
        little = [
            Core(
                name=f"little{i}",
                index=self.n_worker_cores + i,
                speed=self.little_speed,
                cs_alpha=self.cs_alpha,
            )
            for i in range(self.n_little_cores)
        ]
        cores = [*big, *little]
        # The runtime core hosts only the daemon, so its cs_alpha is moot;
        # keep it for uniformity.
        runtime_core = Core(
            name="runtime-core", index=len(cores), cs_alpha=self.cs_alpha
        )
        engine = Engine(cores=[*cores, runtime_core], seed=seed)
        # Floating application threads spread over the *big* worker pool
        # only; LITTLE cores are specialized for management threads and the
        # reserved runtime core hosts exclusively the daemon/scheduler.
        engine.floating_pool = list(big)
        pes: list[PE] = []
        for index, desc in enumerate(self.describe_pes()):
            if desc.kind is PEKind.CPU:
                pes.append(PE(index=index, desc=desc, core=cores[desc.host_core_index]))
            else:
                device = engine.add_device(desc.name)
                pes.append(
                    PE(
                        index=index,
                        desc=desc,
                        device=device,
                        host_core=cores[desc.host_core_index],
                    )
                )
        return PlatformInstance(
            config=self,
            engine=engine,
            worker_cores=cores,
            runtime_core=runtime_core,
            pes=pes,
        )


@dataclass
class PlatformInstance:
    """A built platform: live engine plus the PEs the runtime schedules."""

    config: PlatformConfig
    engine: Engine
    worker_cores: list[Core]
    runtime_core: Core
    pes: list[PE]

    @property
    def timing(self) -> TimingModel:
        return self.config.timing

    @property
    def big_cores(self) -> list[Core]:
        """The heavyweight worker cores (excludes LITTLEs and runtime core)."""
        return self.worker_cores[: self.config.n_worker_cores]

    @property
    def little_cores(self) -> list[Core]:
        """The lightweight management cores (empty on the paper's platforms)."""
        return self.worker_cores[self.config.n_worker_cores:]

    @property
    def accel_pes(self) -> list[PE]:
        return [pe for pe in self.pes if pe.kind.is_accelerator]

    def pes_supporting(self, api: str) -> list[PE]:
        return [pe for pe in self.pes if pe.supports(api)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = "+".join(pe.desc.name for pe in self.pes)
        return f"<PlatformInstance {self.config.name}: {kinds}>"


def zcu102(
    n_cpu: int = 3,
    n_fft: int = 1,
    n_mmult: int = 0,
    timing: Optional[TimingModel] = None,
) -> PlatformConfig:
    """Xilinx ZCU102 emulation: 4 ARM A53 cores (3 workers + 1 runtime),
    plus ``n_fft`` FFT and ``n_mmult`` MMULT fabric accelerators.

    The paper composes SoCs "from the pool of 3 ARM cores along with 8 FFT
    accelerators"; ``n_cpu`` may be lowered below 3 for ablations but the
    physical worker pool stays 3 cores, exactly like the board.
    """
    if not 0 <= n_fft <= 8:
        raise ValueError("ZCU102 experiments use 0-8 FFT accelerators")
    accels = (PEKind.FFT,) * n_fft + (PEKind.MMULT,) * n_mmult
    return PlatformConfig(
        name=f"zcu102-{n_cpu}c{n_fft}f{n_mmult}m",
        n_worker_cores=3,
        n_cpu_workers=n_cpu,
        accelerators=accels,
        timing=timing or zcu102_timing(),
    )


def zcu102_biglittle(
    n_big: int = 3,
    n_little: int = 4,
    n_fft: int = 8,
    n_mmult: int = 0,
    little_speed: float = 0.45,
    timing: Optional[TimingModel] = None,
) -> PlatformConfig:
    """The paper's future-work architecture: big.LITTLE worker management.

    The conclusion proposes to "exchange a fraction of the heavyweight CPUs
    with a larger quantity of lightweight CPUs specialized for worker thread
    management".  This configuration keeps ``n_big`` A53-class cores for CPU
    workers and application threads and adds ``n_little`` slow cores that
    host every accelerator-management thread, so their busy-polling stops
    crowding the big cores.  The fig10-biglittle ablation bench quantifies
    the effect against the evaluated 3-core ZCU102.
    """
    if not 0 <= n_fft <= 8:
        raise ValueError("ZCU102 experiments use 0-8 FFT accelerators")
    if n_little < 1:
        raise ValueError("a big.LITTLE configuration needs at least one LITTLE core")
    accels = (PEKind.FFT,) * n_fft + (PEKind.MMULT,) * n_mmult
    return PlatformConfig(
        name=f"zcu102bl-{n_big}b{n_little}l{n_fft}f",
        n_worker_cores=n_big,
        n_cpu_workers=n_big,
        accelerators=accels,
        timing=timing or zcu102_timing(),
        n_little_cores=n_little,
        little_speed=little_speed,
    )


def jetson(
    n_cpu: int = 7,
    n_gpu: int = 1,
    timing: Optional[TimingModel] = None,
) -> PlatformConfig:
    """NVIDIA Jetson AGX Xavier emulation: 8 Carmel cores (7 worker-pool +
    1 runtime) and the Volta GPU.

    ``n_cpu`` is the number of CPU *worker PEs* (1-7 in Fig. 10(b)); the
    worker pool always exposes all 7 physical cores because CEDR-API
    "launches the application non-kernel threads on all 7 CPU cores
    regardless of the number of worker threads".
    """
    if not 1 <= n_cpu <= 7:
        raise ValueError("Jetson experiments use 1-7 CPU workers")
    return PlatformConfig(
        name=f"jetson-{n_cpu}c{n_gpu}g",
        n_worker_cores=7,
        n_cpu_workers=n_cpu,
        accelerators=(PEKind.GPU,) * n_gpu,
        timing=timing or jetson_timing(),
    )
