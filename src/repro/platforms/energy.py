"""First-order energy model for the emulated platforms.

The paper's motivation is SWaP-C budgets, and its conclusion proposes
big.LITTLE worker management "minimizing the energy and latency" of
accelerator-rich configurations.  This module provides the energy half of
that trade-off study: a simple activity-based model

    E = sum over cores of (P_busy * busy_time + P_idle * idle_time)
      + sum over devices of (P_active * occupied_time)
      + P_platform * makespan

with per-component power constants in the envelope of published numbers
for the two boards (A53 ~0.35 W/core active, Carmel ~1.2 W, LITTLE-class
~0.1 W, FFT IP region ~0.4 W, Volta GPU ~9 W active, plus board static
power).  Like the timing model, the constants are calibration-grade: the
meaningful outputs are *comparisons* between configurations, not absolute
joules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pe import PEKind
from .platform import PlatformInstance

__all__ = ["PowerModel", "EnergyBreakdown", "estimate_energy", "ZCU102_POWER", "JETSON_POWER"]


@dataclass(frozen=True)
class PowerModel:
    """Per-component power constants (watts)."""

    cpu_busy_w: float
    cpu_idle_w: float
    little_busy_w: float = 0.1
    little_idle_w: float = 0.03
    accel_active_w: dict[PEKind, float] = field(default_factory=dict)
    platform_static_w: float = 2.0


#: Xilinx ZCU102: A53 cluster + FFT/MMULT fabric regions.
ZCU102_POWER = PowerModel(
    cpu_busy_w=0.35,
    cpu_idle_w=0.08,
    accel_active_w={PEKind.FFT: 0.4, PEKind.MMULT: 0.45},
    platform_static_w=3.0,
)

#: NVIDIA Jetson AGX Xavier: Carmel cores + Volta GPU.
JETSON_POWER = PowerModel(
    cpu_busy_w=1.2,
    cpu_idle_w=0.25,
    accel_active_w={PEKind.GPU: 9.0},
    platform_static_w=5.0,
)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules per subsystem over one run."""

    cpu_j: float
    little_j: float
    accel_j: float
    static_j: float
    makespan_s: float

    @property
    def total_j(self) -> float:
        return self.cpu_j + self.little_j + self.accel_j + self.static_j

    @property
    def average_power_w(self) -> float:
        return self.total_j / self.makespan_s if self.makespan_s > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Energy {self.total_j:.2f} J over {self.makespan_s*1e3:.1f} ms "
                f"(cpu {self.cpu_j:.2f} + little {self.little_j:.2f} + "
                f"accel {self.accel_j:.2f} + static {self.static_j:.2f})>")


def _default_power_model(platform: PlatformInstance) -> PowerModel:
    """Pick the preset matching the platform's accelerator mix."""
    kinds = {pe.kind for pe in platform.accel_pes}
    return JETSON_POWER if PEKind.GPU in kinds else ZCU102_POWER


def estimate_energy(
    platform: PlatformInstance,
    power: PowerModel | None = None,
    makespan: float | None = None,
) -> EnergyBreakdown:
    """Activity-based energy of one completed run on *platform*.

    ``makespan`` defaults to the engine's final simulated time.  Busy time
    per core comes from the simulator's per-core accounting (busy-polling
    spinners count as busy, matching their real power draw); device
    occupancy from the device bookkeeping.
    """
    power = power or _default_power_model(platform)
    t_end = makespan if makespan is not None else platform.engine.now
    if t_end < 0:
        raise ValueError(f"negative makespan: {t_end}")

    n_big = platform.config.n_worker_cores
    cpu_j = 0.0
    little_j = 0.0
    for i, core in enumerate([*platform.worker_cores, platform.runtime_core]):
        busy = min(core.busy_time, t_end)
        idle = max(0.0, t_end - busy)
        is_little = n_big <= i < n_big + platform.config.n_little_cores
        if is_little:
            little_j += power.little_busy_w * busy + power.little_idle_w * idle
        else:
            cpu_j += power.cpu_busy_w * busy + power.cpu_idle_w * idle

    accel_j = 0.0
    for pe in platform.accel_pes:
        active_w = power.accel_active_w.get(pe.kind, 0.0)
        accel_j += active_w * min(pe.device.busy_time, t_end)

    return EnergyBreakdown(
        cpu_j=cpu_j,
        little_j=little_j,
        accel_j=accel_j,
        static_j=power.platform_static_w * t_end,
        makespan_s=t_end,
    )
