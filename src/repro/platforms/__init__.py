"""Emulated DSSoC platforms: PEs, timing models, ZCU102 and Jetson presets."""

from .pe import CPU_ONLY_API, PE, PEDescriptor, PEKind, SUPPORT_MATRIX
from .platform import (
    PlatformConfig,
    PlatformInstance,
    jetson,
    zcu102,
    zcu102_biglittle,
)
from .registry import (
    PLATFORMS,
    PlatformEntry,
    available_platforms,
    make_platform,
    register_platform,
)
from .energy import (
    JETSON_POWER,
    ZCU102_POWER,
    EnergyBreakdown,
    PowerModel,
    estimate_energy,
)
from .timing import (
    AccelCost,
    CostTable,
    ShapeOutsideEnvelope,
    TimingModel,
    jetson_timing,
    zcu102_timing,
)

__all__ = [
    "PE",
    "PEDescriptor",
    "PEKind",
    "SUPPORT_MATRIX",
    "CPU_ONLY_API",
    "PlatformConfig",
    "PlatformInstance",
    "zcu102",
    "zcu102_biglittle",
    "jetson",
    "PLATFORMS",
    "PlatformEntry",
    "register_platform",
    "make_platform",
    "available_platforms",
    "TimingModel",
    "AccelCost",
    "CostTable",
    "ShapeOutsideEnvelope",
    "zcu102_timing",
    "jetson_timing",
    "PowerModel",
    "EnergyBreakdown",
    "estimate_energy",
    "ZCU102_POWER",
    "JETSON_POWER",
]
