"""Emulated DSSoC platforms: PEs, timing models, ZCU102 and Jetson presets."""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "pe": ("PE", "PEDescriptor", "PEKind", "SUPPORT_MATRIX", "CPU_ONLY_API"),
    "platform": ("PlatformConfig", "PlatformInstance", "zcu102", "zcu102_biglittle", "jetson"),
    "registry": ("PLATFORMS", "PlatformEntry", "register_platform", "make_platform",
                 "available_platforms"),
    "timing": ("TimingModel", "AccelCost", "CostTable", "ShapeOutsideEnvelope",
               "zcu102_timing", "jetson_timing"),
    "energy": ("PowerModel", "EnergyBreakdown", "estimate_energy", "ZCU102_POWER",
               "JETSON_POWER"),
}, eager=("pe", "platform", "registry", "timing"))
