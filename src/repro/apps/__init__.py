"""Real-life applications in reference/API/DAG forms.

The paper's evaluation uses Pulse Doppler, WiFi TX, and Lane Detection;
the wider CEDR benchmark suite also ships a WiFi receiver and Temporal
Interference Mitigation, provided here as well (RX stresses the
non-kernel/CPU side, TM is the GEMM workload that exercises the MMULT
accelerator).
"""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "registry": ("APPS", "AppEntry", "register_app", "make_app", "available_apps"),
    "base": ("CedrApplication", "Variant", "chunk_slices", "work_for_elems"),
    "pulse_doppler": ("PulseDoppler",),
    "wifi_tx": ("WifiTx",),
    "wifi_rx": ("WifiRx", "RxResult"),
    "lane_detection": ("LaneDetection",),
    "temporal_mitigation": ("TemporalMitigation", "TMResult"),
})
