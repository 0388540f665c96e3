"""Real-life applications in reference/API/DAG forms.

The paper's evaluation uses Pulse Doppler, WiFi TX, and Lane Detection;
the wider CEDR benchmark suite also ships a WiFi receiver and Temporal
Interference Mitigation, provided here as well (RX stresses the
non-kernel/CPU side, TM is the GEMM workload that exercises the MMULT
accelerator).
"""

from .base import CedrApplication, Variant, chunk_slices, work_for_elems
from .lane_detection import LaneDetection
from .pulse_doppler import PulseDoppler
from .registry import APPS, AppEntry, available_apps, make_app, register_app
from .temporal_mitigation import TemporalMitigation, TMResult
from .wifi_rx import RxResult, WifiRx
from .wifi_tx import WifiTx

__all__ = [
    "APPS",
    "AppEntry",
    "register_app",
    "make_app",
    "available_apps",
    "CedrApplication",
    "Variant",
    "chunk_slices",
    "work_for_elems",
    "PulseDoppler",
    "WifiTx",
    "WifiRx",
    "RxResult",
    "LaneDetection",
    "TemporalMitigation",
    "TMResult",
]
