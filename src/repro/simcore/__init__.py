"""Discrete-event simulation core: threads, processor-sharing cores, sync.

This package is the hardware-substitution substrate for the CEDR-API
reproduction (see DESIGN.md section 1): it supplies the simulated pthreads,
CPU cores, and accelerator devices on which both the DAG-based and API-based
CEDR runtimes execute.
"""

from .cores import Core, Device
from .engine import Engine
from .errors import SimDeadlock, SimError, SimStateError, SimTimeError
from .process import (
    AcquireDevice,
    Block,
    Compute,
    Request,
    Sleep,
    SimThread,
    ThreadState,
)
from .rng import child_rng
from .sync import Condition, Mutex

__all__ = [
    "Engine",
    "Core",
    "Device",
    "SimThread",
    "ThreadState",
    "Request",
    "Compute",
    "Sleep",
    "Block",
    "AcquireDevice",
    "Mutex",
    "Condition",
    "SimError",
    "SimDeadlock",
    "SimStateError",
    "SimTimeError",
    "child_rng",
]
