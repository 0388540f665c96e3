"""Processing-element descriptors for emulated DSSoC platforms.

A *processing element* (PE) in CEDR is anything a task can be scheduled to:
a CPU core, an FPGA FFT or MMULT accelerator, or the Jetson GPU.  Each PE is
paired with exactly one worker thread in the runtime (paper Section II-A):
CPU PEs execute tasks directly on their core, while accelerator PEs have a
*management* thread pinned to some CPU core that performs DMA/``cudaMemcpy``
setup and then waits on the device.  That CPU-side management cost is the
mechanism behind the paper's scalability findings, so the descriptor keeps
an explicit ``host_core_index`` for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore import Core, Device

__all__ = ["PEKind", "PEDescriptor", "PE", "SUPPORT_MATRIX", "CPU_ONLY_API"]


class PEKind(enum.Enum):
    """The PE classes that appear in the paper's experiments."""

    CPU = "cpu"
    FFT = "fft"      # Xilinx FFT IP on ZCU102 fabric (<= 2048-point)
    MMULT = "mmult"  # matrix-multiply accelerator on ZCU102 fabric
    GPU = "gpu"      # Volta GPU on the Jetson AGX Xavier

    @property
    def is_accelerator(self) -> bool:
        return self is not PEKind.CPU


#: API name used for non-accelerable application regions in DAG mode.  Such
#: tasks only ever run on CPU PEs; the API-based runtime never creates them
#: (that code runs inline on the application thread instead), which is the
#: ready-queue-size difference driving the paper's Fig. 7 ETF result.
CPU_ONLY_API = "cpu_op"

#: Which libCEDR APIs each PE kind can execute.  CPUs run everything (the
#: paper requires every API to ship a portable C/C++ implementation); the
#: accelerators mirror the hardware used in the evaluation: FFT IP handles
#: forward/inverse FFTs, the MMULT IP handles GEMM, and the Jetson CUDA
#: modules provide FFT and ZIP kernels (Section III).
SUPPORT_MATRIX: dict[PEKind, frozenset[str]] = {
    PEKind.CPU: frozenset(
        {"fft", "ifft", "zip", "gemm", "conv2d", CPU_ONLY_API}
    ),
    PEKind.FFT: frozenset({"fft", "ifft"}),
    PEKind.MMULT: frozenset({"gemm"}),
    PEKind.GPU: frozenset({"fft", "ifft", "zip"}),
}


@dataclass(frozen=True)
class PEDescriptor:
    """Static description of one PE in a platform configuration.

    ``clock_ghz`` feeds the timing model; ``host_core_index`` is only
    meaningful for accelerators and names the worker-pool core whose
    management thread drives this device.
    """

    name: str
    kind: PEKind
    clock_ghz: float
    host_core_index: Optional[int] = None

    def supports(self, api: str) -> bool:
        return api in SUPPORT_MATRIX[self.kind]


@dataclass(slots=True)
class PE:
    """A live PE inside a built platform instance.

    For CPU PEs, ``core`` is the simulated core the worker owns and
    ``device`` is ``None``; for accelerators it is the reverse, plus
    ``host_core`` locating the management thread.  Slotted: the schedulers
    and workers read and write its backlog fields on every task, and it
    takes no attribute beyond the fields below.
    """

    index: int
    desc: PEDescriptor
    core: Optional["Core"] = None
    device: Optional["Device"] = None
    host_core: Optional["Core"] = None
    #: running tally used by schedulers: when this PE is expected to drain
    #: everything already assigned to it (simulated-time instant).
    expected_free: float = 0.0
    #: sum of execution estimates of tasks assigned but not yet completed
    #: (mailbox + in flight); the daemon rebuilds expected_free from this at
    #: every scheduling round.
    outstanding_est: float = 0.0
    #: EWMA of (observed service time / estimate) - how much slower this PE
    #: runs than its profile due to core contention.  CEDR's heuristics
    #: consult execution-time profiles plus queue state; folding observed
    #: slowdown in is what lets EFT/ETF/HEFT avoid oversubscribed PEs better
    #: than Round Robin (paper Fig. 10a ordering).
    slowdown: float = 1.0
    busy_until: float = 0.0
    stats: dict = field(default_factory=dict)

    # -- fault-injection state (repro.faults); inert without faults -------- #
    #: live mask consulted by the schedulers via ``live_columns``:
    #: False while the PE is quarantined after a detected failure or dead.
    available: bool = True
    #: fail-stop death: permanent, ``available`` never returns to True.
    dead: bool = False
    #: bumped per quarantine so a stale revival timer cannot un-quarantine
    #: a PE that failed again in the meantime.
    quarantine_epoch: int = 0
    #: pending injected faults consumed by the worker at task completion.
    transient_pending: int = 0
    hang_pending: int = 0
    #: multiplicative execution-time degradation while a slowdown fault is
    #: active (1.0 = healthy); ``slow_epoch`` guards the revert timer.
    fault_slow_factor: float = 1.0
    slow_epoch: int = 0

    @property
    def name(self) -> str:
        return self.desc.name

    @property
    def kind(self) -> PEKind:
        return self.desc.kind

    def supports(self, api: str) -> bool:
        return self.desc.supports(api)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PE {self.index}:{self.desc.name}>"
