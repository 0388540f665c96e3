"""Application base class: one source of truth, three execution forms.

Every paper application (Pulse Doppler, WiFi TX, Lane Detection) derives
from :class:`CedrApplication` and provides:

* ``reference`` - plain NumPy golden implementation (what the original
  single-threaded C code computes);
* ``api_main`` - the CEDR-API form: a generator using libCEDR calls
  (blocking or non-blocking per ``variant``), runnable against both the
  runtime-backed client and the standalone CPU library;
* ``build_dag`` - the baseline DAG-based CEDR form with the whole
  application (including non-accelerable regions) carved into nodes.

``make_instance`` packages either form into a runtime-submittable
:class:`~repro.runtime.app.AppInstance`.  A timing-only run reads input
*shapes*, never values, so there the forms get zero-storage stand-ins built
from ``input_shapes``; the DAG form is a per-structure ``dag_program``
(parsed once, shared by every instance) plus a per-instance ``dag_state``.
The ``batch`` knob groups fine-grained kernel invocations (e.g. individual
1024-point FFT rows) into one schedulable task; ``batch=1`` reproduces the
paper's task granularity exactly while larger values keep big sweeps
tractable - see DESIGN.md's scale note.
"""

from __future__ import annotations

import abc
from typing import Any, Generator, Literal, Optional

import numpy as np

from repro.dag import DagProgram
from repro.runtime.app import API_MODE, DAG_MODE, AppInstance

__all__ = ["CedrApplication", "Variant", "chunk_slices", "stand_in", "work_for_elems"]

Variant = Literal["blocking", "nonblocking"]


def chunk_slices(n: int, batch: int) -> list[slice]:
    """Split ``range(n)`` into contiguous slices of at most ``batch``."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return [slice(i, min(i + batch, n)) for i in range(0, n, batch)]


class CedrApplication(abc.ABC):
    """One real-life application in all its CEDR forms."""

    #: short name used in logs and figures (e.g. "PD", "TX", "LD")
    name: str = "app"

    #: API-mode call style used by the paper-configuration experiments.
    #: PD and TX are latency-bound request/response apps written with the
    #: straightforward blocking APIs; Lane Detection is the throughput app
    #: whose phases fan out through the non-blocking APIs (Section II-C).
    default_variant: Variant = "blocking"

    #: attributes that shape the DAG (node set, edges, node params); their
    #: current values key the shared :meth:`dag_program`.  No default: an app
    #: that forgot to declare them must not get a never-refreshed program.
    dag_params: tuple[str, ...]

    # the parsed program lives in a slot, not ``__dict__``: ``vars(app)`` is
    # the app's observable state (the sweep cache keys on it) and must stay
    # free of derived, closure-carrying data
    __slots__ = ("_dag_cache",)

    def __getstate__(self) -> dict[str, Any]:
        return self.__dict__  # copies and pool workers rebuild the program

    @property
    @abc.abstractmethod
    def frame_mb(self) -> float:
        """Frame size in megabits (the paper's injection-rate unit)."""

    @abc.abstractmethod
    def input_shapes(self) -> dict[str, tuple[tuple[int, ...], Any]]:
        """``{name: (shape, dtype)}`` of every array ``make_input`` returns."""

    @abc.abstractmethod
    def make_input(self, rng: np.random.Generator) -> dict[str, Any]:
        """Synthesize one frame of input data."""

    @abc.abstractmethod
    def reference(self, inputs: dict[str, Any]) -> Any:
        """Golden single-threaded NumPy result for *inputs*."""

    @abc.abstractmethod
    def api_main(
        self, lib, inputs: dict[str, Any], variant: Variant = "blocking"
    ) -> Generator:
        """CEDR-API ``main``: yields libCEDR requests, returns the result."""

    @abc.abstractmethod
    def dag_program(self) -> DagProgram:
        """DAG-based form: the parsed program for the current structure.

        Holds no instance data - every ``cpu_op`` reads its frame from the
        state dict - so one program serves all instances of this app.
        """

    @abc.abstractmethod
    def dag_state(self, inputs: dict[str, Any]) -> dict[str, Any]:
        """DAG-based form: the initial state dict for one frame."""

    def build_dag(self, inputs: dict[str, Any]) -> tuple[DagProgram, dict[str, Any]]:
        """DAG-based form: (shared program, initial state) for one frame.

        The program is re-parsed only when a ``dag_params`` attribute has
        changed since the last call; the daemon's *simulated* parse charge
        stays per arrival.
        """
        key = tuple(getattr(self, attr) for attr in self.dag_params)
        cached = getattr(self, "_dag_cache", None)
        if cached is None or cached[0] != key:
            cached = self._dag_cache = (key, self.dag_program())
        return cached[1], self.dag_state(inputs)

    def shape_inputs(self) -> dict[str, np.ndarray]:
        """Read-only zero-stride stand-ins for ``make_input``'s arrays:
        right shape and dtype, one element of storage each."""
        return {name: stand_in(*spec) for name, spec in self.input_shapes().items()}

    # ------------------------------------------------------------------ #

    def make_instance(
        self,
        mode: str,
        rng: Optional[np.random.Generator],
        variant: Optional[Variant] = None,
        inputs: Optional[dict[str, Any]] = None,
        timing_only: bool = False,
    ) -> AppInstance:
        """Create a submittable instance of this application.

        ``mode`` is ``"dag"`` or ``"api"``; ``variant`` defaults to the
        app's :attr:`default_variant`; fresh input data is synthesized from
        *rng* unless *inputs* is supplied or the run is *timing_only*
        (``execute_kernels=False``; *rng* may then be ``None``), which gets
        :meth:`shape_inputs` and an instance the runtime will not execute.
        """
        variant = variant or self.default_variant
        timing_only = timing_only and inputs is None
        if timing_only:
            inputs = self.shape_inputs()
        elif inputs is None:
            inputs = self.make_input(rng)
        if mode == DAG_MODE:
            program, state = self.build_dag(inputs)
            return AppInstance(
                name=self.name, mode=DAG_MODE, frame_mb=self.frame_mb,
                dag=program, initial_state=state, timing_only=timing_only,
            )
        if mode == API_MODE:
            def main_factory(lib, _inputs=inputs, _variant=variant):
                return self.api_main(lib, _inputs, variant=_variant)

            return AppInstance(
                name=self.name, mode=API_MODE, frame_mb=self.frame_mb,
                main_factory=main_factory, timing_only=timing_only,
            )
        raise ValueError(f"unknown mode {mode!r} (use 'dag' or 'api')")

    # -- shared helpers ---------------------------------------------------- #

    @staticmethod
    def _or_fallback(result: Any, fallback: Any, executes: bool) -> Any:
        """Pick the kernel result, or a same-shaped stand-in when the run is
        timing-only (``execute_kernels=False``) so downstream calls still
        carry correctly-sized payloads."""
        return result if executes else fallback

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} frame={self.frame_mb:.2f}Mb>"


def stand_in(shape: tuple[int, ...], dtype: Any = np.complex128) -> np.ndarray:
    """A read-only zero-stride array of *shape*: what a timing-only run
    passes where a payload goes, one element of storage whatever its size."""
    return np.broadcast_to(np.zeros((), dtype), shape)


def work_for_elems(n_elems: float, ns_per_elem: float = 8.0) -> float:
    """Seconds-at-1GHz for a light per-element CPU pass (copies, transposes,
    thresholding).  Used by apps to cost their non-kernel regions."""
    return n_elems * ns_per_elem * 1e-9

