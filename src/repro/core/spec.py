"""Declarative libCEDR API surface: one spec row per kernel API.

Historically :class:`~repro.core.api.CedrClient` and
:class:`~repro.core.standalone.StandaloneCedr` each hand-wrote a blocking
and a non-blocking (``*_nb``) method per kernel - eight near-identical
bodies that had to agree with each other, with the payload-size table, and
with the kernel registry.  This module replaces all of that with a single
table: each :class:`ApiSpec` row declares how one abstract API builds its
timing-model parameters and payload from the user's arguments, how many
operand bytes a call marshals, and which CPU implementation standalone
mode executes.  Both client classes *generate* their method pairs from the
table (see :func:`install_api_methods`), so

* public call signatures stay byte-identical to the hand-written surface
  (``fft(self, x)``, ``zip(self, a, b)``, ... - pinned by the API-surface
  parity test), and
* a new kernel API added here gets the blocking variant, the ``_nb``
  variant, standalone-mode parity, payload-byte accounting, and telemetry
  instrumentation for free.

The table is deliberately *not* derived from
:data:`repro.kernels.registry.KERNEL_IMPLS` automatically: that registry
maps (API, PE kind) to implementations and knows nothing about Python-side
argument shapes.  Each row instead references the registry's CPU-side
implementations, so the two stay consistent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.kernels import fft as _fft_mod
from repro.kernels.mmult import gemm as _gemm_kernel
from repro.kernels.zip_ import zip_product as _zip_kernel

__all__ = ["ApiSpec", "API_SPECS", "payload_bytes", "install_api_methods"]


#: complex128 operand element size, bytes (the marshalling unit of the
#: payload-byte model shared by every API).
_ELEM_BYTES = 16.0


@dataclass(frozen=True)
class ApiSpec:
    """Everything the call surface needs to know about one kernel API.

    ``build`` maps the user's positional arguments to ``(params, payload)``:
    ``params`` feeds the platform timing model and the scheduler's profiling
    estimates, ``payload`` is what the executing worker hands the functional
    kernel.  ``bytes_of`` maps ``params`` to the operand bytes the
    application thread stages per call (the ``api_copy_ns_per_byte`` cost).
    ``standalone`` is the immediate CPU implementation used by
    :class:`~repro.core.standalone.StandaloneCedr`.
    """

    name: str
    arity: int
    build: Callable[..., tuple[dict, Any]]
    bytes_of: Callable[[dict], float]
    standalone: Callable[..., Any]
    doc: str


def _fft_build(x: Any) -> tuple[dict, Any]:
    shape = x.shape if isinstance(x, np.ndarray) else np.asarray(x).shape
    return {"n": int(shape[-1]), "batch": math.prod(shape[:-1])}, x


def _zip_build(a: Any, b: Any) -> tuple[dict, Any]:
    a = np.asarray(a)
    return {"n": int(a.size)}, (a, b)


def _gemm_build(a: Any, b: Any) -> tuple[dict, Any]:
    a = np.asarray(a)
    b = np.asarray(b)
    return {"m": a.shape[0], "k": a.shape[1], "n": b.shape[1]}, (a, b)


#: the cedr.h declaration set (paper Listing 1), in declaration order.
API_SPECS: dict[str, ApiSpec] = {
    spec.name: spec
    for spec in (
        ApiSpec(
            name="fft",
            arity=1,
            build=_fft_build,
            bytes_of=lambda p: _ELEM_BYTES * p["n"] * p.get("batch", 1),
            standalone=lambda x: _fft_mod.fft(np.asarray(x)),
            doc="Forward FFT along the last axis",
        ),
        ApiSpec(
            name="ifft",
            arity=1,
            build=_fft_build,
            bytes_of=lambda p: _ELEM_BYTES * p["n"] * p.get("batch", 1),
            standalone=lambda x: _fft_mod.ifft(np.asarray(x)),
            doc="Inverse FFT along the last axis",
        ),
        ApiSpec(
            name="zip",
            arity=2,
            build=_zip_build,
            bytes_of=lambda p: 2 * _ELEM_BYTES * p["n"],
            standalone=lambda a, b: _zip_kernel(np.asarray(a), np.asarray(b)),
            doc="Element-wise product",
        ),
        ApiSpec(
            name="gemm",
            arity=2,
            build=_gemm_build,
            bytes_of=lambda p: _ELEM_BYTES * (p["m"] * p["k"] + p["k"] * p["n"]),
            standalone=lambda a, b: _gemm_kernel(np.asarray(a), np.asarray(b)),
            doc="Matrix multiply",
        ),
    )
}


def payload_bytes(api: str, params: dict) -> float:
    """Operand bytes one call of *api* marshals (0.0 for unknown APIs).

    Unknown names return 0 rather than raising so DAG-mode ``cpu_op``
    pseudo-APIs flow through the same accounting unharmed.
    """
    spec = API_SPECS.get(api)
    return spec.bytes_of(params) if spec is not None else 0.0


def install_api_methods(cls, make_blocking: Callable, make_nonblocking: Callable):
    """Attach one blocking + one ``_nb`` method per spec row to *cls*.

    ``make_blocking`` / ``make_nonblocking`` are factories mapping an
    :class:`ApiSpec` to a function with the public signature for its arity
    (``(self, x)`` or ``(self, a, b)``); this helper stamps metadata
    (``__name__``, ``__qualname__``, ``__doc__``) and installs both
    variants.  Used as a class decorator argument by both client classes::

        @with_generated_apis
        class CedrClient: ...

    Returns *cls* so factories can be composed decorator-style.
    """
    for spec in API_SPECS.values():
        for suffix, factory in (("", make_blocking), ("_nb", make_nonblocking)):
            method = factory(spec)
            method.__name__ = spec.name + suffix
            method.__qualname__ = f"{cls.__name__}.{spec.name}{suffix}"
            setattr(cls, spec.name + suffix, method)
    return cls
