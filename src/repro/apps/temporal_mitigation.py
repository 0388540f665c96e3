"""Temporal Interference Mitigation: the CEDR ecosystem's GEMM workload.

Temporal mitigation (TM) appears throughout the CEDR/DS3 benchmark suites:
a radio receives its signal of interest superimposed with a delayed,
scaled copy of a known interferer (e.g. its own transmitter's leakage) and
cancels it adaptively.  Per block of ``block_len`` samples:

1. build the lag matrix ``T`` (``n_lags`` delayed copies of the reference);
2. correlate: ``A = T T^H`` and ``c = T s^H`` - two GEMM kernels targeting
   the ZCU102's MMULT accelerator (under this reproduction's DMA-dominated
   fabric calibration the schedulers correctly keep these thin matrices on
   the CPUs - small-GEMM offload does not pay, an honest corollary of the
   Fig. 10a regime; see ``tests/apps/test_rx_tm.py``);
3. solve the small ``n_lags x n_lags`` system for the cancellation weights
   (CPU region - too small to accelerate);
4. apply: ``clean = s - w^H T`` - one more GEMM plus a vector subtract.

So one frame issues ``3 x n_blocks`` GEMM tasks interleaved with CPU
regions, the mirror image of the FFT-dominated radar/vision apps.  The
result carries before/after interference power so tests can assert the
cancellation actually works (>=20 dB suppression at the default SNR).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Generator

import numpy as np


from .base import CedrApplication, Variant, stand_in, work_for_elems
from .registry import AppEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.dag import DagProgram

__all__ = ["TemporalMitigation", "TMResult"]


@dataclass(frozen=True)
class TMResult:
    """Cancellation outcome for one frame."""

    clean: np.ndarray             # (n_blocks, block_len) mitigated signal
    residual_power: float         # mean |clean - truth|^2
    interference_power: float     # mean |received - truth|^2 before TM

    @property
    def suppression_db(self) -> float:
        """How much interference energy the mitigation removed."""
        if self.residual_power <= 0:
            return float("inf")
        return 10.0 * np.log10(self.interference_power / self.residual_power)


class TemporalMitigation(CedrApplication):
    """Adaptive interference cancellation over one frame of blocks."""

    name = "TM"
    default_variant = "blocking"
    dag_params = ("n_blocks", "block_len", "n_lags")

    def __init__(
        self,
        n_blocks: int = 64,
        block_len: int = 256,
        n_lags: int = 4,
        interferer_gain: float = 3.0,
        noise_std: float = 0.01,
    ) -> None:
        if n_lags < 1 or block_len <= n_lags:
            raise ValueError(f"bad geometry: {n_lags} lags over {block_len} samples")
        self.n_blocks = n_blocks
        self.block_len = block_len
        self.n_lags = n_lags
        self.interferer_gain = interferer_gain
        self.noise_std = noise_std

    @property
    def frame_mb(self) -> float:
        """Received complex64 samples per frame, in megabits."""
        return self.n_blocks * self.block_len * 8 * 8 / 1e6

    # ------------------------------------------------------------------ #
    # input synthesis
    # ------------------------------------------------------------------ #

    def input_shapes(self) -> dict[str, tuple[tuple[int, ...], Any]]:
        frame = ((self.n_blocks, self.block_len), np.complex128)
        return {"received": frame, "reference": frame, "truth": frame}

    def make_input(self, rng: np.random.Generator) -> dict[str, Any]:
        """Signal of interest + delayed/scaled interference + noise."""
        shape = (self.n_blocks, self.block_len)
        signal = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)
        reference = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)
        # the channel smears the interferer over the first n_lags taps
        taps = self.interferer_gain * (
            rng.normal(size=self.n_lags) + 1j * rng.normal(size=self.n_lags)
        ) / np.sqrt(2 * self.n_lags)
        interference = np.zeros(shape, dtype=np.complex128)
        for lag, h in enumerate(taps):
            interference[:, lag:] += h * reference[:, : self.block_len - lag]
        noise = self.noise_std * (
            rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ) / np.sqrt(2)
        return {
            "received": signal + interference + noise,
            "reference": reference,
            "truth": signal,
        }

    # ------------------------------------------------------------------ #
    # per-block math shared by all forms
    # ------------------------------------------------------------------ #

    def _lag_matrix(self, ref_block: np.ndarray) -> np.ndarray:
        """(n_lags, block_len) delayed copies of the reference."""
        T = np.zeros((self.n_lags, self.block_len), dtype=np.complex128)
        for lag in range(self.n_lags):
            T[lag, lag:] = ref_block[: self.block_len - lag]
        return T

    @staticmethod
    def _solve_weights(A: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Regularized solve of A w = c (the tiny CPU-only region)."""
        reg = 1e-9 * np.trace(A).real / A.shape[0]
        return np.linalg.solve(A + reg * np.eye(A.shape[0]), c)

    def _gemm_params(self, m: int, k: int, n: int) -> dict:
        return {"m": m, "k": k, "n": n}

    def reference(self, inputs: dict[str, Any]) -> TMResult:
        received, reference = inputs["received"], inputs["reference"]
        clean = np.empty_like(received)
        for b in range(self.n_blocks):
            T = self._lag_matrix(reference[b])
            A = T @ T.conj().T
            c = T @ received[b].conj()[:, None]
            w = self._solve_weights(A, c[:, 0])
            clean[b] = received[b] - (w.conj()[None, :] @ T)[0]
        return self._score(clean, inputs)

    def _score(self, clean: np.ndarray, inputs: dict[str, Any]) -> TMResult:
        truth = inputs["truth"]
        return TMResult(
            clean=clean,
            residual_power=float(np.mean(np.abs(clean - truth) ** 2)),
            interference_power=float(np.mean(np.abs(inputs["received"] - truth) ** 2)),
        )

    # ------------------------------------------------------------------ #
    # API-based form
    # ------------------------------------------------------------------ #

    def api_main(
        self, lib, inputs: dict[str, Any], variant: Variant = "blocking"
    ) -> Generator:
        ex = lib.executes
        received, reference = inputs["received"], inputs["reference"]
        L, N = self.n_lags, self.block_len

        clean = np.empty_like(received) if ex else None
        # the operands' shapes, which is all a timing-only run passes
        lags, lags_h, col, row = map(stand_in, ((L, N), (N, L), (N, 1), (1, L)))

        def block_math(b):
            """Generator computing one block through libCEDR calls."""
            yield from lib.local_work(work_for_elems(L * N))  # build lag matrix
            T = self._lag_matrix(reference[b]) if ex else lags
            A = yield from lib.gemm(T, T.conj().T if ex else lags_h)
            c = yield from lib.gemm(T, received[b].conj()[:, None] if ex else col)
            yield from lib.local_work(work_for_elems(L * L * L))  # tiny solve
            wrow = self._solve_weights(A, c[:, 0]).conj()[None, :] if ex else row
            corr = yield from lib.gemm(wrow, T)
            yield from lib.local_work(work_for_elems(N))  # subtract
            if ex:
                clean[b] = received[b] - corr[0]

        if variant == "blocking":
            for b in range(self.n_blocks):
                yield from block_math(b)
        else:
            # non-blocking: overlap the correlation GEMMs of all blocks,
            # then finish each block (solve depends on both correlations)
            corr_reqs = []
            for b in range(self.n_blocks):
                yield from lib.local_work(work_for_elems(L * N))
                T = self._lag_matrix(reference[b]) if ex else lags
                a_req = yield from lib.gemm_nb(T, T.conj().T if ex else lags_h)
                c_req = yield from lib.gemm_nb(T, received[b].conj()[:, None] if ex else col)
                corr_reqs.append((T, a_req, c_req))
            apply_reqs = []
            for b, (T, a_req, c_req) in enumerate(corr_reqs):
                A = yield from a_req.wait()
                c = yield from c_req.wait()
                yield from lib.local_work(work_for_elems(L * L * L))
                wrow = self._solve_weights(A, c[:, 0]).conj()[None, :] if ex else row
                apply_reqs.append((b, T, (yield from lib.gemm_nb(wrow, T))))
            for b, T, req in apply_reqs:
                corr = yield from req.wait()
                yield from lib.local_work(work_for_elems(N))
                if ex:
                    clean[b] = received[b] - corr[0]

        return self._score(clean, inputs) if ex else None

    # ------------------------------------------------------------------ #
    # DAG-based form
    # ------------------------------------------------------------------ #

    def dag_state(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return dict(inputs)

    def dag_program(self) -> DagProgram:
        from repro.dag import DagBuilder

        L, N = self.n_lags, self.block_len
        b_ = DagBuilder("TM")
        final_names = []
        for b in range(self.n_blocks):

            def prep(st, b=b):
                T = self._lag_matrix(st["reference"][b])
                st[f"T_{b}"] = T
                st[f"Th_{b}"] = T.conj().T
                st[f"sh_{b}"] = st["received"][b].conj()[:, None]

            b_.cpu(f"prep_{b}", prep, work_for_elems(L * N))
            b_.kernel(f"corrA_{b}", "gemm", self._gemm_params(L, N, L),
                      [f"T_{b}", f"Th_{b}"], f"A_{b}", after=[f"prep_{b}"])
            b_.kernel(f"corrc_{b}", "gemm", self._gemm_params(L, N, 1),
                      [f"T_{b}", f"sh_{b}"], f"c_{b}", after=[f"prep_{b}"])

            def solve(st, b=b):
                w = self._solve_weights(st[f"A_{b}"], st[f"c_{b}"][:, 0])
                st[f"w_{b}"] = w.conj()[None, :]

            b_.cpu(f"solve_{b}", solve, work_for_elems(L * L * L),
                   after=[f"corrA_{b}", f"corrc_{b}"])
            b_.kernel(f"apply_{b}", "gemm", self._gemm_params(1, L, N),
                      [f"w_{b}", f"T_{b}"], f"corr_{b}", after=[f"solve_{b}"])

            def subtract(st, b=b):
                st[f"clean_{b}"] = st["received"][b] - st[f"corr_{b}"][0]

            final_names.append(
                b_.cpu(f"sub_{b}", subtract, work_for_elems(N), after=[f"apply_{b}"])
            )

        def assemble(st, n_blocks=self.n_blocks):
            clean = np.stack([st[f"clean_{b}"] for b in range(n_blocks)])
            st["result"] = self._score(clean, st)

        b_.cpu("assemble", assemble, work_for_elems(self.n_blocks * N), after=final_names)
        return b_.build()


#: ``APPS["TM"]``, CLI-sized (see :mod:`repro.apps.registry`)
APP_ENTRY = AppEntry("TM", partial(TemporalMitigation, n_blocks=32),
                     "Temporal interference mitigation (GEMM/MMULT)")
