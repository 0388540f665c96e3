"""Pulse Doppler: the paper's radar-processing application.

Chain (Section III): pulse compression of P=128 echo pulses with 256-point
fast-time FFTs (FFT -> conjugate-reference ZIP -> IFFT per pulse block),
then slow-time Doppler FFTs per range bin, then peak extraction to
range/velocity.  With ``batch=1`` this issues the paper's ~512 individual
FFT-class tasks per frame; the default ``batch=16`` groups pulse rows to
keep large sweeps tractable without changing the dataflow shape.

Three forms (see :class:`~repro.apps.base.CedrApplication`): NumPy
reference, API-based ``main`` (blocking or non-blocking variant), and the
DAG-based program whose non-kernel regions (reference prep, corner turn,
detection) become explicit CPU-only nodes - the extra scheduled tasks that
inflate baseline CEDR's ready queue.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.core.handles import wait_all
from repro.kernels import radar

from .base import CedrApplication, Variant, chunk_slices, stand_in, work_for_elems
from .registry import AppEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.dag import DagProgram

__all__ = ["PulseDoppler"]


class PulseDoppler(CedrApplication):
    """Pulse-Doppler radar frame processing."""

    name = "PD"
    dag_params = ("geom", "batch")

    def __init__(
        self,
        geom: radar.PDGeometry | None = None,
        batch: int = 1,
        target_range_bin: int = 60,
        target_velocity: float = 30.0,
        snr_db: float = 15.0,
    ) -> None:
        self.geom = geom or radar.PDGeometry()
        self.batch = batch
        self.target_range_bin = target_range_bin
        self.target_velocity = target_velocity
        self.snr_db = snr_db

    @property
    def frame_mb(self) -> float:
        """complex64 pulse matrix: P x N x 8 bytes, in megabits."""
        return self.geom.n_pulses * self.geom.n_fast * 8 * 8 / 1e6

    def input_shapes(self) -> dict[str, tuple[tuple[int, ...], Any]]:
        g = self.geom
        return {
            "pulses": ((g.n_pulses, g.n_fast), np.complex128),
            "ref": ((g.n_fast,), np.complex128),
        }

    def make_input(self, rng: np.random.Generator) -> dict[str, Any]:
        pulses, ref = radar.synthesize_returns(
            self.geom, self.target_range_bin, self.target_velocity, self.snr_db, rng
        )
        return {"pulses": pulses, "ref": ref}

    def reference(self, inputs: dict[str, Any]) -> radar.Detection:
        comp = radar.pulse_compress(inputs["pulses"], inputs["ref"])
        rd = radar.doppler_process(comp)
        return radar.detect_target(rd, self.geom)

    # ------------------------------------------------------------------ #
    # API-based form
    # ------------------------------------------------------------------ #

    def api_main(
        self, lib, inputs: dict[str, Any], variant: Variant = "blocking"
    ) -> Generator:
        pulses = inputs["pulses"]
        ref = inputs["ref"]
        n_pulses, n_fast = pulses.shape
        ex = lib.executes

        ref_spec = self._or_fallback((yield from lib.fft(ref)), ref, ex)
        yield from lib.local_work(work_for_elems(n_fast))  # conjugate prep
        ref_conj = np.conj(ref_spec) if ex else ref

        slices = chunk_slices(n_pulses, self.batch)
        if variant == "blocking":
            comp_chunks = []
            for sl in slices:
                chunk = pulses[sl]
                spec = self._or_fallback((yield from lib.fft(chunk)), chunk, ex)
                tile = np.broadcast_to(ref_conj, spec.shape).copy() if ex else chunk
                filt = self._or_fallback((yield from lib.zip(spec, tile)), chunk, ex)
                comp_chunks.append(self._or_fallback((yield from lib.ifft(filt)), chunk, ex))
        else:
            fft_reqs = []
            for sl in slices:
                fft_reqs.append((yield from lib.fft_nb(pulses[sl])))
            specs = yield from wait_all(fft_reqs)
            specs = [self._or_fallback(s, pulses[sl], ex) for s, sl in zip(specs, slices)]
            zip_reqs = []
            for spec, sl in zip(specs, slices):
                tile = np.broadcast_to(ref_conj, spec.shape).copy() if ex else pulses[sl]
                zip_reqs.append((yield from lib.zip_nb(spec, tile)))
            filts = yield from wait_all(zip_reqs)
            filts = [self._or_fallback(f, pulses[sl], ex) for f, sl in zip(filts, slices)]
            ifft_reqs = []
            for filt in filts:
                ifft_reqs.append((yield from lib.ifft_nb(filt)))
            comps = yield from wait_all(ifft_reqs)
            comp_chunks = [self._or_fallback(c, pulses[sl], ex) for c, sl in zip(comps, slices)]

        # corner turn: range-major matrix for the slow-time transforms
        yield from lib.local_work(work_for_elems(n_pulses * n_fast))
        cols = np.ascontiguousarray(np.vstack(comp_chunks).T) if ex else stand_in((n_fast, n_pulses))

        dop_slices = chunk_slices(n_fast, self.batch)
        if variant == "blocking":
            rd_chunks = []
            for sl in dop_slices:
                chunk = cols[sl]
                rd_chunks.append(self._or_fallback((yield from lib.fft(chunk)), chunk, ex))
        else:
            reqs = []
            for sl in dop_slices:
                reqs.append((yield from lib.fft_nb(cols[sl])))
            outs = yield from wait_all(reqs)
            rd_chunks = [self._or_fallback(o, cols[sl], ex) for o, sl in zip(outs, dop_slices)]

        yield from lib.local_work(work_for_elems(n_pulses * n_fast))  # peak search
        if not ex:
            return None
        rd_map = np.vstack(rd_chunks).T  # back to (pulses, range)
        return radar.detect_target(rd_map, self.geom)

    # ------------------------------------------------------------------ #
    # DAG-based form
    # ------------------------------------------------------------------ #

    def dag_state(self, inputs: dict[str, Any]) -> dict[str, Any]:
        pulses = inputs["pulses"]
        state: dict[str, Any] = {"ref": inputs["ref"]}
        for i, sl in enumerate(chunk_slices(self.geom.n_pulses, self.batch)):
            state[f"pulses_{i}"] = pulses[sl]
        return state

    def dag_program(self) -> DagProgram:
        from repro.dag import DagBuilder

        geom = self.geom
        n_pulses, n_fast = geom.n_pulses, geom.n_fast
        slices = chunk_slices(n_pulses, self.batch)
        dop_slices = chunk_slices(n_fast, self.batch)

        b = DagBuilder("PD")
        b.kernel("ref_fft", "fft", {"n": n_fast, "batch": 1}, ["ref"], "ref_spec")

        ifft_names = []
        for i, sl in enumerate(slices):
            rows = sl.stop - sl.start
            b.kernel(
                f"fft_{i}", "fft", {"n": n_fast, "batch": rows},
                [f"pulses_{i}"], f"spec_{i}",
            )

            def prep(st, i=i, rows=rows):
                st[f"refc_{i}"] = np.broadcast_to(
                    np.conj(st["ref_spec"]), (rows, st["ref_spec"].shape[-1])
                ).copy()

            b.cpu(f"prep_{i}", prep, work_for_elems(rows * n_fast), after=["ref_fft"])
            b.kernel(
                f"zip_{i}", "zip", {"n": rows * n_fast},
                [f"spec_{i}", f"refc_{i}"], f"filt_{i}", after=[f"fft_{i}", f"prep_{i}"],
            )
            ifft_names.append(
                b.kernel(
                    f"ifft_{i}", "ifft", {"n": n_fast, "batch": rows},
                    [f"filt_{i}"], f"comp_{i}", after=[f"zip_{i}"],
                )
            )

        def corner_turn(st, n_chunks=len(slices), dop_slices=dop_slices):
            comp = np.vstack([st[f"comp_{i}"] for i in range(n_chunks)])
            cols = np.ascontiguousarray(comp.T)
            for j, sl in enumerate(dop_slices):
                st[f"cols_{j}"] = cols[sl]

        b.cpu("corner", corner_turn, work_for_elems(n_pulses * n_fast), after=ifft_names)

        dop_names = []
        for j, sl in enumerate(dop_slices):
            rows = sl.stop - sl.start
            dop_names.append(
                b.kernel(
                    f"dop_{j}", "fft", {"n": n_pulses, "batch": rows},
                    [f"cols_{j}"], f"rd_{j}", after=["corner"],
                )
            )

        def detect(st, n_chunks=len(dop_slices), geom=geom):
            rd_map = np.vstack([st[f"rd_{j}"] for j in range(n_chunks)]).T
            st["detection"] = radar.detect_target(rd_map, geom)

        b.cpu("detect", detect, work_for_elems(n_pulses * n_fast), after=dop_names)
        return b.build()


#: ``APPS["PD"]``, CLI-sized (see :mod:`repro.apps.registry`)
APP_ENTRY = AppEntry("PD", partial(PulseDoppler, batch=8), "Pulse-Doppler radar (FFT-heavy)")
