"""WiFi TX: the paper's communications application.

Per Section III: "generates packets of 64 bits and prepares for
transmission ... through scrambler, encoder, modulation, and forward error
correction processes" with a 128-point IFFT per packet - 100 packets (and
thus ~100 IFFTs) per frame.  The baseband stages are real 802.11a-style
kernels from :mod:`repro.kernels.wifi`; only the IFFT is accelerable, which
makes WiFi TX the workload with the highest non-kernel-to-kernel ratio -
exactly why DAG-based CEDR's "whole application divided into tasks"
inflates its ready queue relative to the API form.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.core.handles import wait_all
from repro.kernels import wifi
from repro.kernels.fft import ifft as cpu_ifft

from .base import CedrApplication, Variant, chunk_slices, stand_in, work_for_elems
from .registry import AppEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.dag import DagProgram

__all__ = ["WifiTx"]

#: per-bit cost of scramble+encode+interleave+modulate at 1 GHz (seconds);
#: dominated by the convolutional encoder's shift-register update.
_BASEBAND_NS_PER_BIT = 2400.0


class WifiTx(CedrApplication):
    """WiFi transmit chain for a frame of 64-bit packets."""

    name = "TX"
    dag_params = ("n_packets", "batch", "cp_len", "payload_bits")

    def __init__(
        self,
        n_packets: int = 100,
        batch: int = 1,
        scheme: str = "qpsk",
        cp_len: int = 32,
        scrambler_seed: int = 0b1011101,
    ) -> None:
        if wifi.N_SUBCARRIERS % 2:
            raise ValueError("subcarrier count must be even")
        self.n_packets = n_packets
        self.batch = batch
        self.scheme = scheme
        self.cp_len = cp_len
        self.scrambler_seed = scrambler_seed
        self.payload_bits = 64

    @property
    def frame_mb(self) -> float:
        """Transmitted complex64 samples per frame, in megabits."""
        samples = self.n_packets * (wifi.N_SUBCARRIERS + self.cp_len)
        return samples * 8 * 8 / 1e6

    def input_shapes(self) -> dict[str, tuple[tuple[int, ...], Any]]:
        return {"bits": ((self.n_packets, self.payload_bits), np.uint8)}

    def make_input(self, rng: np.random.Generator) -> dict[str, Any]:
        bits = rng.integers(0, 2, (self.n_packets, self.payload_bits)).astype(np.uint8)
        return {"bits": bits}

    # -- baseband stages shared by all three forms ------------------------- #

    def _packet_grid(self, payload: np.ndarray) -> np.ndarray:
        """bits -> frequency-domain OFDM symbol (everything but the IFFT)."""
        scrambled = wifi.scramble(payload, self.scrambler_seed)
        coded = wifi.conv_encode(scrambled, terminate=False)
        interleaved = wifi.interleave(coded, coded.size)
        symbols = wifi.modulate(interleaved, self.scheme)
        return wifi.ofdm_modulate(symbols)

    def _grids(self, bits: np.ndarray) -> np.ndarray:
        return np.stack([self._packet_grid(row) for row in bits])

    def _baseband_work(self, n_packets: int) -> float:
        return n_packets * self.payload_bits * 2 * _BASEBAND_NS_PER_BIT * 1e-9

    def reference(self, inputs: dict[str, Any]) -> np.ndarray:
        """(n_packets, 160) complex time-domain frame (CP included)."""
        grids = self._grids(inputs["bits"])
        time_syms = cpu_ifft(grids)
        return wifi.add_cyclic_prefix(time_syms, self.cp_len)

    # ------------------------------------------------------------------ #
    # API-based form
    # ------------------------------------------------------------------ #

    def api_main(
        self, lib, inputs: dict[str, Any], variant: Variant = "blocking"
    ) -> Generator:
        bits = inputs["bits"]
        ex = lib.executes
        n = wifi.N_SUBCARRIERS
        slices = chunk_slices(self.n_packets, self.batch)

        grid_chunks = []
        blank = None if ex else stand_in((self.n_packets, n))  # one view, sliced per chunk
        for sl in slices:
            yield from lib.local_work(self._baseband_work(sl.stop - sl.start))
            grid_chunks.append(self._grids(bits[sl]) if ex else blank[sl])

        if variant == "blocking":
            time_chunks = []
            for grid in grid_chunks:
                time_chunks.append(self._or_fallback((yield from lib.ifft(grid)), grid, ex))
        else:
            reqs = []
            for grid in grid_chunks:
                reqs.append((yield from lib.ifft_nb(grid)))
            outs = yield from wait_all(reqs)
            time_chunks = [self._or_fallback(o, g, ex) for o, g in zip(outs, grid_chunks)]

        yield from lib.local_work(work_for_elems(self.n_packets * (n + self.cp_len)))
        if not ex:
            return None
        return wifi.add_cyclic_prefix(np.vstack(time_chunks), self.cp_len)

    # ------------------------------------------------------------------ #
    # DAG-based form
    # ------------------------------------------------------------------ #

    def dag_state(self, inputs: dict[str, Any]) -> dict[str, Any]:
        bits = inputs["bits"]
        slices = chunk_slices(self.n_packets, self.batch)
        return {f"bits_{i}": bits[sl] for i, sl in enumerate(slices)}

    def dag_program(self) -> DagProgram:
        from repro.dag import DagBuilder

        n = wifi.N_SUBCARRIERS
        slices = chunk_slices(self.n_packets, self.batch)

        b = DagBuilder("TX")
        cp_names = []
        for i, sl in enumerate(slices):
            count = sl.stop - sl.start

            def baseband(st, i=i):
                st[f"grid_{i}"] = self._grids(st[f"bits_{i}"])

            b.cpu(f"bb_{i}", baseband, self._baseband_work(count))
            b.kernel(
                f"ifft_{i}", "ifft", {"n": n, "batch": count},
                [f"grid_{i}"], f"time_{i}", after=[f"bb_{i}"],
            )

            def add_cp(st, i=i):
                st[f"tx_{i}"] = wifi.add_cyclic_prefix(st[f"time_{i}"], self.cp_len)

            cp_names.append(
                b.cpu(
                    f"cp_{i}", add_cp,
                    work_for_elems(count * (n + self.cp_len)), after=[f"ifft_{i}"],
                )
            )

        def assemble(st, n_chunks=len(slices)):
            st["frame"] = np.vstack([st[f"tx_{i}"] for i in range(n_chunks)])

        b.cpu("assemble", assemble, work_for_elems(self.n_packets * (n + self.cp_len)), after=cp_names)
        return b.build()


#: ``APPS["TX"]``, CLI-sized (see :mod:`repro.apps.registry`)
APP_ENTRY = AppEntry("TX", partial(WifiTx, batch=5), "WiFi transmitter baseband chain")
