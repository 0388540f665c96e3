"""WiFi RX: the receive-side counterpart of WiFi TX.

WiFi RX is part of the CEDR ecosystem's standard benchmark set (the
original CEDR paper evaluates both TX and RX chains).  It inverts the TX
pipeline: per received OFDM packet, strip the cyclic prefix, run a
128-point *forward* FFT back to subcarriers (the accelerable kernel),
extract the data carriers, hard-demodulate, deinterleave, and run the
hard-decision Viterbi decoder and descrambler (the heavyweight non-kernel
region - Viterbi is the classic CPU-bound stage of a software receiver).

Per frame: ``n_packets`` FFT-128 kernels plus substantial CPU work, making
RX the most non-kernel-heavy application in the suite - a useful stressor
for the thread-contention mechanisms (DESIGN.md §3, decision 2).

The app's input is a *channel-impaired* TX frame (AWGN at configurable
SNR); its output is the recovered payload bits plus a bit-error count
against the transmitted truth, so tests can assert the FEC actually earns
its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.core.handles import wait_all
from repro.kernels import wifi
from repro.kernels.fft import fft as cpu_fft
from repro.kernels.fft import ifft as cpu_ifft

from .base import CedrApplication, Variant, chunk_slices, work_for_elems
from .registry import AppEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.dag import DagProgram

__all__ = ["WifiRx", "RxResult"]

#: Viterbi + demap + descramble cost per payload bit at 1 GHz (seconds).
#: The 64-state trellis update dominates; this is the slow, branchy C code
#: a portable receiver ships.
_DECODE_NS_PER_BIT = 9000.0


@dataclass(frozen=True)
class RxResult:
    """Decoded payload plus ground-truth comparison."""

    bits: np.ndarray          # (n_packets, 64) recovered payload
    bit_errors: int           # vs the transmitted truth
    packet_errors: int        # packets with any residual error

    @property
    def bit_error_rate(self) -> float:
        return self.bit_errors / self.bits.size if self.bits.size else 0.0


class WifiRx(CedrApplication):
    """WiFi receive chain for one frame of OFDM packets."""

    name = "RX"
    default_variant = "blocking"
    dag_params = ("n_packets", "batch", "payload_bits")

    def __init__(
        self,
        n_packets: int = 100,
        batch: int = 1,
        scheme: str = "qpsk",
        cp_len: int = 32,
        snr_db: float = 12.0,
        scrambler_seed: int = 0b1011101,
    ) -> None:
        self.n_packets = n_packets
        self.batch = batch
        self.scheme = scheme
        self.cp_len = cp_len
        self.snr_db = snr_db
        self.scrambler_seed = scrambler_seed
        self.payload_bits = 64

    @property
    def frame_mb(self) -> float:
        """Received complex64 samples per frame, in megabits."""
        samples = self.n_packets * (wifi.N_SUBCARRIERS + self.cp_len)
        return samples * 8 * 8 / 1e6

    # ------------------------------------------------------------------ #
    # input synthesis: transmit + channel
    # ------------------------------------------------------------------ #

    def input_shapes(self) -> dict[str, tuple[tuple[int, ...], Any]]:
        samples = wifi.N_SUBCARRIERS + self.cp_len
        return {
            "rx": ((self.n_packets, samples), np.complex128),
            "truth": ((self.n_packets, self.payload_bits), np.uint8),
        }

    def make_input(self, rng: np.random.Generator) -> dict[str, Any]:
        """Synthesize a noisy received frame (the RF front-end stand-in)."""
        truth = rng.integers(0, 2, (self.n_packets, self.payload_bits)).astype(np.uint8)
        grids = []
        for row in truth:
            scrambled = wifi.scramble(row, self.scrambler_seed)
            coded = wifi.conv_encode(scrambled, terminate=False)
            interleaved = wifi.interleave(coded, coded.size)
            symbols = wifi.modulate(interleaved, self.scheme)
            grids.append(wifi.ofdm_modulate(symbols))
        clean = wifi.add_cyclic_prefix(cpu_ifft(np.stack(grids)), self.cp_len)
        # AWGN relative to the mean symbol power of the occupied bins
        signal_power = float(np.mean(np.abs(clean) ** 2))
        noise_power = signal_power / (10.0 ** (self.snr_db / 10.0))
        noise = rng.normal(0, np.sqrt(noise_power / 2), clean.shape) + 1j * rng.normal(
            0, np.sqrt(noise_power / 2), clean.shape
        )
        return {"rx": clean + noise, "truth": truth}

    # ------------------------------------------------------------------ #
    # decode stages shared by all forms
    # ------------------------------------------------------------------ #

    def _strip_cp(self, frame: np.ndarray) -> np.ndarray:
        return frame[:, self.cp_len:]

    def _decode_grids(self, grids: np.ndarray) -> np.ndarray:
        """Subcarrier grids -> payload bits (demap/deinterleave/Viterbi)."""
        out = np.empty((grids.shape[0], self.payload_bits), dtype=np.uint8)
        for i, grid in enumerate(grids):
            data = grid[wifi.DATA_CARRIERS]
            bits = wifi.demodulate_hard(data, self.scheme)
            coded = wifi.deinterleave(bits, bits.size)
            decoded = wifi.viterbi_decode(coded, terminated=False)
            out[i] = wifi.scramble(decoded, self.scrambler_seed)
        return out

    def _decode_work(self, n_packets: int) -> float:
        return n_packets * self.payload_bits * _DECODE_NS_PER_BIT * 1e-9

    def _score(self, bits: np.ndarray, truth: np.ndarray) -> RxResult:
        errors = bits != truth
        return RxResult(
            bits=bits,
            bit_errors=int(errors.sum()),
            packet_errors=int(errors.any(axis=1).sum()),
        )

    def reference(self, inputs: dict[str, Any]) -> RxResult:
        time_syms = self._strip_cp(inputs["rx"])
        grids = cpu_fft(time_syms)
        return self._score(self._decode_grids(grids), inputs["truth"])

    # ------------------------------------------------------------------ #
    # API-based form
    # ------------------------------------------------------------------ #

    def api_main(
        self, lib, inputs: dict[str, Any], variant: Variant = "blocking"
    ) -> Generator:
        ex = lib.executes
        frame = inputs["rx"]
        slices = chunk_slices(self.n_packets, self.batch)

        yield from lib.local_work(
            work_for_elems(frame.size)
        )  # CP strip (strided copy)
        no_cp = self._strip_cp(frame) if ex else frame[:, self.cp_len:]

        if variant == "blocking":
            grid_chunks = []
            for sl in slices:
                chunk = no_cp[sl]
                grid_chunks.append(self._or_fallback((yield from lib.fft(chunk)), chunk, ex))
        else:
            reqs = []
            for sl in slices:
                reqs.append((yield from lib.fft_nb(no_cp[sl])))
            outs = yield from wait_all(reqs)
            grid_chunks = [self._or_fallback(o, no_cp[sl], ex)
                           for o, sl in zip(outs, slices)]

        bits_chunks = []
        for sl, grids in zip(slices, grid_chunks):
            count = sl.stop - sl.start
            yield from lib.local_work(self._decode_work(count))
            if ex:
                bits_chunks.append(self._decode_grids(grids))
        if not ex:
            return None
        return self._score(np.vstack(bits_chunks), inputs["truth"])

    # ------------------------------------------------------------------ #
    # DAG-based form
    # ------------------------------------------------------------------ #

    def dag_state(self, inputs: dict[str, Any]) -> dict[str, Any]:
        state: dict[str, Any] = {"truth": inputs["truth"]}
        no_cp = self._strip_cp(inputs["rx"])
        for i, sl in enumerate(chunk_slices(self.n_packets, self.batch)):
            state[f"rx_{i}"] = no_cp[sl]
        return state

    def dag_program(self) -> DagProgram:
        from repro.dag import DagBuilder

        slices = chunk_slices(self.n_packets, self.batch)

        b = DagBuilder("RX")
        decode_names = []
        for i, sl in enumerate(slices):
            count = sl.stop - sl.start
            b.kernel(
                f"fft_{i}", "fft", {"n": wifi.N_SUBCARRIERS, "batch": count},
                [f"rx_{i}"], f"grid_{i}",
            )

            def decode(st, i=i):
                st[f"bits_{i}"] = self._decode_grids(st[f"grid_{i}"])

            decode_names.append(
                b.cpu(f"dec_{i}", decode, self._decode_work(count), after=[f"fft_{i}"])
            )

        def assemble(st, n_chunks=len(slices)):
            bits = np.vstack([st[f"bits_{i}"] for i in range(n_chunks)])
            st["result"] = self._score(bits, st["truth"])

        b.cpu("assemble", assemble,
              work_for_elems(self.n_packets * self.payload_bits), after=decode_names)
        return b.build()


#: ``APPS["RX"]``, CLI-sized (see :mod:`repro.apps.registry`)
APP_ENTRY = AppEntry("RX", partial(WifiRx, batch=5), "WiFi receiver baseband chain (CPU-heavy)")
