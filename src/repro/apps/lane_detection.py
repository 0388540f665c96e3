"""Lane Detection: the paper's autonomous-vehicle application.

A "convolution intensive routine" that performs its convolutions in the
frequency domain (FFT + pointwise ZIP, per the paper's Abtahi et al.
reference).  The pipeline: grayscale -> Gaussian blur -> Sobel x / Sobel y
-> gradient magnitude -> lane-emphasis smoothing -> threshold + ROI ->
Hough line fit.  Four FFT-domain convolutions, each transforming its input
tile *and* its kernel tile forward and the product back:

    4 convs x 2 forward 2-D FFTs + 4 convs x 1 inverse 2-D FFT

At the paper's 960x540 frame the padded tile is 1024x1024, so one 2-D
transform is 2048 1-D 1024-point FFTs and the frame totals 16384 forward
and 8192 inverse 1-D FFTs - exactly the instance counts of Section III.
``batch`` groups tile rows per schedulable task (``batch=1`` is
paper-granularity; the default 64 keeps sweeps tractable).

LD's API form uses the *non-blocking* APIs with phase-level windows: all
row-FFT tasks of a transform go in flight together, which is what lets it
saturate the eight FFT accelerators of the Fig. 9/10 ZCU102 configuration.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.core.handles import wait_all
from repro.kernels import vision
from repro.kernels.conv2d import conv2d_fft, next_pow2

from .base import CedrApplication, Variant, chunk_slices, stand_in, work_for_elems
from .registry import AppEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.dag import DagBuilder, DagProgram

__all__ = ["LaneDetection"]


class LaneDetection(CedrApplication):
    """Frequency-domain lane detection over one camera frame."""

    name = "LD"
    default_variant = "nonblocking"
    dag_params = ("height", "width", "batch", "tile")

    def __init__(self, height: int = 540, width: int = 960, batch: int = 64) -> None:
        self.height = height
        self.width = width
        self.batch = batch
        self.kernels = {
            "blur": vision.gaussian_kernel(5, 1.4),
            "gx": vision.sobel_kernels()[0],
            "gy": vision.sobel_kernels()[1],
            "emph": vision.gaussian_kernel(5, 2.0),
        }
        ksize = max(k.shape[0] for k in self.kernels.values())
        self.tile = next_pow2(max(height + ksize - 1, width + ksize - 1))

    @property
    def frame_mb(self) -> float:
        """RGB byte frame in megabits (the camera's output)."""
        return self.height * self.width * 3 * 8 / 1e6

    def input_shapes(self) -> dict[str, tuple[tuple[int, ...], Any]]:
        return {"rgb": ((self.height, self.width, 3), np.float64)}

    def make_input(self, rng: np.random.Generator) -> dict[str, Any]:
        return {"rgb": vision.synthesize_road_frame(self.height, self.width, rng)}

    # -- shared pipeline pieces -------------------------------------------- #

    def _pad_tile(self, img: np.ndarray) -> np.ndarray:
        tile = np.zeros((self.tile, self.tile), dtype=np.complex128)
        tile[: img.shape[0], : img.shape[1]] = img
        return tile

    def _crop(self, full: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        ph, pw = kernel.shape[0] // 2, kernel.shape[1] // 2
        return full[ph : ph + self.height, pw : pw + self.width]

    def _postprocess(self, emph: np.ndarray) -> tuple:
        edges = vision.threshold_edges(emph) & vision.roi_mask(emph.shape)
        acc, thetas, rhos = vision.hough_lines(edges)
        return vision.extract_lanes(acc, thetas, rhos)

    def reference(self, inputs: dict[str, Any]) -> tuple:
        """Golden result: (left lane, right lane) estimates."""
        gray = vision.to_grayscale(inputs["rgb"])
        blur = conv2d_fft(gray, self.kernels["blur"])
        gxr = conv2d_fft(blur, self.kernels["gx"])
        gyr = conv2d_fft(blur, self.kernels["gy"])
        mag = vision.gradient_magnitude(gxr, gyr)
        emph = conv2d_fft(mag, self.kernels["emph"])
        return self._postprocess(emph)

    # ------------------------------------------------------------------ #
    # API-based form (non-blocking phase windows)
    # ------------------------------------------------------------------ #

    def _fft2_api(
        self, lib, tile_arr: np.ndarray, variant: Variant, inverse: bool = False
    ) -> Generator:
        """One 2-D transform as two phases of batched 1-D tasks."""
        ex = lib.executes
        slices = chunk_slices(self.tile, self.batch)
        blocking_call = lib.ifft if inverse else lib.fft
        nb_call = lib.ifft_nb if inverse else lib.fft_nb

        def run_phase(data):
            """Transform all rows of *data*; returns the row-transformed array."""
            if variant == "blocking":
                chunks = []
                for sl in slices:
                    chunk = data[sl]
                    out = yield from blocking_call(chunk)
                    chunks.append(self._or_fallback(out, chunk, ex))
            else:
                reqs = []
                for sl in slices:
                    reqs.append((yield from nb_call(data[sl])))
                outs = yield from wait_all(reqs)
                chunks = [self._or_fallback(o, data[sl], ex) for o, sl in zip(outs, slices)]
            return np.vstack(chunks) if ex else data

        rows = yield from run_phase(tile_arr)
        yield from lib.local_work(work_for_elems(self.tile * self.tile))  # corner turn
        rows_t = np.ascontiguousarray(rows.T) if ex else rows
        cols = yield from run_phase(rows_t)
        return cols.T if ex else tile_arr

    def _conv_api(self, lib, img: np.ndarray, kernel: np.ndarray, variant: Variant) -> Generator:
        ex = lib.executes
        yield from lib.local_work(work_for_elems(self.tile * self.tile))  # pad
        img_tile = self._pad_tile(img) if ex else stand_in((self.tile, self.tile))
        ker_tile = self._pad_tile(kernel) if ex else img_tile
        img_spec = yield from self._fft2_api(lib, img_tile, variant)
        ker_spec = yield from self._fft2_api(lib, ker_tile, variant)

        slices = chunk_slices(self.tile, self.batch)
        if variant == "blocking":
            prods = []
            for sl in slices:
                a, b2 = img_spec[sl], ker_spec[sl]
                out = yield from lib.zip(a, b2)
                prods.append(self._or_fallback(out, a, ex))
        else:
            reqs = []
            for sl in slices:
                reqs.append((yield from lib.zip_nb(img_spec[sl], ker_spec[sl])))
            outs = yield from wait_all(reqs)
            prods = [self._or_fallback(o, img_spec[sl], ex) for o, sl in zip(outs, slices)]
        prod = np.vstack(prods) if ex else img_tile

        full = yield from self._fft2_api(lib, prod, variant, inverse=True)
        yield from lib.local_work(work_for_elems(self.height * self.width))  # crop
        return self._crop(full.real, kernel) if ex else img

    def api_main(
        self, lib, inputs: dict[str, Any], variant: Variant = "nonblocking"
    ) -> Generator:
        ex = lib.executes
        yield from lib.local_work(work_for_elems(self.height * self.width * 3))
        gray = vision.to_grayscale(inputs["rgb"]) if ex else inputs["rgb"][..., 0]

        blur = yield from self._conv_api(lib, gray, self.kernels["blur"], variant)
        gxr = yield from self._conv_api(lib, blur, self.kernels["gx"], variant)
        gyr = yield from self._conv_api(lib, blur, self.kernels["gy"], variant)
        yield from lib.local_work(work_for_elems(self.height * self.width))
        mag = vision.gradient_magnitude(gxr, gyr) if ex else blur
        emph = yield from self._conv_api(lib, mag, self.kernels["emph"], variant)

        # threshold + ROI + Hough: pure CPU postprocessing on the app thread
        yield from lib.local_work(work_for_elems(self.height * self.width * 6))
        return self._postprocess(emph) if ex else None

    # ------------------------------------------------------------------ #
    # DAG-based form
    # ------------------------------------------------------------------ #

    def _dag_fft2(
        self, b: DagBuilder, prefix: str, src: str, dst: str,
        after: list[str], inverse: bool = False,
    ) -> list[str]:
        """Emit nodes for one 2-D transform of state[src] -> state[dst].

        Returns the node names the next stage must wait on.
        """
        api = "ifft" if inverse else "fft"
        slices = chunk_slices(self.tile, self.batch)

        def split(st, prefix=prefix, src=src, slices=slices):
            tile = st[src]
            for i, sl in enumerate(slices):
                st[f"{prefix}_r_{i}"] = tile[sl]

        b.cpu(f"{prefix}_split", split, work_for_elems(self.tile * self.tile), after=after)
        row_names = []
        for i, sl in enumerate(slices):
            rows = sl.stop - sl.start
            row_names.append(
                b.kernel(
                    f"{prefix}_row_{i}", api, {"n": self.tile, "batch": rows},
                    [f"{prefix}_r_{i}"], f"{prefix}_ro_{i}", after=[f"{prefix}_split"],
                )
            )

        def turn(st, prefix=prefix, slices=slices):
            full = np.vstack([st[f"{prefix}_ro_{i}"] for i in range(len(slices))])
            turned = np.ascontiguousarray(full.T)
            for i, sl in enumerate(slices):
                st[f"{prefix}_c_{i}"] = turned[sl]

        b.cpu(f"{prefix}_turn", turn, work_for_elems(self.tile * self.tile), after=row_names)
        col_names = []
        for i, sl in enumerate(slices):
            rows = sl.stop - sl.start
            col_names.append(
                b.kernel(
                    f"{prefix}_col_{i}", api, {"n": self.tile, "batch": rows},
                    [f"{prefix}_c_{i}"], f"{prefix}_co_{i}", after=[f"{prefix}_turn"],
                )
            )

        def join(st, prefix=prefix, dst=dst, slices=slices):
            full = np.vstack([st[f"{prefix}_co_{i}"] for i in range(len(slices))])
            st[dst] = full.T

        b.cpu(f"{prefix}_join", join, work_for_elems(self.tile * self.tile), after=col_names)
        return [f"{prefix}_join"]

    def _dag_conv(
        self, b: DagBuilder, prefix: str, src: str, kernel_name: str, dst: str,
        after: list[str],
    ) -> list[str]:
        """Emit nodes for one FFT-domain convolution stage."""

        def pad(st, prefix=prefix, src=src):
            st[f"{prefix}_imgtile"] = self._pad_tile(st[src])
            st[f"{prefix}_kertile"] = self._pad_tile(self.kernels[kernel_name])

        b.cpu(f"{prefix}_pad", pad, work_for_elems(self.tile * self.tile), after=after)
        img_done = self._dag_fft2(
            b, f"{prefix}_if", f"{prefix}_imgtile", f"{prefix}_ispec", [f"{prefix}_pad"]
        )
        ker_done = self._dag_fft2(
            b, f"{prefix}_kf", f"{prefix}_kertile", f"{prefix}_kspec", [f"{prefix}_pad"]
        )

        slices = chunk_slices(self.tile, self.batch)

        def split_specs(st, prefix=prefix, slices=slices):
            for i, sl in enumerate(slices):
                st[f"{prefix}_zi_{i}"] = st[f"{prefix}_ispec"][sl]
                st[f"{prefix}_zk_{i}"] = st[f"{prefix}_kspec"][sl]

        b.cpu(
            f"{prefix}_zsplit", split_specs, work_for_elems(self.tile * self.tile),
            after=img_done + ker_done,
        )
        zip_names = []
        for i, sl in enumerate(slices):
            rows = sl.stop - sl.start
            zip_names.append(
                b.kernel(
                    f"{prefix}_zip_{i}", "zip", {"n": rows * self.tile},
                    [f"{prefix}_zi_{i}", f"{prefix}_zk_{i}"], f"{prefix}_zo_{i}",
                    after=[f"{prefix}_zsplit"],
                )
            )

        def join_prod(st, prefix=prefix, slices=slices):
            st[f"{prefix}_prod"] = np.vstack(
                [st[f"{prefix}_zo_{i}"] for i in range(len(slices))]
            )

        b.cpu(f"{prefix}_zjoin", join_prod, work_for_elems(self.tile * self.tile), after=zip_names)
        inv_done = self._dag_fft2(
            b, f"{prefix}_inv", f"{prefix}_prod", f"{prefix}_full",
            [f"{prefix}_zjoin"], inverse=True,
        )

        def crop(st, prefix=prefix, dst=dst):
            st[dst] = self._crop(st[f"{prefix}_full"].real, self.kernels[kernel_name])

        b.cpu(f"{prefix}_crop", crop, work_for_elems(self.height * self.width), after=inv_done)
        return [f"{prefix}_crop"]

    def dag_state(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {"rgb": inputs["rgb"]}

    def dag_program(self) -> DagProgram:
        from repro.dag import DagBuilder

        b = DagBuilder("LD")

        def to_gray(st):
            st["gray"] = vision.to_grayscale(st["rgb"])

        b.cpu("gray", to_gray, work_for_elems(self.height * self.width * 3))
        blur_done = self._dag_conv(b, "blur", "gray", "blur", "blurimg", ["gray"])
        gx_done = self._dag_conv(b, "gx", "blurimg", "gx", "gximg", blur_done)
        gy_done = self._dag_conv(b, "gy", "blurimg", "gy", "gyimg", blur_done)

        def magnitude(st):
            st["mag"] = vision.gradient_magnitude(st["gximg"], st["gyimg"])

        b.cpu("mag", magnitude, work_for_elems(self.height * self.width), after=gx_done + gy_done)
        emph_done = self._dag_conv(b, "emph", "mag", "emph", "emphimg", ["mag"])

        def post(st):
            st["lanes"] = self._postprocess(st["emphimg"])

        b.cpu("post", post, work_for_elems(self.height * self.width * 6), after=emph_done)
        return b.build()


#: ``APPS["LD"]``, CLI-sized (see :mod:`repro.apps.registry`)
APP_ENTRY = AppEntry("LD", partial(LaneDetection, height=135, width=240, batch=32),
                     "Lane detection vision pipeline")
