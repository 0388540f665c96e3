"""Compute kernels: the functional payloads behind every libCEDR API.

Submodules group kernels by domain (FFT, ZIP, GEMM, convolution, WiFi
baseband, Pulse-Doppler radar, lane-detection vision); ``registry`` maps
(API, PE kind) pairs onto concrete implementations for the runtime.
"""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "fft": (), "zip_": (), "mmult": (), "conv2d": (), "wifi": (), "radar": (), "vision": (),
    "registry": (),
})
