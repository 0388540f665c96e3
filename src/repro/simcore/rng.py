"""Deterministic random-number utilities for reproducible simulations.

All stochastic behaviour in the reproduction (noise in per-task costs,
synthetic input frames, arrival jitter) flows through seeded
:class:`numpy.random.Generator` streams.  Child streams are derived from a
``(root seed, string key)`` pair so the same experiment configuration always
sees the same randomness regardless of the order in which subsystems ask for
their stream.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["child_rng"]


def child_rng(seed: int, key: str) -> np.random.Generator:
    """Derive an independent stream keyed by ``(seed, key)``.

    The key is CRC-hashed into the seed sequence, so cost-noise and
    data-synthesis streams stay decoupled: drawing more numbers from one
    never perturbs the other.  Every seed >= 0 is its own stream (a seed
    at or above 2**31 is not folded onto a lower one); a negative one
    raises ``ValueError``.
    """
    return np.random.default_rng([seed, zlib.crc32(key.encode("utf-8"))])
