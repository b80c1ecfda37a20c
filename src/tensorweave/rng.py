"""Position-derived randomness shared by stochastic merges and pooling.

Draws are a pure function of (seed, tensor name, lane, element index), so
any execution order — sequential, threaded, or chunked — produces the same
values. The scheme, fixed as a compatibility contract:

    key   = mix(mix(seed + GOLDEN) ^ fnv1a64(tensor_name))
    key   = mix(key ^ lane)
    u_i   = (mix(key + (i + 1) * GOLDEN) >> 11) * 2**-53      # i = flat index

where ``mix`` is the splitmix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.
Lanes separate consumers sharing a seed: per-task-vector dropout uses the
1-based task index, per-element member selection uses lane 0. Draws are
made in blocks of 32K, whose temporaries stay in cache; each block starts
from its first index, so the bits are those of one pass.
"""

from __future__ import annotations

import numbers
from typing import Iterator

import numpy as np

__all__ = ["stream_key", "uniform01"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_BLOCK = 1 << 15  # elements per block: a block of uint64 draws is 256 KiB, which stays in a 2 MiB L2
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)  # (i + 1) * GOLDEN mod 2**64


def _blocks(size: int) -> Iterator[slice]:
    """The slices that cover ``size`` elements in blocks of ``_BLOCK``, in order; an elementwise pass made block
    by block keeps its operands in cache."""
    return (slice(start, min(start + _BLOCK, size)) for start in range(0, size, _BLOCK))


def _mix64(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


def stream_key(seed: int, tensor_name: str, lane: int = 0) -> int:
    """Derive the 64-bit stream key for one (seed, tensor, lane) triple."""
    _check_seed(seed)
    if lane < 0:
        raise ValueError(f"lane must be non-negative, got {lane}")
    key = _mix64((seed + _GOLDEN) & _MASK64)
    key = _mix64(key ^ _fnv1a64(tensor_name))
    return _mix64(key ^ (lane & _MASK64))


def uniform01(key: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws for flat element indices 0..count-1.

    Vectorized splitmix64: the i-th draw depends only on (key, i).
    """
    out = np.empty(count, dtype=np.float64)
    for part in _blocks(count):
        z = _STEPS[: part.stop - part.start] + np.uint64((key + part.start * _GOLDEN) & _MASK64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
        np.multiply(z >> np.uint64(11), 2.0**-53, out=out[part])
    return out
