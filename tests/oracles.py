"""Independent scalar reference implementations used as test oracles.

Everything here works one parameter at a time with plain Python floats
(IEEE-754 double), casting to float32 exactly where the library's
arithmetic model rounds, so comparisons can demand bit equality. The
draw scheme is re-derived from its stated definition with Python
integers rather than vectorized uint64 math, and the checkpoint container
is read from its format definition with ``struct`` and ``json``.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def stream_key(seed: int, tensor_name: str, lane: int) -> int:
    k = mix64((seed + GOLDEN) & MASK64)
    k = mix64(k ^ fnv1a64(tensor_name))
    return mix64(k ^ lane)


def uniform01(key: int, count: int) -> list[float]:
    return [
        (mix64((key + (i + 1) * GOLDEN) & MASK64) >> 11) * 2.0**-53
        for i in range(count)
    ]


def half_to_float(bits: int) -> float:
    """Decode one IEEE-754 binary16 bit pattern (from the format definition)."""
    sign = -1.0 if bits & 0x8000 else 1.0
    exponent = (bits >> 10) & 0x1F
    fraction = bits & 0x3FF
    if exponent == 0:
        return sign * fraction * 2.0**-24
    if exponent == 0x1F:
        return sign * float("inf") if fraction == 0 else float("nan")
    return sign * (1.0 + fraction / 1024.0) * 2.0 ** (exponent - 15)


def read_reference(path) -> tuple[dict[str, tuple[str, tuple[int, ...], np.ndarray]], dict[str, str]]:
    """A checkpoint's tensors (name -> stored dtype, shape, float32 values) and its metadata.

    Read from the container's definition: a little-endian u64 header
    length, a UTF-8 JSON header, then a payload that the header's
    ``data_offsets`` index entirely, each byte by exactly one tensor. It
    applies the package's documented limits too: F32 and F16 only, a header
    of at most 100 MB with unique keys, string-to-string metadata and
    finite values. Any violation is a ValueError.
    """
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise ValueError("file shorter than the length prefix")
    (header_len,) = struct.unpack_from("<Q", data)
    if header_len > 100_000_000 or 8 + header_len > len(data):
        raise ValueError(f"header length {header_len} out of range")

    def unique(pairs):
        if len({key for key, _ in pairs}) != len(pairs):
            raise ValueError("duplicate header key")
        return dict(pairs)

    header = json.loads(data[8 : 8 + header_len].decode("utf-8"), object_pairs_hook=unique)
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    metadata = header.pop("__metadata__", {})
    if not isinstance(metadata, dict) or not all(isinstance(value, str) for value in metadata.values()):
        raise ValueError("metadata must map strings to strings")

    payload = data[8 + header_len :]
    itemsize = {"F32": 4, "F16": 2}
    entries = []
    for name, info in header.items():
        if not isinstance(info, dict) or info.get("dtype") not in itemsize:
            raise ValueError(f"{name}: not an entry of a supported dtype")
        shape, offsets = info.get("shape"), info.get("data_offsets")
        if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
            raise ValueError(f"{name}: bad shape")
        if not (isinstance(offsets, list) and len(offsets) == 2 and all(type(o) is int for o in offsets)
                and 0 <= offsets[0] <= offsets[1]):
            raise ValueError(f"{name}: bad data_offsets")
        if offsets[1] - offsets[0] != math.prod(shape) * itemsize[info["dtype"]]:
            raise ValueError(f"{name}: data_offsets do not match the shape")
        entries.append((offsets[0], offsets[1], name, info["dtype"], tuple(shape)))

    position = 0
    for begin, end, name, *_ in sorted(entries):
        if begin != position:
            raise ValueError(f"{name}: payload not entirely indexed")
        position = end
    if position != len(payload):
        raise ValueError("payload not entirely indexed")

    tensors = {}
    for begin, end, name, dtype, shape in entries:
        raw = payload[begin:end]
        if dtype == "F32":
            values = list(struct.unpack(f"<{len(raw) // 4}f", raw))
        else:
            values = [half_to_float(bits) for bits in struct.unpack(f"<{len(raw) // 2}H", raw)]
        if not all(math.isfinite(value) for value in values):
            raise ValueError(f"{name}: non-finite value")
        tensors[name] = (dtype, shape, np.array(values, dtype=np.float32).reshape(shape))
    return tensors, metadata


def f32(value: float) -> float:
    return float(np.float32(value))


def scaled_sum(vectors: list[list[float]], lam: float) -> list[float]:
    """lam * elementwise sum, double accumulation, single float32 round."""
    size = len(vectors[0])
    out = []
    for p in range(size):
        acc = 0.0
        for vec in vectors:
            acc = acc + float(vec[p])
        out.append(f32(lam * acc))
    return out


def merge_ta(vectors: list[list[float]], lam: float, **_) -> list[float]:
    return scaled_sum(vectors, lam)


def merge_dare(
    vectors: list[list[float]],
    lam: float,
    drop_rate: float,
    seed: int,
    tensor_name: str,
    task_indices: list[int],
    **_,
) -> list[float]:
    inv_keep = 1.0 / (1.0 - drop_rate)
    masked = []
    for vec, index in zip(vectors, task_indices):
        draws = uniform01(stream_key(seed, tensor_name, index), len(vec))
        masked.append(
            [f32(float(v) * inv_keep) if u >= drop_rate else 0.0 for v, u in zip(vec, draws)]
        )
    return scaled_sum(masked, lam)


def _sign(value: float) -> float:
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    return 0.0


def trim_keep_top(vec: list[float], keep: int) -> list[float]:
    order = sorted(range(len(vec)), key=lambda i: (-abs(vec[i]), i))
    kept = set(order[:keep])
    return [float(v) if i in kept else 0.0 for i, v in enumerate(vec)]


def merge_ties(vectors: list[list[float]], lam: float, keep_fraction: float, **_) -> list[float]:
    size = len(vectors[0])
    if size == 0:
        return []
    keep = min(size, max(1, int(np.ceil(keep_fraction * size - 1e-9))))
    trimmed = [trim_keep_top(vec, keep) for vec in vectors]
    out = []
    for p in range(size):
        total = 0.0
        for t in trimmed:
            total = total + t[p]
        elected = _sign(total)
        agree_sum, agree_count = 0.0, 0
        for t in trimmed:
            if _sign(t[p]) == elected:
                agree_sum = agree_sum + t[p]
                agree_count += 1
        mean = agree_sum / agree_count if agree_count else 0.0
        out.append(f32(lam * mean))
    return out


def merge_breadcrumbs(
    vectors: list[list[float]], lam: float, beta: float, gamma: float, **_
) -> list[float]:
    size = len(vectors[0])
    n_small = int(np.floor(beta * size + 1e-9))
    n_large = int(np.floor(gamma * size + 1e-9))
    masked = []
    for vec in vectors:
        order = sorted(range(size), key=lambda i: (abs(vec[i]), i))
        dropped = set(order[:n_small]) | set(order[size - n_large :] if n_large else [])
        masked.append([0.0 if i in dropped else float(v) for i, v in enumerate(vec)])
    return scaled_sum(masked, lam)


def merge_magmax(vectors: list[list[float]], lam: float, **_) -> list[float]:
    out = []
    for p in range(len(vectors[0])):
        best = 0
        for t in range(1, len(vectors)):
            if abs(vectors[t][p]) > abs(vectors[best][p]):
                best = t
        out.append(f32(lam * float(vectors[best][p])))
    return out


MERGES = {
    "task_arithmetic": merge_ta,
    "dare": merge_dare,
    "ties": merge_ties,
    "breadcrumbs": merge_breadcrumbs,
    "magmax": merge_magmax,
}


def pool_members(
    members: list[list[float]], pooling: str, seed: int, tensor_name: str
) -> list[float]:
    count = len(members)
    size = len(members[0])
    if pooling == "avg":
        out = []
        for p in range(size):
            acc = 0.0
            for member in members:
                acc = acc + float(member[p])
            out.append(f32(acc / count))
        return out
    if pooling == "random":
        draws = uniform01(stream_key(seed, tensor_name, 0), size)
        return [
            float(members[min(int(u * count), count - 1)][p]) for p, u in enumerate(draws)
        ]
    if pooling == "magmax":
        out = []
        for p in range(size):
            best = 0
            for m in range(1, count):
                if abs(members[m][p]) > abs(members[best][p]):
                    best = m
            out.append(float(members[best][p]))
        return out
    raise AssertionError(pooling)


def weave_naive(
    pretrained: dict[str, list[float]],
    finetuned: list[dict[str, list[float]]],
    method: str,
    params: dict[str, float],
    seed: int,
    lambdas: list[float],
    pooling: str,
    include_deltas: bool,
    pool_seed: int | None = None,
) -> dict[str, list[float]]:
    """Materialize every member in full, then pool per parameter."""
    merge = MERGES[method]
    pool_seed = seed if pool_seed is None else pool_seed
    task_indices = list(range(1, len(finetuned) + 1))
    out = {}
    for name in sorted(pretrained):
        base = pretrained[name]
        deltas = [
            [float(np.float32(ft[name][p]) - np.float32(base[p])) for p in range(len(base))]
            for ft in finetuned
        ]
        members = [list(d) for d in deltas] if include_deltas else []
        for lam in lambdas:
            members.append(
                merge(
                    deltas,
                    lam,
                    seed=seed,
                    tensor_name=name,
                    task_indices=task_indices,
                    **params,
                )
            )
        pooled = pool_members(members, pooling, pool_seed, name)
        out[name] = [
            float(np.float32(base[p]) + np.float32(pooled[p])) for p in range(len(base))
        ]
    return out
