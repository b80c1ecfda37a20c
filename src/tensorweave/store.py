"""Checkpoint container I/O and the in-memory tensor-map representation.

The on-disk container is the common single-file checkpoint layout:

    bytes 0..7    little-endian u64 ``N`` = header length
    bytes 8..8+N  UTF-8 JSON object: tensor name -> {"dtype", "shape",
                  "data_offsets"}, plus an optional "__metadata__"
                  string-to-string map
    rest          raw little-endian tensor payload, row-major, offsets
                  relative to the payload start

Only F32 and F16 payloads are supported. All values are held in memory as
float32 regardless of the stored dtype; F16 widens exactly on load. Each
tensor is read into its own buffer, so a loaded map holds its float32
values and no other bytes of the file. Writing
the same map twice yields byte-identical files (names are serialized in
lexicographic order with contiguous offsets from zero).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "CheckpointError",
    "FingerprintMismatch",
    "Tensor",
    "TensorMap",
    "read_checkpoint",
    "write_checkpoint",
]

_DTYPES = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2")}
_METADATA_KEY = "__metadata__"
_NON_FINITE = "non-finite value (NaN or Inf)"


class CheckpointError(Exception):
    """Malformed checkpoint container or non-finite tensor payload."""


class FingerprintMismatch(Exception):
    """Two tensor maps do not share names and shapes."""


@dataclass(frozen=True)
class Tensor:
    """A named checkpoint entry: float32 values plus the container dtype.

    The one place values become read-only, C-ordered, finite float32;
    ``error`` is the message a NaN or Inf raises, naming tensor and cause.
    """

    values: np.ndarray
    stored_dtype: str = "F32"
    error: InitVar[str] = _NON_FINITE

    def __post_init__(self, error: str) -> None:
        if self.stored_dtype not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {self.stored_dtype!r}")
        arr = np.asarray(self.values)
        if arr.dtype.kind not in "fiu":
            raise TypeError(f"expected numeric values, got dtype {arr.dtype}")
        if arr.dtype != np.float32 or not arr.flags.c_contiguous:
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
            arr = np.asarray(arr, dtype=np.float32, order="C")
        if not np.isfinite(arr).all():
            raise CheckpointError(error)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return int(self.values.size)


class TensorMap:
    """Ordered name -> Tensor mapping; iteration is lexicographic by name.

    Instances are value-immutable after construction and safe to share
    across threads.
    """

    __slots__ = ("_entries", "metadata")

    def __init__(
        self,
        tensors: Mapping[str, Tensor | np.ndarray] | None = None,
        metadata: Mapping[str, str] | None = None,
    ) -> None:
        entries: dict[str, Tensor] = {}
        for name in sorted(tensors or {}):
            if name == _METADATA_KEY:
                raise CheckpointError(f"{_METADATA_KEY!r} is reserved and cannot name a tensor")
            value = tensors[name]
            entries[name] = value if isinstance(value, Tensor) else Tensor(value, error=f"{name}: {_NON_FINITE}")
        self._entries = entries
        self.metadata = dict(metadata) if metadata else {}

    @property
    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def array(self, name: str) -> np.ndarray:
        return self._entries[name].values

    def total_elements(self) -> int:
        return sum(t.size for t in self._entries.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        if self.names != other.names or self.metadata != other.metadata:
            return False
        for name, tensor in self.items():
            theirs = other[name]
            if tensor.stored_dtype != theirs.stored_dtype or tensor.shape != theirs.shape:
                return False
            if tensor.values.tobytes() != theirs.values.tobytes():
                return False
        return True

    def __repr__(self) -> str:
        return f"TensorMap({len(self._entries)} tensors, {self.total_elements()} elements)"


def require_compatible(reference: TensorMap, candidate: TensorMap, label: str = "input") -> None:
    """Raise FingerprintMismatch naming the first offending tensor."""
    ref_names, cand_names = set(reference.names), set(candidate.names)
    missing = sorted(ref_names - cand_names)
    if missing:
        raise FingerprintMismatch(f"{label}: missing tensor {missing[0]!r}")
    extra = sorted(cand_names - ref_names)
    if extra:
        raise FingerprintMismatch(f"{label}: unexpected tensor {extra[0]!r}")
    for name, tensor in reference.items():
        if candidate[name].shape != tensor.shape:
            raise FingerprintMismatch(
                f"{label}: tensor {name!r} has shape {candidate[name].shape}, "
                f"expected {tensor.shape}"
            )


def read_checkpoint(path: str | Path) -> TensorMap:
    """Load a checkpoint file into a TensorMap.

    F16 payloads widen to float32; the stored dtype is kept per tensor.
    Raises CheckpointError on malformed headers, overlapping or
    out-of-bounds offsets, unsupported dtypes, and non-finite values.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < 8:
            raise CheckpointError(f"{path}: malformed header: file shorter than the 8-byte length prefix")
        (header_len,) = struct.unpack("<Q", handle.read(8))
        if 8 + header_len > size:
            raise CheckpointError(f"{path}: malformed header: declared length {header_len} exceeds file size")
        try:
            text = handle.read(header_len).decode("utf-8")
            header = json.loads(text, object_pairs_hook=lambda pairs: _unique(path, pairs))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed header JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: malformed header JSON: top level must be an object")

        metadata = header.pop(_METADATA_KEY, {})
        if not isinstance(metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
        ):
            raise CheckpointError(f"{path}: malformed header: {_METADATA_KEY} must map strings to strings")

        spans: list[tuple[int, int, str, str, list[int]]] = []
        for name, entry in header.items():
            dtype, shape, begin, end = _parse_entry(path, name, entry)
            expected = math.prod(shape) * _DTYPES[dtype].itemsize
            if end - begin != expected:
                raise CheckpointError(
                    f"{path}: tensor {name!r}: data_offsets span {end - begin} bytes, expected {expected}"
                )
            if 8 + header_len + end > size:
                raise CheckpointError(f"{path}: tensor {name!r}: data_offsets out of bounds")
            spans.append((begin, end, name, dtype, shape))

        spans.sort()
        for (b0, e0, n0, *_), (b1, e1, n1, *_) in zip(spans, spans[1:]):
            if b1 < e0:
                raise CheckpointError(f"{path}: tensors {n0!r} and {n1!r} have overlapping data_offsets")

        tensors: dict[str, Tensor] = {}
        for begin, _, name, dtype, shape in spans:
            values = np.empty(shape, dtype=_DTYPES[dtype])
            handle.seek(8 + header_len + begin)
            handle.readinto(values)
            tensors[name] = Tensor(values, dtype, f"{path}: tensor {name!r}: {_NON_FINITE}")

    return TensorMap(tensors, metadata=metadata)


def _unique(path, pairs: list[tuple[str, object]]) -> dict:
    """A header object from its key/value pairs; ``json.loads`` alone would keep the last of equal keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CheckpointError(f"{path}: malformed header: duplicate key {key!r}")
        obj[key] = value
    return obj


def _parse_entry(path, name, entry) -> tuple[str, list[int], int, int]:
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: tensor {name!r}: header entry must be an object")
    dtype = entry.get("dtype")
    if dtype not in _DTYPES:
        raise CheckpointError(f"{path}: tensor {name!r}: unsupported dtype {dtype!r}")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise CheckpointError(f"{path}: tensor {name!r}: shape must be a list of non-negative integers")
    offsets = entry.get("data_offsets")
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or not all(type(o) is int and o >= 0 for o in offsets)
        or offsets[0] > offsets[1]
    ):
        raise CheckpointError(f"{path}: tensor {name!r}: data_offsets must be [begin, end] with begin <= end")
    return dtype, shape, offsets[0], offsets[1]


def write_checkpoint(
    tensor_map: TensorMap,
    path: str | Path,
    dtype_policy: str = "force_f32",
) -> None:
    """Serialize a TensorMap; byte-identical output for identical inputs.

    ``force_f32`` (the default) writes every payload as F32 and records
    the original dtype of narrowed tensors under metadata key
    ``dtype.<name>``; ``keep`` writes each tensor in its stored dtype.
    The bytes go to a temporary file beside ``path`` that replaces it only
    once complete, so a failed write leaves no partial checkpoint behind.
    """
    if dtype_policy not in ("keep", "force_f32"):
        raise ValueError(f"dtype_policy must be 'keep' or 'force_f32', got {dtype_policy!r}")

    metadata = dict(tensor_map.metadata)
    header: dict[str, object] = {}
    payloads: list[np.ndarray] = []
    cursor = 0
    for name, tensor in tensor_map.items():
        out_dtype = tensor.stored_dtype if dtype_policy == "keep" else "F32"
        if dtype_policy == "force_f32" and tensor.stored_dtype != "F32":
            metadata[f"dtype.{name}"] = tensor.stored_dtype
        payload = tensor.values
        if out_dtype == "F16":
            with np.errstate(over="ignore"):  # overflow checked explicitly below
                payload = payload.astype(np.float16)
            if not np.isfinite(payload).all():
                raise CheckpointError(f"tensor {name!r}: value overflows F16 under dtype_policy 'keep'")
        header[name] = {
            "dtype": out_dtype,
            "shape": list(tensor.shape),
            "data_offsets": [cursor, cursor + payload.nbytes],
        }
        payloads.append(payload)
        cursor += payload.nbytes
    if metadata:
        header[_METADATA_KEY] = metadata

    encoded = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    target = Path(path)
    partial = target.with_name(f".{target.name}.{os.urandom(8).hex()}.partial")
    try:
        with open(partial, "xb") as handle:
            handle.write(struct.pack("<Q", len(encoded)))
            handle.write(encoded)
            for payload in payloads:
                handle.write(payload)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
