"""Checkpoint container I/O and the in-memory tensor-map representation.

The on-disk container is the common single-file checkpoint layout:

    bytes 0..7    little-endian u64 ``N`` = header length
    bytes 8..8+N  UTF-8 JSON object: tensor name -> {"dtype", "shape",
                  "data_offsets"}, plus an optional "__metadata__"
                  string-to-string map
    rest          raw little-endian tensor payload, row-major, offsets
                  relative to the payload start

Only F32 and F16 payloads are supported. All values are held in memory as
float32 regardless of the stored dtype; F16 widens exactly on load. Writing
the same map twice yields byte-identical files (names are serialized in
lexicographic order with contiguous offsets from zero).

Since the header fixes every offset, neither side needs more than one
tensor at a time. The internal reader checks the whole header on open and
reads each tensor into its own buffer when asked, so it holds one tensor's
values at a time and a loaded map holds its float32 values and no other
bytes of the file. The internal writer lays out the header from names,
shapes and stored dtypes, then takes one payload at a time; it writes to a
temporary file that replaces the target only once complete.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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
_MAX_HEADER_LEN = 100_000_000  # the largest header the reference safetensors library accepts


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


@dataclass(frozen=True)
class _Entry:
    """One tensor's header entry: its stored dtype, shape and payload offset."""

    stored_dtype: str
    shape: tuple[int, ...]
    begin: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class _Reader:
    """An open checkpoint whose whole header was checked on open; tensors are read on demand.

    Items are header entries (stored dtype and shape, no values). ``tensor``
    and ``array`` read one tensor into a fresh buffer by a positional read,
    so threads may share a reader, and nothing else of the file is held.
    Close it, or use it as a context manager.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self._handle = open(path, "rb")
        try:
            self._start, self._entries, self.metadata = _parse_header(path, self._handle)
        except BaseException:
            self._handle.close()
            raise
        self.names = sorted(self._entries)

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._handle.close()

    def items(self) -> Iterator[tuple[str, _Entry]]:
        return ((name, self._entries[name]) for name in self.names)

    def __getitem__(self, name: str) -> _Entry:
        return self._entries[name]

    def array(self, name: str) -> np.ndarray:
        return self.tensor(name).values

    def tensor(self, name: str) -> Tensor:
        """Tensor ``name``, read from the file now: F16 widens exactly; a NaN, an Inf or a short read is an error."""
        entry = self._entries[name]
        values = np.empty(entry.shape, dtype=_DTYPES[entry.stored_dtype])
        buffer = values.reshape(-1).view(np.uint8)
        done = 0
        while done < buffer.size:
            count = os.preadv(self._handle.fileno(), [buffer[done:]], self._start + entry.begin + done)
            if count == 0:
                raise CheckpointError(
                    f"{self.path}: tensor {name!r}: short read: "
                    f"the file ends after {done} of {buffer.size} payload bytes"
                )
            done += count
        return Tensor(values, entry.stored_dtype, f"{self.path}: tensor {name!r}: {_NON_FINITE}")


def _parse_header(path, handle) -> tuple[int, dict[str, _Entry], dict[str, str]]:
    """The payload start, the entries in payload order and the metadata of an open checkpoint.

    Every check but the values: the length prefix, the header JSON, each
    entry, each span's size and bounds, and overlaps.
    """
    size = os.fstat(handle.fileno()).st_size
    if size < 8:
        raise CheckpointError(f"{path}: malformed header: file shorter than the 8-byte length prefix")
    (header_len,) = struct.unpack("<Q", handle.read(8))
    if header_len > _MAX_HEADER_LEN:
        raise CheckpointError(
            f"{path}: malformed header: declared length {header_len} exceeds the limit of {_MAX_HEADER_LEN} bytes"
        )
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
    entries = {name: _Entry(dtype, tuple(shape), begin) for begin, _, name, dtype, shape in spans}
    return 8 + header_len, entries, metadata


def read_checkpoint(path: str | Path) -> TensorMap:
    """Load a checkpoint file into a TensorMap.

    F16 payloads widen to float32; the stored dtype is kept per tensor.
    Raises CheckpointError on malformed headers, overlapping or
    out-of-bounds offsets, unsupported dtypes, and non-finite values.
    """
    with _Reader(path) as reader:
        return TensorMap({name: reader.tensor(name) for name in reader._entries}, metadata=reader.metadata)


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


class _Replacement:
    """A file written under a temporary name beside ``path``, as a context manager.

    A clean exit moves it over ``path``; an exception removes it, so
    ``path`` never holds a partial file and keeps what it held before.
    """

    def __init__(self, path: str | Path) -> None:
        self.target = Path(path)
        self.partial = self.target.with_name(f".{self.target.name}.{os.urandom(8).hex()}.partial")
        self.handle = open(self.partial, "xb")

    def __enter__(self) -> "_Replacement":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.handle.close()
            if exc_type is None:
                self._check_complete()
                os.replace(self.partial, self.target)
        finally:
            self.partial.unlink(missing_ok=True)  # nothing left to remove once replaced

    def _check_complete(self) -> None:
        pass


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, replacing it only once complete."""
    with _Replacement(path) as out:
        out.handle.write(text.encode("utf-8"))


class _Writer(_Replacement):
    """A checkpoint written tensor by tensor, as a context manager.

    The header is laid out on open from each entry's name, shape and
    stored dtype, in name order, and the metadata; ``write`` then takes
    the tensors in that order, each written straight to the file. A clean
    exit commits the file, which must then hold every tensor.
    """

    def __init__(
        self,
        path: str | Path,
        entries: Iterable[tuple[str, Tensor | _Entry]],
        metadata: Mapping[str, str],
        dtype_policy: str = "force_f32",
    ) -> None:
        if dtype_policy not in ("keep", "force_f32"):
            raise ValueError(f"dtype_policy must be 'keep' or 'force_f32', got {dtype_policy!r}")
        metadata = dict(metadata)
        header: dict[str, object] = {}
        self._layout: list[tuple[str, tuple[int, ...], str]] = []
        cursor = 0
        for name, entry in entries:
            out_dtype = entry.stored_dtype if dtype_policy == "keep" else "F32"
            if dtype_policy == "force_f32" and entry.stored_dtype != "F32":
                metadata[f"dtype.{name}"] = entry.stored_dtype
            nbytes = math.prod(entry.shape) * _DTYPES[out_dtype].itemsize
            header[name] = {"dtype": out_dtype, "shape": list(entry.shape), "data_offsets": [cursor, cursor + nbytes]}
            self._layout.append((name, entry.shape, out_dtype))
            cursor += nbytes
        if metadata:
            header[_METADATA_KEY] = metadata
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        self._written = 0

        super().__init__(path)
        try:
            self.handle.write(struct.pack("<Q", len(encoded)))
            self.handle.write(encoded)
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise

    def write(self, name: str, tensor: Tensor) -> None:
        """Write the next tensor's payload; its name and shape must be the next of the layout."""
        expected, shape, out_dtype = self._layout[self._written]
        if (name, tensor.shape) != (expected, shape):
            raise ValueError(f"expected tensor {expected!r} of shape {shape}, got {name!r} of shape {tensor.shape}")
        payload = tensor.values
        if out_dtype == "F16":
            with np.errstate(over="ignore"):  # overflow checked explicitly below
                payload = payload.astype(np.float16)
            if not np.isfinite(payload).all():
                raise CheckpointError(f"tensor {name!r}: value overflows F16 under dtype_policy 'keep'")
        self.handle.write(payload)
        self._written += 1

    def _check_complete(self) -> None:
        if self._written < len(self._layout):
            raise ValueError(f"tensor {self._layout[self._written][0]!r} was never written")


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
    with _Writer(path, tensor_map.items(), tensor_map.metadata, dtype_policy) as writer:
        for name, tensor in tensor_map.items():
            writer.write(name, tensor)
