"""Checkpoint container I/O and the in-memory tensor-map representation.

The on-disk container is the common single-file checkpoint layout:

    bytes 0..7    little-endian u64 ``N`` = header length
    bytes 8..8+N  UTF-8 JSON object: tensor name -> {"dtype", "shape",
                  "data_offsets"}, plus an optional "__metadata__"
                  string-to-string map
    rest          raw little-endian tensor payload, row-major, offsets
                  relative to the payload start

F32 and F16 payloads are read; every payload is written as F32, the values
bit for bit, with an F16 origin recorded as ``dtype.<name>``. All values are
held in memory as float32 regardless of the stored dtype; F16 widens exactly
on load, by a 65,536-entry table of numpy's own F16 -> float32 cast of every
16-bit code, so it gives that cast's bits. Writing the same map twice yields
byte-identical files (names in lexicographic order, offsets contiguous from 0).

Since the header fixes every offset, neither side needs more than one
tensor at a time. The internal reader checks the whole header on open and
reads each tensor into its own buffer when asked, so it holds one tensor's
values at a time and a loaded map holds its float32 values and no other
bytes of the file. The internal writer lays out the header from names,
shapes and stored dtypes, then takes one payload at a time; it writes to a
temporary file that replaces the target only once complete, open only while written.
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .rng import _blocks

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
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max  # numpy's cap on itemsize times a shape's nonzero dimensions
_F16_TO_F32 = np.arange(1 << 16, dtype=np.uint16).view(np.float16).astype(np.float32)  # code -> its float32


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

    def read(self, name: str, out: np.ndarray) -> np.ndarray:
        """Tensor ``name``'s values copied into ``out``, as the checkpoint reader's ``read`` fills it."""
        out[...] = self._entries[name].values.reshape(out.shape)
        return out

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
    for kind, names in (("missing", ref_names - cand_names), ("unexpected", cand_names - ref_names)):
        if names:
            raise FingerprintMismatch(f"{label}: {kind} tensor {min(names)!r}")
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

    Items are header entries (stored dtype and shape, no values). ``read``
    reads one tensor into a buffer by a positional read, so threads
    may share a reader, and nothing else of the file is held; ``tensor``
    and ``array`` are that read, checked.
    Use it as a context manager, which closes the file.
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
        self._handle.close()

    def items(self) -> Iterator[tuple[str, _Entry]]:
        return ((name, self._entries[name]) for name in self.names)

    def __getitem__(self, name: str) -> _Entry:
        return self._entries[name]

    def array(self, name: str) -> np.ndarray:
        return self.tensor(name).values

    def tensor(self, name: str) -> Tensor:
        """Tensor ``name``, read from the file now: a NaN, an Inf or a short read is an error."""
        return Tensor(self.read(name), self[name].stored_dtype, f"{self.path}: tensor {name!r}: {_NON_FINITE}")

    def read(self, name: str, out: np.ndarray | None = None) -> np.ndarray:
        """Tensor ``name``'s values, read from the file now, not yet checked for finiteness, into ``out`` (C-contiguous
        float32 of the tensor's size: F32 bytes are read straight into it) or else a fresh buffer of its shape.

        F16 widens exactly, each code looked up in ``_F16_TO_F32``: the same
        bits as ``astype(np.float32)``, in less time than the cast. The
        lookup goes by blocks of codes, so that its index copy stays small.
        """
        entry = self._entries[name]
        out = np.empty(entry.shape, dtype=np.float32) if out is None else out
        widened = out.reshape(-1)
        codes = widened if entry.stored_dtype == "F32" else np.empty(widened.size, dtype=np.uint16)
        buffer = codes.view(np.uint8)
        done = 0
        while done < buffer.size:
            count = os.preadv(self._handle.fileno(), [buffer[done:]], self._start + entry.begin + done)
            if count == 0:
                raise CheckpointError(
                    f"{self.path}: tensor {name!r}: short read: "
                    f"the file ends after {done} of {buffer.size} payload bytes"
                )
            done += count
        if entry.stored_dtype == "F16":
            for part in _blocks(codes.size):  # take copies each block's codes as intp indices
                # every code is in range, so "wrap" changes none, and unlike "raise" it does not buffer out
                np.take(_F16_TO_F32, codes[part], out=widened[part], mode="wrap")
        return out


def _parse_header(path, handle) -> tuple[int, dict[str, _Entry], dict[str, str]]:
    """The payload start, the entries in payload order and the metadata of an open checkpoint.

    Every check but the values: the length prefix, the header JSON, each
    entry, each span's size and bounds, and that the spans tile the payload.
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
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, or an integer too long
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

    spans.sort()  # by begin, then end: zero-size tensors come before the tensor that starts at their offset
    # the spans must tile the payload: each begins where the one before it (or the payload) ends
    for (_, cursor, previous, *_), (begin, _, name, *_) in zip([(0, 0, None)] + spans, spans):
        if begin < cursor:
            raise CheckpointError(f"{path}: tensors {previous!r} and {name!r} have overlapping data_offsets")
        if begin > cursor:
            raise CheckpointError(f"{path}: tensor {name!r}: {begin - cursor} unused payload bytes before its data")
    unused = size - 8 - header_len - (spans[-1][1] if spans else 0)
    if unused:
        raise CheckpointError(f"{path}: {unused} unused payload bytes after the last tensor")
    entries = {name: _Entry(dtype, tuple(shape), begin) for begin, _, name, dtype, shape in spans}
    return 8 + header_len, entries, metadata


def read_checkpoint(path: str | Path) -> TensorMap:
    """Load a checkpoint file into a TensorMap.

    F16 payloads widen to float32; the stored dtype is kept per tensor.
    Raises CheckpointError on malformed headers, overlapping or out-of-bounds
    offsets, payload bytes no tensor indexes, unsupported dtypes, and non-finite values.
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
    nbytes = _DTYPES[dtype].itemsize
    for dim in shape:  # checked at each step, so no product grows huge
        nbytes *= dim or 1
        if nbytes > _MAX_ARRAY_BYTES:
            raise CheckpointError(f"{path}: tensor {name!r}: shape too large for a numpy array")
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
    """A file written under a temporary name beside ``path``, made with its ``first`` bytes, as a context manager.

    Opening it claims ``path``, refusing a directory there before the caller's work; errors name ``path``.
    ``append`` adds bytes to its end. It holds paths, not an open file, so none stays open between writes.
    A clean exit moves it over ``path``; an exception removes it, so
    ``path`` never holds a partial file and keeps what it held before.
    """

    def __init__(self, path: str | Path, first: bytes) -> None:
        self.target = Path(path)
        if self.target.is_dir() and not self.target.is_symlink():  # the rename would refuse it, after all the work
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(self.target))
        stem = os.fsencode(self.target.name)[:229].decode("utf-8", "ignore")  # 26 more below: 255 bytes at most
        self.partial = self.target.with_name(f".{stem}.{os.urandom(8).hex()}.partial")
        try:
            handle = open(self.partial, "xb")
        except OSError as exc:  # named for the target: the temporary name means nothing to the caller
            raise OSError(exc.errno, exc.strerror, str(self.target)) from None
        try:
            with handle:
                handle.write(first)
        except BaseException:
            self.partial.unlink(missing_ok=True)
            raise

    def __enter__(self) -> "_Replacement":
        return self

    def append(self, data) -> None:
        # appended without O_CREAT, so a partial removed since the last write fails the write, not its commit
        with open(self.partial, "ab", opener=lambda path, flags: os.open(path, flags & ~os.O_CREAT)) as handle:
            handle.write(data)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._check_complete()
                os.replace(self.partial, self.target)
        finally:
            self.partial.unlink(missing_ok=True)  # nothing left to remove once replaced

    def _check_complete(self) -> None:
        pass


class _Writer(_Replacement):
    """A checkpoint written tensor by tensor, as a context manager.

    The header is laid out on open from each entry's name, shape and
    stored dtype, in name order, and the metadata; ``write`` then takes
    the tensors in that order, each appended to the file, which is open
    only while it is written. A clean exit commits the file, which must then hold every tensor.
    """

    def __init__(self, path: str | Path, entries: Iterable[tuple[str, Tensor | _Entry]],
                 metadata: Mapping[str, str]) -> None:
        metadata = dict(metadata)
        header: dict[str, object] = {}
        self._layout: list[tuple[str, tuple[int, ...]]] = []
        cursor = 0
        for name, entry in entries:
            if entry.stored_dtype != "F32":
                metadata[f"dtype.{name}"] = entry.stored_dtype
            nbytes = 4 * math.prod(entry.shape)  # F32
            header[name] = {"dtype": "F32", "shape": list(entry.shape), "data_offsets": [cursor, cursor + nbytes]}
            self._layout.append((name, entry.shape))
            cursor += nbytes
        if metadata:
            header[_METADATA_KEY] = metadata
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        self._written = 0
        super().__init__(path, struct.pack("<Q", len(encoded)) + encoded)

    def write(self, name: str, tensor: Tensor) -> None:
        """Append the next tensor's payload; its name and shape must be the next of the layout."""
        expected, shape = self._layout[self._written]
        if (name, tensor.shape) != (expected, shape):
            raise ValueError(f"expected tensor {expected!r} of shape {shape}, got {name!r} of shape {tensor.shape}")
        self.append(tensor.values)
        self._written += 1

    def _check_complete(self) -> None:
        if self._written < len(self._layout):
            raise ValueError(f"tensor {self._layout[self._written][0]!r} was never written")


def write_checkpoint(tensor_map: TensorMap, path: str | Path) -> None:
    """Serialize a TensorMap; byte-identical output for identical inputs.

    Every payload is written as F32, the values bit for bit; a tensor stored
    otherwise has its stored dtype recorded under metadata key ``dtype.<name>``.
    The bytes go to a temporary file beside ``path`` that replaces it only
    once complete, so a failed write leaves no partial checkpoint behind.
    """
    with _Writer(path, tensor_map.items(), tensor_map.metadata) as writer:
        for name, tensor in tensor_map.items():
            writer.write(name, tensor)


def _stream(names: Iterable[str], produce: Callable[[str], Iterable[Tensor]],
            sinks: Sequence[Callable[[str, Tensor], None]], threads: int = 1) -> None:
    """Give each name's tensors, ``produce(name)``, one to each sink in turn, name by name in order.

    The sinks run on the calling thread. So does ``produce`` at one thread, each tensor reaching its sink
    before the next is made; more ``threads`` produce ahead, at most ``2 x threads`` names being produced
    or waiting for the sinks. The first faulty name's error is raised, and no later name reaches the sinks.
    """
    if threads == 1:  # a worker thread feeding this one measured slower, and would bound nothing more
        for name in names:
            _give(name, produce(name), sinks)
        return
    with ThreadPoolExecutor(max_workers=threads) as executor:  # the executor rejects threads < 1
        window = []
        for name in names:
            if len(window) == 2 * threads:
                _give(*window.pop(0).result(), sinks)
            window.append(executor.submit(lambda n: (n, list(produce(n))), name))
        while window:
            _give(*window.pop(0).result(), sinks)


def _give(name: str, tensors: Iterable[Tensor], sinks: Sequence[Callable[[str, Tensor], None]]) -> None:
    """A function, not a loop body, so that the last tensor is released before the next name is produced."""
    for sink, tensor in zip(sinks, tensors):
        sink(name, tensor)
