"""Delta-weight computation and the elementwise algebra over tensor maps."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .store import CheckpointError, Tensor, TensorMap, _stream, require_compatible

__all__ = [
    "TaskVector",
    "SimilarityMatrix",
    "compute_deltas",
    "add",
    "cosine_matrix",
]


@dataclass(frozen=True)
class TaskVector:
    """Delta weights of one fine-tuned checkpoint relative to its base.

    ``index`` is the 1-based position in the task list; it seeds
    per-task randomness, so it must be unique within a merge.
    """

    delta: TensorMap
    source_name: str = ""
    index: int = 1


def compute_deltas(
    pretrained: TensorMap,
    finetuned: Sequence[TensorMap],
    labels: Sequence[str] | None = None,
) -> list[TaskVector]:
    """Elementwise finetuned - pretrained for each checkpoint, in order.

    Inputs are read by ``.array(name)`` and ``.read(name, out=buffer)`` only, so checkpoint readers serve.
    Each task vector is made one checkpoint at a time by ``_task_vectors``, the producer ``weave`` runs too, and
    checked once, as the ``Tensor`` it is. A difference that overflows float32 raises CheckpointError naming the
    checkpoint's label and the tensor.
    """
    labels = _task_labels(pretrained, finetuned, labels)
    tensors = [{} for _ in finetuned]
    _stream(pretrained.names, lambda name: _each_task_vector(name, pretrained, finetuned, labels),
            [t.__setitem__ for t in tensors])
    return [TaskVector(TensorMap(t), label, pos) for pos, (label, t) in enumerate(zip(labels, tensors), start=1)]


def _each_task_vector(name: str, pretrained: TensorMap, finetuned: Sequence[TensorMap],
                      labels: Sequence[str]) -> Iterator[Tensor]:
    """Tensor ``name``'s task vectors, one ``_task_vectors`` call each, in checkpoint order, each made when reached."""
    pre = pretrained.array(name)
    return (_task_vectors(name, pre, [candidate], [label]) for label, candidate in zip(labels, finetuned))


def _task_vectors(name: str, pre: np.ndarray, finetuned: Sequence[TensorMap], labels: Sequence[str]) -> Tensor:
    """Tensor ``name``'s task vectors of ``finetuned``, as one Tensor: of ``pre``'s shape for one checkpoint, else a
    flat row per checkpoint. Each fine-tuned tensor is read into its row of one float32 block (``.read(name,
    out=row)``), ``pre`` is subtracted in place, and the Tensor, a view of the block, is its one finiteness check.
    On a failure, the first non-finite row, in checkpoint order, raises the input's own error where the fine-tuned
    values are not finite, else an overflow naming the checkpoint's label."""
    block = np.empty((len(finetuned), pre.size), dtype=np.float32)
    for candidate, row in zip(finetuned, block):
        candidate.read(name, out=row)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite difference is an error: see below
        np.subtract(block, pre.reshape(-1), out=block)
    try:
        return Tensor(block.reshape(pre.shape) if len(block) == 1 else block)
    except CheckpointError:
        label, candidate = next((label, candidate) for label, candidate, row in zip(labels, finetuned, block)
                                if not np.isfinite(row).all())
        candidate.array(name)  # a checked read: raises where the fine-tuned values themselves are not finite
        raise CheckpointError(f"{label}: tensor {name!r}: task vector (fine-tuned minus pre-trained) overflows "
                              "float32") from None


def _task_labels(pretrained: TensorMap, finetuned: Sequence[TensorMap], labels: Sequence[str] | None) -> list[str]:
    """Each checkpoint's label (``task<i>`` when ``labels`` is None), once every checkpoint matches ``pretrained``."""
    if not finetuned:
        raise ValueError("need at least one fine-tuned checkpoint")
    if labels is not None and len(labels) != len(finetuned):
        raise ValueError(f"got {len(labels)} labels for {len(finetuned)} checkpoints")
    for pos, candidate in enumerate(finetuned):
        require_compatible(pretrained, candidate, label=f"fine-tuned checkpoint {pos + 1}")
    return list(labels) if labels is not None else [f"task{pos + 1}" for pos in range(len(finetuned))]


def _check_deltas(maps: Sequence[TensorMap], caller: str, kind: str = "task vector") -> None:
    """Raise unless there is a map and every one matches the first; the messages name ``caller`` and ``kind``."""
    if not maps:
        raise ValueError(f"{caller} needs at least one {kind}")
    for pos, candidate in enumerate(maps[1:], start=2):
        require_compatible(maps[0], candidate, label=f"{kind} {pos}")


def add(base: TensorMap, delta: TensorMap) -> TensorMap:
    """Elementwise base + delta; stored dtypes follow the base map.

    A sum that overflows float32 raises CheckpointError naming the tensor.
    """
    require_compatible(base, delta, label="delta")
    tensors = {name: _rebased(name, t.values, delta.array(name), t.stored_dtype) for name, t in base.items()}
    return TensorMap(tensors, metadata=base.metadata)


def _rebased(name: str, base: np.ndarray, delta: np.ndarray, stored_dtype: str,
             what: str = "base plus delta") -> Tensor:
    """Tensor ``name``'s base + delta, stored as the base; an overflow names the tensor and ``what`` overflowed."""
    with np.errstate(over="ignore"):  # both inputs are finite: Inf here is an overflow
        return Tensor(base + delta, stored_dtype, f"tensor {name!r}: {what} overflows float32")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise cosine similarities of task vectors, whole-model flattened."""

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def cosine_matrix(vectors: Sequence[TaskVector]) -> SimilarityMatrix:
    """Cosine similarity between every pair of task vectors.

    Each vector flattens to one long array in canonical tensor order.
    A zero vector has similarity 0 with everything; its diagonal entry is
    defined as 1. Deltas are read by ``.array(name)`` only, so checkpoint
    readers serve, and each is read one tensor at a time. The dot products
    go through BLAS ``ddot``, whose summation order follows the kernel
    OpenBLAS picks for the CPU, so the last bits may differ across CPUs.
    """
    _check_deltas([tv.delta for tv in vectors], "cosine_matrix")
    return _cosine([tv.source_name for tv in vectors], vectors[0].delta,
                   lambda name: (tv.delta.array(name) for tv in vectors))


def _cosine(
    labels: Sequence[str], model: TensorMap, produce: Callable[[str], Iterable[np.ndarray]]
) -> SimilarityMatrix:
    """Cosine similarity between every pair of task vectors, labelled in order, of checked inputs.

    Each task vector is a float64 flat, each tensor of ``model`` spanning its size in name order, filled
    tensor by tensor: ``produce(name)`` gives each flat's float32 values of that tensor, so no float32 input
    outlives its tensor. Widening float32 to float64 is exact, so a flat holds the concatenated values bit for bit.
    """
    spans, end = {}, 0
    for name, entry in model.items():
        spans[name] = slice(end, end + entry.size)
        end += entry.size
    flats = [np.empty(end, dtype=np.float64) for _ in labels]

    def filler(flat: np.ndarray):
        return lambda name, values: flat.__setitem__(spans[name], values.ravel())

    _stream(model.names, produce, [filler(flat) for flat in flats])
    norms = [float(np.sqrt(np.dot(f, f))) for f in flats]

    n = len(flats)
    values = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        values[i, i] = 1.0
        for j in range(i + 1, n):
            if norms[i] == 0.0 or norms[j] == 0.0:
                sim = 0.0
            else:
                sim = float(np.dot(flats[i], flats[j])) / (norms[i] * norms[j])
                sim = min(1.0, max(-1.0, sim))
            values[i, j] = values[j, i] = sim

    return SimilarityMatrix(
        labels=tuple(labels),
        values=tuple(tuple(float(v) for v in row) for row in values),
    )
