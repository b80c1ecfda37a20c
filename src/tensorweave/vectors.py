"""Delta-weight computation and the elementwise algebra over tensor maps."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .store import Tensor, TensorMap, require_compatible

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

    A difference that overflows float32 raises CheckpointError naming the
    checkpoint's label and the tensor.
    """
    out = []
    for pos, (label, candidate) in enumerate(zip(_task_labels(pretrained, finetuned, labels), finetuned)):
        tensors = {name: _task_delta(label, name, candidate.array(name), t.values) for name, t in pretrained.items()}
        out.append(TaskVector(TensorMap(tensors), source_name=label, index=pos + 1))
    return out


def _task_labels(pretrained: TensorMap, finetuned: Sequence[TensorMap], labels: Sequence[str] | None) -> list[str]:
    """Each checkpoint's label (``task<i>`` when ``labels`` is None), once every checkpoint matches ``pretrained``."""
    if labels is not None and len(labels) != len(finetuned):
        raise ValueError(f"got {len(labels)} labels for {len(finetuned)} checkpoints")
    for pos, candidate in enumerate(finetuned):
        require_compatible(pretrained, candidate, label=f"fine-tuned checkpoint {pos + 1}")
    return list(labels) if labels is not None else [f"task{pos + 1}" for pos in range(len(finetuned))]


def _task_delta(label: str, name: str, finetuned: np.ndarray, pretrained: np.ndarray) -> Tensor:
    """Tensor ``name``'s task vector, finetuned - pretrained; an overflow names the checkpoint and the tensor."""
    with np.errstate(over="ignore"):  # both inputs are finite: Inf here is an overflow
        return Tensor(
            finetuned - pretrained,
            error=f"{label}: tensor {name!r}: task vector (fine-tuned minus pre-trained) overflows float32",
        )


def add(base: TensorMap, delta: TensorMap) -> TensorMap:
    """Elementwise base + delta; stored dtypes follow the base map.

    A sum that overflows float32 raises CheckpointError naming the tensor.
    """
    require_compatible(base, delta, label="delta")
    with np.errstate(over="ignore"):  # both inputs are finite: Inf here is an overflow
        tensors = {
            name: Tensor(
                t.values + delta.array(name), t.stored_dtype, f"tensor {name!r}: base plus delta overflows float32"
            )
            for name, t in base.items()
        }
    return TensorMap(tensors, metadata=base.metadata)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise cosine similarities of task vectors, whole-model flattened."""

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def to_json(self) -> str:
        return json.dumps(
            {"labels": list(self.labels), "values": [list(row) for row in self.values]},
            indent=2,
        )


def cosine_matrix(vectors: Sequence[TaskVector]) -> SimilarityMatrix:
    """Cosine similarity between every pair of task vectors.

    Each vector flattens to one long array in canonical tensor order.
    A zero vector has similarity 0 with everything; its diagonal entry is
    defined as 1.
    """
    if not vectors:
        raise ValueError("cosine_matrix needs at least one task vector")
    first = vectors[0].delta
    for pos, tv in enumerate(vectors[1:], start=2):
        require_compatible(first, tv.delta, label=f"task vector {pos}")

    flats = [
        np.concatenate([tv.delta.array(name).ravel() for name in tv.delta] or [np.zeros(0)]).astype(
            np.float64
        )
        for tv in vectors
    ]
    norms = [float(np.sqrt(np.dot(f, f))) for f in flats]

    n = len(vectors)
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
        labels=tuple(tv.source_name for tv in vectors),
        values=tuple(tuple(float(v) for v in row) for row in values),
    )
