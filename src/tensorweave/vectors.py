"""Delta-weight computation and the elementwise algebra over tensor maps."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .store import CheckpointError, Tensor, TensorMap, _as_float32, require_compatible

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
    if labels is not None and len(labels) != len(finetuned):
        raise ValueError(f"got {len(labels)} labels for {len(finetuned)} checkpoints")
    out = []
    for pos, candidate in enumerate(finetuned):
        require_compatible(pretrained, candidate, label=f"fine-tuned checkpoint {pos + 1}")
        label = labels[pos] if labels is not None else f"task{pos + 1}"
        tensors = {}
        for name, t in pretrained.items():
            with np.errstate(over="ignore"):  # both inputs are finite: Inf here is an overflow
                diff = candidate.array(name) - t.values
            try:
                tensors[name] = Tensor(diff)
            except CheckpointError:
                raise CheckpointError(
                    f"{label}: tensor {name!r}: task vector (fine-tuned minus pre-trained) overflows float32"
                ) from None
        out.append(TaskVector(TensorMap(tensors), source_name=label, index=pos + 1))
    return out


def add(base: TensorMap, delta: TensorMap) -> TensorMap:
    """Elementwise base + delta; stored dtypes follow the base map."""
    require_compatible(base, delta, label="delta")
    return TensorMap(
        {
            name: Tensor(_as_float32(t.values + delta.array(name), name), stored_dtype=t.stored_dtype)
            for name, t in base.items()
        },
        metadata=base.metadata,
    )


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
