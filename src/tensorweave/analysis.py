"""Best-scaling-factor analysis and sweep checkpoint emission.

Evaluation itself happens elsewhere; accuracies arrive as a CSV with
header ``task,lambda,accuracy`` and the histogram of per-task best
factors is the JSON artifact. ``sweep_emit`` writes one merged
checkpoint per scaling factor for external evaluation.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .methods import MergeSpec, _method, _scaled
from .store import TensorMap, _write_text, _Writer
from .vectors import _rebased, _task_labels
from .weave import SearchSpace, _tensor_sweep

__all__ = [
    "CsvFormatError",
    "AccuracyTable",
    "LambdaHistogram",
    "best_lambda_histogram",
    "sweep_emit",
]


class CsvFormatError(ValueError):
    """Malformed accuracy CSV; message carries the offending line number."""


@dataclass(frozen=True)
class AccuracyTable:
    """Rows of (task, scaling factor, accuracy); (task, factor) pairs unique."""

    rows: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("accuracy table must not be empty")
        seen = set()
        for task, lam, acc in self.rows:
            if (task, lam) in seen:
                raise ValueError(f"duplicate (task, lambda) pair: ({task!r}, {lam})")
            seen.add((task, lam))
            if not (math.isfinite(lam) and math.isfinite(acc)):
                raise ValueError(f"non-finite value in row ({task!r}, {lam}, {acc})")

    @classmethod
    def from_csv(cls, path: str | Path) -> "AccuracyTable":
        rows: list[tuple[str, float, float]] = []
        seen: dict[tuple[str, float], int] = {}
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["task", "lambda", "accuracy"]:
                raise CsvFormatError(f"{path}: line 1: header must be 'task,lambda,accuracy'")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 3:
                    raise CsvFormatError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
                task = row[0].strip()
                if not task:
                    raise CsvFormatError(f"{path}: line {lineno}: empty task name")
                try:
                    lam, acc = float(row[1]), float(row[2])
                except ValueError:
                    raise CsvFormatError(f"{path}: line {lineno}: non-numeric lambda or accuracy") from None
                if not (math.isfinite(lam) and math.isfinite(acc)):
                    raise CsvFormatError(f"{path}: line {lineno}: non-finite lambda or accuracy")
                if (task, lam) in seen:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: duplicate (task, lambda) pair "
                        f"({task!r}, {row[1].strip()}), first seen on line {seen[(task, lam)]}"
                    )
                seen[(task, lam)] = lineno
                rows.append((task, lam, acc))
        if not rows:
            raise CsvFormatError(f"{path}: no data rows")
        return cls(tuple(rows))


@dataclass(frozen=True)
class LambdaHistogram:
    """Count of tasks whose best accuracy lands on each scaling factor."""

    bins: dict[float, int]
    total: int

    def to_json_dict(self) -> dict:
        return {
            "bins": {repr(lam): count for lam, count in sorted(self.bins.items())},
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def best_lambda_histogram(table: AccuracyTable) -> LambdaHistogram:
    """Per task, the accuracy-argmax factor (ties take the smallest), binned."""
    best: dict[str, tuple[float, float]] = {}
    for task, lam, acc in table.rows:
        if task not in best:
            best[task] = (lam, acc)
            continue
        best_lam, best_acc = best[task]
        if acc > best_acc or (acc == best_acc and lam < best_lam):
            best[task] = (lam, acc)
    bins: dict[float, int] = {}
    for lam, _ in best.values():
        bins[lam] = bins.get(lam, 0) + 1
    return LambdaHistogram(bins=bins, total=len(best))


def sweep_emit(
    pretrained: TensorMap,
    finetuned: Sequence[TensorMap],
    spec_template: MergeSpec,
    space: SearchSpace,
    out_dir: str | Path,
    labels: Sequence[str] | None = None,
) -> list[Path]:
    """Write pretrained + merge(deltas, lam) per factor, plus a manifest.

    Files are named ``<method>_lambda<value>.safetensors``; the manifest
    ``manifest.json`` lists them with their factors. Returns the
    checkpoint paths in sweep order.

    Every factor's file is open at once and filled one tensor at a time,
    in name order: the tensor's task vectors and kernel base are made
    once, and each factor's re-based tensor goes straight to its file. So
    above its inputs (nothing, for the CLI's checkpoint readers) a sweep
    holds O(tasks x largest tensor), plus one open file per factor. The
    files replace their targets only once every tensor is written: an
    error, named for the first faulty tensor, leaves no new file behind.
    """
    if not finetuned:
        raise ValueError("merge needs at least one task vector")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kernel = _method(spec_template.method).kernel
    labels = _task_labels(pretrained, finetuned, labels)
    files = [f"{spec_template.method}_lambda{lam!r}.safetensors" for lam in space.lambdas]

    with contextlib.ExitStack() as stack:  # commits every file on success, removes them all on an error
        writers = [stack.enter_context(_Writer(out_dir / file, pretrained.items(), pretrained.metadata))
                   for file in files]
        for name, entry in pretrained.items():
            pre, flats, base, top = _tensor_sweep(name, pretrained, finetuned, labels, kernel, spec_template, space)
            members = itertools.chain((_scaled(lam, base) for lam in space.lambdas[:-1]), [top])
            for writer, member in zip(writers, members):
                writer.write(name, _rebased(name, pre, member.reshape(pre.shape), entry.stored_dtype))
            del pre, flats, base, top, members, member  # before the next tensor's sweep runs

    manifest = {
        "spec": spec_template.to_json_dict(),
        "lambdas": list(space.lambdas),
        "files": [{"lambda": lam, "path": file} for lam, file in zip(space.lambdas, files)],
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return [out_dir / file for file in files]
