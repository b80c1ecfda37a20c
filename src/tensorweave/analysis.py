"""Best-scaling-factor analysis and sweep checkpoint emission.

Evaluation itself happens elsewhere; accuracies arrive as a CSV with
header ``task,lambda,accuracy`` and the histogram of per-task best
factors is the JSON artifact. ``sweep_emit`` writes one merged
checkpoint per scaling factor for external evaluation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .methods import MergeSpec, registry_lookup
from .store import TensorMap, write_checkpoint
from .vectors import add, compute_deltas
from .weave import SearchSpace, build_augmented

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
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    deltas = compute_deltas(pretrained, finetuned, labels=labels)
    merged = build_augmented(deltas, registry_lookup(spec_template.method), spec_template, space)

    paths = []
    entries = []
    for lam, delta in zip(space.lambdas, merged):
        name = f"{spec_template.method}_lambda{lam!r}.safetensors"
        target = out_dir / name
        write_checkpoint(add(pretrained, delta), target)
        paths.append(target)
        entries.append({"lambda": lam, "path": name})

    manifest = {
        "spec": spec_template.to_json_dict(),
        "lambdas": list(space.lambdas),
        "files": entries,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return paths
