"""Best-scaling-factor analysis and sweep checkpoint emission.

Evaluation itself happens elsewhere; accuracies arrive as a CSV with
header ``task,lambda,accuracy`` and the histogram of per-task best
factors is the JSON artifact. ``sweep_emit`` writes one merged
checkpoint per scaling factor for external evaluation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .methods import MergeSpec
from .store import Tensor, TensorMap, _Replacement, _stream, _Writer
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
        _check_rows(self.rows, lambda pos: f"row {pos + 1}")

    @classmethod
    def from_csv(cls, path: str | Path) -> "AccuracyTable":
        rows: list[tuple[str, float, float]] = []
        lines: list[int] = []
        try:
            text = Path(path).read_bytes().decode("utf-8")  # decoded whole, so an error's position counts from byte 0
            reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
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
                rows.append((task, lam, acc))
                lines.append(lineno)
        except csv.Error as exc:  # a field longer than the csv module's limit
            raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: {exc}") from None
        if not rows:
            raise CsvFormatError(f"{path}: no data rows")
        try:
            _check_rows(rows, lambda pos: f"line {lines[pos]}")
        except ValueError as exc:
            raise CsvFormatError(f"{path}: {exc}") from None
        return cls(tuple(rows))


def _check_rows(rows: Sequence[tuple[str, float, float]], where: Callable[[int], str]) -> None:
    """Raise ValueError, naming the row at ``pos`` by ``where(pos)``, at the first non-finite or repeated row."""
    first: dict[tuple[str, float], int] = {}
    for pos, (task, lam, acc) in enumerate(rows):
        if not (math.isfinite(lam) and math.isfinite(acc)):
            raise ValueError(f"{where(pos)}: non-finite lambda or accuracy")
        if first.setdefault((task, lam), pos) != pos:
            seen = where(first[(task, lam)])
            raise ValueError(f"{where(pos)}: duplicate (task, lambda) pair ({task!r}, {lam}), first seen on {seen}")


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
    best: dict[str, tuple[float, float]] = {}  # task -> (accuracy, -factor) of its best row so far
    for task, lam, acc in table.rows:
        best[task] = max(best.get(task, (acc, -lam)), (acc, -lam))
    return LambdaHistogram(bins=dict(Counter(-neg_lam for _, neg_lam in best.values())), total=len(best))


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

    Every factor's file is filled one tensor at a time, in name order: the
    tensor's task vectors and kernel base are made once, and each factor's
    re-based tensor is appended to its file. So above its inputs (nothing,
    for the CLI's checkpoint readers) a sweep holds O(tasks x largest
    tensor), and no output file is held open between writes. The
    files replace their targets only once every tensor is written: an
    error, named for the first faulty tensor, leaves no new file or manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [f"{spec_template.method}_lambda{lam!r}.safetensors" for lam in space.lambdas]
    manifest = {
        "spec": spec_template.to_json_dict(),
        "lambdas": list(space.lambdas),
        "files": [{"lambda": lam, "path": file} for lam, file in zip(space.lambdas, files)],
    }
    _write_sweep(pretrained, finetuned, spec_template, space, [out_dir / file for file in files], labels,
                 (out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n"))
    return [out_dir / file for file in files]


def _write_sweep(pretrained: TensorMap, finetuned: Sequence[TensorMap], spec: MergeSpec, space: SearchSpace,
                 paths: Sequence[str | Path], labels: Sequence[str] | None = None,
                 manifest: tuple[Path, str] | None = None) -> None:
    """pretrained + merge(deltas, lam) at each factor, written to ``paths``, and the ``manifest`` (path, text)
    if given: ``sweep_emit``'s files, committed together.
    """
    labels = _task_labels(pretrained, finetuned, labels)

    def rebased_members(name: str) -> Iterator[Tensor]:
        pre, _, _, members = _tensor_sweep(name, pretrained, finetuned, labels, spec, space)
        return (_rebased(name, pre, member.reshape(pre.shape), pretrained[name].stored_dtype)
                for member in members(slice(None)))

    with contextlib.ExitStack() as stack:  # commits every file on success, removes them all on an error
        writers = [stack.enter_context(_Writer(path, pretrained.items(), pretrained.metadata)) for path in paths]
        if manifest is not None:  # written now, so that a failed write commits no checkpoint
            stack.enter_context(_Replacement(manifest[0], manifest[1].encode("utf-8")))
        _stream(pretrained.names, rebased_members, [writer.write for writer in writers])
