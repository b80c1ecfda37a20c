"""Best-scaling-factor analysis of evaluated accuracies.

Evaluation itself happens elsewhere; accuracies arrive as a CSV with
header ``task,lambda,accuracy`` and the histogram of per-task best
factors is the JSON artifact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

__all__ = [
    "CsvFormatError",
    "AccuracyTable",
    "LambdaHistogram",
    "best_lambda_histogram",
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
