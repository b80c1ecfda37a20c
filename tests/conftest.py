from __future__ import annotations

import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tensorweave import TaskVector, TensorMap

FIXTURES = Path(__file__).parent / "fixtures"

# the same examples on every run, and none replayed from an earlier run's database, so a run's result is the
# code's alone; each test's own @settings still sets its number of examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_map(rng: random.Random, names_shapes: dict[str, tuple[int, ...]], scale=1.0) -> TensorMap:
    return TensorMap(
        {
            name: np.array(
                [rng.uniform(-scale, scale) for _ in range(int(np.prod(shape, dtype=np.int64)))],
                dtype=np.float32,
            ).reshape(shape)
            for name, shape in names_shapes.items()
        }
    )


def random_instance(
    rng: random.Random, n_tasks: int, max_elements: int = 64
) -> tuple[TensorMap, list[TensorMap]]:
    """A compatible (pretrained, finetuned...) family with 1-3 tensors."""
    shapes = {}
    for t in range(rng.randint(1, 3)):
        count = rng.randint(1, max_elements)
        shapes[f"t{t}.weight"] = (count,) if rng.random() < 0.5 else _factor(count)
    pretrained = random_map(rng, shapes)
    finetuned = [random_map(rng, shapes) for _ in range(n_tasks)]
    return pretrained, finetuned


def _factor(count: int) -> tuple[int, ...]:
    for d in (7, 5, 3, 2):
        if count % d == 0 and count > d:
            return (d, count // d)
    return (count,)


# signed zeros, a magnitude tie across signs, both float32 extremes and the smallest subnormal of each sign
_F32_MAX, _F32_TINY = float(np.finfo(np.float32).max), float(np.finfo(np.float32).smallest_subnormal)
EDGE_VALUES = (0.0, -0.0, 1.5, -1.5, _F32_MAX, -_F32_MAX, _F32_TINY, -_F32_TINY, 0.25)


def edge_rows(count: int) -> list[list[float]]:
    """``count`` hand-built members over EDGE_VALUES, one element per ordered pair of them.

    The first two members hold each pair, so every value meets every other
    in both orders; later members cycle through EDGE_VALUES at their own
    stride. Every value is exactly a float32.
    """
    pairs = list(itertools.product(EDGE_VALUES, repeat=2))
    rows = [[a for a, _ in pairs], [b for _, b in pairs]][:count]
    return rows + [[EDGE_VALUES[(j * k + k) % len(EDGE_VALUES)] for j in range(len(pairs))] for k in range(2, count)]


def as_task_vectors(maps: list[TensorMap]) -> list[TaskVector]:
    return [TaskVector(m, source_name=f"task{i+1}", index=i + 1) for i, m in enumerate(maps)]


def map_to_lists(m: TensorMap) -> dict[str, list[float]]:
    return {name: [float(v) for v in m.array(name).ravel()] for name in m}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture
def small_deltas() -> list[TaskVector]:
    d1 = TensorMap({"w": np.array([1.0, -2.0], dtype=np.float32)})
    d2 = TensorMap({"w": np.array([3.0, 0.0], dtype=np.float32)})
    return [TaskVector(d1, "task1", 1), TaskVector(d2, "task2", 2)]
