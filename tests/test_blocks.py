"""Kernels and poolings that go block by block, checked across block edges against the scalar oracles.

Every tensor here has 2 x 32768 + 7 elements, so it spans two full blocks
of 32K elements and a short third one. Indices 32767 and 32768 sit on each
side of the first edge; they hold signed zeros and magnitudes that tie
across signs.
"""

import numpy as np
import pytest

from tensorweave import (
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TensorMap,
    breadcrumbs,
    build_augmented,
    compute_deltas,
    pool,
    task_arithmetic,
    ties,
    weave,
)
from tensorweave.methods import _magnitude_bits, _top_mask

from . import oracles
from .conftest import as_task_vectors

EDGE = 1 << 15
SIZE = 2 * EDGE + 7
F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float32).view(np.uint32).ravel().tolist()


def grid_rows(count: int, seed: int) -> list[np.ndarray]:
    """``count`` task vectors on a grid of eighths: magnitudes tie all over, and zeros come with both signs.

    Around the first block edge, task 1 holds +-0.5 and the others signed zeros and -+0.5, so the values
    there cancel and tie in magnitude across signs.
    """
    gen = np.random.default_rng(seed)
    rows = []
    for task in range(count):
        row = (gen.integers(-8, 9, SIZE) * 0.125).astype(np.float32)
        row[(row == 0) & (np.arange(SIZE) % 2 == 1)] = -0.0
        row[EDGE - 1 : EDGE + 1] = [(0.5, -0.5), (-0.0, 0.0), (-0.5, 0.5)][task % 3]
        rows.append(row)
    return rows


def run_rows(count: int, seed: int) -> tuple[list[np.ndarray], int]:
    """``count`` task vectors of distinct small magnitudes, 100 distinct large ones, and a run of 20 tied
    magnitudes of alternating sign that starts 8 elements before the first block edge; and the count of the
    top magnitudes whose smallest is the run's, with only its first 10 elements among them.
    """
    gen = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        row = (gen.permutation(SIZE) + 1).astype(np.float32) * np.float32(2.0**-20)  # distinct, below 0.07
        row *= gen.choice(np.array([-1.0, 1.0], dtype=np.float32), SIZE)
        large = gen.choice(np.r_[0 : EDGE - 8, EDGE + 12 : SIZE], 100, replace=False)
        row[large] = (2.0 + np.arange(100, dtype=np.float32) * 0.5) * gen.choice([-1.0, 1.0], 100).astype(np.float32)
        row[EDGE - 8 : EDGE + 12] = np.where(np.arange(20) % 2 == 0, 0.75, -0.75)
        rows.append(row)
    return rows, 100 + 10


def merged(method, rows: list[np.ndarray], lam: float, params: dict) -> list[int]:
    deltas = as_task_vectors([TensorMap({"w": row}) for row in rows])
    return bits(method(deltas, MergeSpec(method.name, lam=lam, params=params)).array("w"))


@pytest.mark.parametrize("keep_fraction", [0.3, 1.0])
def test_ties_on_dense_ties_across_block_edges_matches_the_oracle(keep_fraction):
    rows = grid_rows(3, seed=1)
    expected = oracles.merge_ties([row.tolist() for row in rows], 0.7, keep_fraction=keep_fraction)
    assert merged(ties, rows, 0.7, {"keep_fraction": keep_fraction}) == bits(expected)


def test_ties_threshold_on_a_run_of_tied_magnitudes_across_a_block_edge_matches_the_oracle():
    rows, keep = run_rows(2, seed=2)
    keep_fraction = keep / SIZE
    expected = oracles.merge_ties([row.tolist() for row in rows], 1.0, keep_fraction=keep_fraction)
    result = merged(ties, rows, 1.0, {"keep_fraction": keep_fraction})
    assert result == bits(expected)
    # the run's first 10 elements, 8 before the edge and 2 after it, are kept in both tasks; the next are not
    assert all(result[EDGE - 8 : EDGE + 2]) and not any(result[EDGE + 2 : EDGE + 12])


@pytest.mark.parametrize("source, beta, gamma", [("grid", 0.1, 0.2), ("run", 0.0, 110 / SIZE),
                                                 ("run", (SIZE - 110) / SIZE, 0.0)])
def test_breadcrumbs_across_block_edges_matches_the_oracle(source, beta, gamma):
    # on "run", the cut of the large side keeps the run's last 10 elements (higher indices drop first), and
    # the small side drops all but the 110 largest magnitudes, again splitting the run
    rows = grid_rows(3, seed=3) if source == "grid" else run_rows(2, seed=4)[0]
    expected = oracles.merge_breadcrumbs([row.tolist() for row in rows], 0.4, beta=beta, gamma=gamma)
    assert merged(breadcrumbs, rows, 0.4, {"beta": beta, "gamma": gamma}) == bits(expected)


def test_ties_mean_counts_more_than_255_agreeing_values():
    # element 0: 300 positive values, so the mean divides by 300; 1: about two thirds agree; 2: all cancel to zero
    rows = [[(i % 7 + 1) * 0.125, 0.5 if i % 3 else -0.25, 0.75 if i % 2 else -0.75] for i in range(300)]
    expected = oracles.merge_ties(rows, 1.0, keep_fraction=1.0)
    rows = [np.array(row, dtype=np.float32) for row in rows]
    assert merged(ties, rows, 1.0, {"keep_fraction": 1.0}) == bits(expected)


@pytest.mark.parametrize("pooling", ["avg", "random"])
def test_pooling_across_block_edges_matches_the_oracle(pooling):
    # pre-trained zeros make each task vector its fine-tuned values, signed zeros included
    pre = TensorMap({"w": np.zeros(SIZE, dtype=np.float32)})
    finetuned = [TensorMap({"w": row}) for row in grid_rows(3, seed=5)]
    spec, space, pool_spec = MergeSpec("task_arithmetic"), SearchSpace((0.5, 1.0)), PoolSpec(pooling, seed=6)
    deltas = compute_deltas(pre, finetuned)
    members = [tv.delta for tv in deltas] + build_augmented(deltas, task_arithmetic, spec, space)
    expected = oracles.pool_members([m.array("w").tolist() for m in members], pooling, 6, "w")
    assert bits(pool(members, pool_spec).array("w")) == bits(expected)
    woven, _ = weave(pre, finetuned, spec, space, pool_spec)
    assert bits(woven.array("w")) == bits(np.float32(0.0) + np.array(expected, dtype=np.float32))


TOP_MASK_VALUES = [
    np.array([0.0, -0.0, F32_TINY, -F32_TINY, 2 * F32_TINY, F32_MAX, -F32_MAX, 1.0, -1.0, 1.0, 0.0, -F32_TINY],
             dtype=np.float32),
    np.repeat(np.array([0.5, -0.5, 0.0, -0.0, 0.5, F32_TINY, -2.0], dtype=np.float32), [3, 4, 2, 3, 2, 3, 1]),
]


@pytest.mark.parametrize("values", TOP_MASK_VALUES)
def test_top_mask_on_the_bits_selects_as_a_stable_sort_of_the_magnitudes(values):
    # the order of the float magnitudes: ties keep the lower index first, descending or ascending
    mag = np.abs(values)
    descending, ascending = np.argsort(-mag, kind="stable"), np.argsort(mag, kind="stable")
    bits_ = _magnitude_bits(values)
    for count in range(values.size + 1):
        assert np.flatnonzero(_top_mask(bits_, count)).tolist() == sorted(descending[:count]), count
        high_first = _top_mask(bits_, count, ties_low=False)
        assert np.flatnonzero(high_first).tolist() == sorted(ascending[values.size - count :]), count
        assert np.flatnonzero(_top_mask(~bits_, count)).tolist() == sorted(ascending[:count]), count
