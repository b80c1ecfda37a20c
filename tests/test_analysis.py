import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tensorweave import (
    AccuracyTable,
    CsvFormatError,
    MergeSpec,
    SearchSpace,
    TensorMap,
    add,
    best_lambda_histogram,
    compute_deltas,
    read_checkpoint,
    registry_lookup,
    sweep_emit,
    task_arithmetic,
)

from .conftest import FIXTURES, random_instance


def table_from(rows):
    return AccuracyTable(tuple(rows))


def test_histogram_two_task_example():
    hist = best_lambda_histogram(
        table_from([("taskA", 0.5, 0.7), ("taskA", 1.0, 0.9), ("taskB", 0.5, 0.8), ("taskB", 1.0, 0.6)])
    )
    assert hist.bins == {1.0: 1, 0.5: 1}
    assert hist.total == 2


def test_histogram_single_row():
    hist = best_lambda_histogram(table_from([("only", 0.3, 0.5)]))
    assert hist.bins == {0.3: 1} and hist.total == 1


def test_histogram_tie_takes_smallest_lambda():
    hist = best_lambda_histogram(table_from([("t", 0.7, 0.8), ("t", 0.3, 0.8)]))
    assert hist.bins == {0.3: 1}


def test_histogram_row_order_invariance(rng):
    rows = [
        (f"task{t}", lam, round(rng.random(), 6))
        for t in range(6)
        for lam in (0.1, 0.5, 1.0)
    ]
    forward = best_lambda_histogram(table_from(rows))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert best_lambda_histogram(table_from(shuffled)).bins == forward.bins


def test_histogram_affine_rescaling_invariance(rng):
    rows = [
        (f"task{t}", lam, rng.uniform(0, 1))
        for t in range(8)
        for lam in (0.1, 0.3, 0.7, 1.0)
    ]
    base = best_lambda_histogram(table_from(rows))
    rescaled = [(t, lam, 3.5 * acc + 11.0) for t, lam, acc in rows]
    assert best_lambda_histogram(table_from(rescaled)).bins == base.bins
    assert base.total == 8


def test_histogram_bins_only_contain_table_lambdas():
    rows = [("a", 0.25, 0.9), ("a", 0.5, 0.1), ("b", 0.5, 0.9)]
    hist = best_lambda_histogram(table_from(rows))
    assert set(hist.bins) <= {0.25, 0.5}
    assert sum(hist.bins.values()) == hist.total == 2


def test_histogram_json_format():
    payload = json.loads(best_lambda_histogram(table_from([("a", 0.5, 1.0)])).to_json())
    assert payload == {"bins": {"0.5": 1}, "total": 1}


def test_histogram_json_keeps_close_lambdas_apart():
    rows = [("a", 0.1, 1.0), ("b", 0.1000000000001, 1.0)]
    payload = json.loads(best_lambda_histogram(table_from(rows)).to_json())
    assert payload == {"bins": {"0.1": 1, "0.1000000000001": 1}, "total": 2}


def test_table_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="duplicate"):
        table_from([("a", 0.5, 0.1), ("a", 0.5, 0.2)])
    with pytest.raises(ValueError, match="empty"):
        table_from([])


def test_csv_round_trip(tmp_path):
    target = tmp_path / "acc.csv"
    target.write_text("task,lambda,accuracy\nalpha,0.5,0.75\nalpha,1.0,0.5\nbeta,1.0,88.0\n")
    table = AccuracyTable.from_csv(target)
    assert table.rows == (("alpha", 0.5, 0.75), ("alpha", 1.0, 0.5), ("beta", 1.0, 88.0))


def test_csv_duplicate_names_line(tmp_path):
    target = tmp_path / "dup.csv"
    target.write_text("task,lambda,accuracy\na,0.5,0.1\na,0.5,0.2\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        AccuracyTable.from_csv(target)


def test_csv_bad_header_and_fields(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("task,lam,acc\na,0.5,0.1\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        AccuracyTable.from_csv(bad_header)

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("task,lambda,accuracy\na,0.5,oops\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        AccuracyTable.from_csv(bad_value)

    short_row = tmp_path / "s.csv"
    short_row.write_text("task,lambda,accuracy\na,0.5\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        AccuracyTable.from_csv(short_row)


def test_committed_csv_fixture_bins():
    table = AccuracyTable.from_csv(FIXTURES / "accuracy_10tasks.csv")
    hist = best_lambda_histogram(table)
    assert hist.total == 10
    assert hist.bins == {0.1: 1, 0.3: 3, 0.5: 2, 0.7: 1, 1.0: 3}


def test_sweep_emit_files_and_manifest(tmp_path, rng):
    pre, finetuned = random_instance(rng, 2)
    spec = MergeSpec("task_arithmetic")
    paths = sweep_emit(pre, finetuned, spec, SearchSpace((0.5, 1.0)), tmp_path / "out")
    assert [p.name for p in paths] == [
        "task_arithmetic_lambda0.5.safetensors",
        "task_arithmetic_lambda1.0.safetensors",
    ]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["lambdas"] == [0.5, 1.0]
    assert [f["lambda"] for f in manifest["files"]] == [0.5, 1.0]
    assert manifest["spec"]["method"] == "task_arithmetic"


def test_sweep_emit_close_lambdas_write_distinct_files(tmp_path, rng):
    pre, finetuned = random_instance(rng, 1)
    space = SearchSpace((0.1, 0.1000000000001))
    paths = sweep_emit(pre, finetuned, MergeSpec("task_arithmetic"), space, tmp_path)
    names = ["task_arithmetic_lambda0.1.safetensors", "task_arithmetic_lambda0.1000000000001.safetensors"]
    assert [p.name for p in paths] == names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [f["path"] for f in manifest["files"]] == names
    assert sorted(p.name for p in tmp_path.glob("*.safetensors")) == names


def test_sweep_emit_round_trips_bitwise(tmp_path, rng):
    pre, finetuned = random_instance(rng, 2)
    spec = MergeSpec("ties", params={"keep_fraction": 0.4})
    space = SearchSpace((0.3, 1.1))
    paths = sweep_emit(pre, finetuned, spec, space, tmp_path / "sweep")
    deltas = compute_deltas(pre, finetuned)
    merge = registry_lookup("ties")
    for lam, path in zip(space.lambdas, paths):
        loaded = read_checkpoint(path)
        expected = add(pre, merge(deltas, replace(spec, lam=lam)))
        for name in pre:
            assert loaded.array(name).tobytes() == expected.array(name).tobytes()


def test_sweep_emit_empty_space_errors(tmp_path, rng):
    pre, finetuned = random_instance(rng, 1)
    with pytest.raises(ValueError):
        sweep_emit(pre, finetuned, MergeSpec("task_arithmetic"), SearchSpace(()), tmp_path)


def test_sweep_emit_memory_does_not_grow_with_the_factors(tmp_path):
    # the bound of the sweep_emit docstring: every factor's file is filled tensor by tensor, so above
    # its inputs the sweep holds (tasks + a few) x the tensor in flight, whatever the number of factors;
    # members held for the whole model would add factors x the model (20 x 6 large tensors here)
    gen = np.random.default_rng(11)
    shapes = [(256, 256)] * 6 + [(7,), ()]
    n_tasks = 3

    def model():
        return TensorMap({f"t{i}": gen.normal(size=shape).astype(np.float32) for i, shape in enumerate(shapes)})

    pre, finetuned = model(), [model() for _ in range(n_tasks)]
    largest = 256 * 256 * 4
    peaks = {}
    for count in (2, 20):
        space = SearchSpace(tuple(0.05 * (i + 1) for i in range(count)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sweep_emit(pre, finetuned, MergeSpec("task_arithmetic"), space, tmp_path / str(count))
            peaks[count] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peaks[20] <= peaks[2] + 2 * largest  # a member and its successor overlap, and each file has a buffer
    assert peaks[20] <= (n_tasks + 8) * largest
    loaded = read_checkpoint(tmp_path / "20" / "task_arithmetic_lambda1.0.safetensors")
    expected = add(pre, task_arithmetic(compute_deltas(pre, finetuned), MergeSpec("task_arithmetic")))
    assert loaded == expected
