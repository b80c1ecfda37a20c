import contextlib
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorweave import (
    FingerprintMismatch,
    TaskVector,
    TensorMap,
    add,
    compute_deltas,
    cosine_matrix,
    CheckpointError,
    MergeSpec,
    SimilarityMatrix,
    read_checkpoint,
    store,
    weave,
    write_checkpoint,
)

from .conftest import FIXTURES, as_task_vectors, random_instance, random_map


def tmap(**tensors):
    return TensorMap({k: np.array(v, dtype=np.float32) for k, v in tensors.items()})


def test_compute_deltas_direct():
    pre = tmap(w=[1.0, 1.0])
    ft = tmap(w=[3.0, -1.0])
    (delta,) = compute_deltas(pre, [ft])
    assert delta.delta.array("w").tolist() == [2.0, -2.0]
    assert delta.index == 1


def test_compute_deltas_identity_is_zero():
    pre = tmap(w=[0.5, -0.25, 3.0])
    (delta,) = compute_deltas(pre, [pre])
    assert delta.delta.array("w").tolist() == [0.0, 0.0, 0.0]


def test_compute_deltas_matches_per_element_oracle(rng):
    pre = random_map(rng, {"w": (1000,)})
    ft = random_map(rng, {"w": (1000,)})
    (delta,) = compute_deltas(pre, [ft])
    for p in range(1000):
        expected = np.float32(ft.array("w")[p]) - np.float32(pre.array("w")[p])
        assert delta.delta.array("w")[p] == expected


def test_compute_deltas_over_readers_equals_over_loaded_maps():
    # the CLI passes open readers, which read each tensor on demand; task_half's F16 tensor widens on read
    paths = [FIXTURES / f"{name}.safetensors" for name in ("pretrained", "task_cars", "task_half", "task_mnist")]
    loaded = compute_deltas(read_checkpoint(paths[0]), [read_checkpoint(p) for p in paths[1:]], labels=["a", "b", "c"])
    with contextlib.ExitStack() as stack:
        pre, *finetuned = (stack.enter_context(store._Reader(path)) for path in paths)
        streamed = compute_deltas(pre, finetuned, labels=["a", "b", "c"])
    assert [(tv.source_name, tv.index) for tv in streamed] == [("a", 1), ("b", 2), ("c", 3)]
    assert streamed == loaded


def write_models(folder, models: dict[str, dict[str, list[float]]], nan_at: tuple[str, int] | None = None) -> list:
    """Each model written to ``<folder>/<stem>.safetensors``, in order; ``nan_at`` (stem, value index) makes that
    value of the model's single tensor a NaN in the file, which no TensorMap holds."""
    paths = []
    for stem, tensors in models.items():
        path = folder / f"{stem}.safetensors"
        write_checkpoint(tmap(**tensors), path)
        if nan_at is not None and nan_at[0] == stem:
            blob = bytearray(path.read_bytes())
            offset = len(blob) - 4 * (len(next(iter(tensors.values()))) - nan_at[1])
            blob[offset : offset + 4] = struct.pack("<f", float("nan"))
            path.write_bytes(bytes(blob))
        paths.append(path)
    return paths


def deltas_error(paths, loaded: bool, run=compute_deltas) -> str:
    """The message of the error ``run`` (``compute_deltas``) raises on the models at ``paths``, pre-trained first,
    given loaded maps or open readers; loading a model that holds a NaN raises the same message."""
    with pytest.raises(CheckpointError) as caught, contextlib.ExitStack() as stack:
        if loaded:
            pre, *finetuned = (read_checkpoint(path) for path in paths)
        else:
            pre, *finetuned = (stack.enter_context(store._Reader(path)) for path in paths)
        run(pre, finetuned)
    return str(caught.value)


@pytest.mark.parametrize("loaded", [False, True])
def test_non_finite_fine_tuned_value_is_reported_as_the_file_s_own_error(tmp_path, loaded):
    # the NaN's difference is NaN too, and 3e38 - (-3e38) overflows beside it; still the file's error comes first
    models = {"pre": {"x": [-3e38, 0.0, 1.0]}, "near": {"x": [0.0, 1.0, 1.0]}, "far": {"x": [3e38, 0.0, 1.0]}}
    paths = write_models(tmp_path, models, nan_at=("far", 1))
    assert deltas_error(paths, loaded) == f"{paths[2]}: tensor 'x': non-finite value (NaN or Inf)"


@pytest.mark.parametrize("loaded", [False, True])
def test_overflowing_task_vector_is_reported_before_a_later_task_s_faults(tmp_path, loaded):
    # through readers, the later task's file also holds a NaN; a loaded map could not, so there it is finite
    models = {"pre": {"x": [-3e38, 0.0]}, "near": {"x": [3e38, 1.0]}, "far": {"x": [0.0, 1.0]}}
    paths = write_models(tmp_path, models, nan_at=None if loaded else ("far", 1))
    expected = "task1: tensor 'x': task vector (fine-tuned minus pre-trained) overflows float32"
    assert deltas_error(paths, loaded) == expected


@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("faults", [{"nan"}, {"overflow"}, {"nan", "overflow"}])
def test_weave_block_of_task_vectors_raises_the_first_faulty_checkpoint_s_error(tmp_path, loaded, faults):
    # weave makes a tensor's task vectors as one block, checked once; the error is still that of the first faulty
    # checkpoint, and the same as one task vector at a time gives: task 2's file holds a NaN (which loading
    # refuses with the same message), task 3's difference overflows, or both
    models = {"pre": {"x": [-3e38, 0.0, 1.0]}, "t1": {"x": [0.0, 1.0, 1.0]}, "t2": {"x": [0.0, 1.0, 1.0]},
              "t3": {"x": [3e38, 0.0, 1.0] if "overflow" in faults else [0.0, 0.0, 1.0]}}
    paths = write_models(tmp_path, models, nan_at=("t2", 1) if "nan" in faults else None)
    if "nan" in faults:
        expected = f"{paths[2]}: tensor 'x': non-finite value (NaN or Inf)"
    else:
        expected = "task3: tensor 'x': task vector (fine-tuned minus pre-trained) overflows float32"
    woven = deltas_error(paths, loaded, lambda pre, finetuned: weave(pre, finetuned, MergeSpec("task_arithmetic")))
    assert woven == deltas_error(paths, loaded) == expected


def test_task_vectors_leave_their_inputs_as_they_were():
    # a loaded map's values are read-only, so its task vector is a new array; a reader reads a fresh buffer
    # each time, so the task vector made in it changes nothing a later read sees
    paths = [FIXTURES / f"{name}.safetensors" for name in ("pretrained", "task_cars", "task_half")]
    loaded = [read_checkpoint(path) for path in paths]
    compute_deltas(loaded[0], loaded[1:])
    assert loaded == [read_checkpoint(path) for path in paths]
    with contextlib.ExitStack() as stack:
        pre, *finetuned = (stack.enter_context(store._Reader(path)) for path in paths)
        compute_deltas(pre, finetuned)
        for reader, expected in zip(finetuned, loaded[1:]):
            assert {name: reader.array(name).tobytes() for name in reader.names} == {
                name: t.values.tobytes() for name, t in expected.items()}


def test_compute_deltas_requires_a_finetuned_checkpoint():
    with pytest.raises(ValueError, match="at least one fine-tuned checkpoint"):
        compute_deltas(tmap(w=[1.0]), [])


def test_cosine_matrix_names_the_mismatched_task_vector():
    vectors = [TaskVector(tmap(w=[1.0]), "a", 1), TaskVector(tmap(w=[1.0]), "b", 2), TaskVector(tmap(v=[1.0]), "c", 3)]
    with pytest.raises(FingerprintMismatch, match="task vector 3: missing tensor 'w'"):
        cosine_matrix(vectors)
    with pytest.raises(ValueError, match="cosine_matrix needs at least one task vector"):
        cosine_matrix([])


def test_compute_deltas_shape_mismatch():
    pre = tmap(w=[1.0, 2.0])
    bad = tmap(w=[1.0, 2.0, 3.0])
    with pytest.raises(FingerprintMismatch, match="'w'"):
        compute_deltas(pre, [bad])


def test_compute_deltas_name_mismatch():
    pre = tmap(w=[1.0])
    bad = tmap(v=[1.0])
    with pytest.raises(FingerprintMismatch):
        compute_deltas(pre, [bad])


def test_add_and_recover():
    base = tmap(w=[1.0, 1.0])
    delta = tmap(w=[2.0, -2.0])
    assert add(base, delta).array("w").tolist() == [3.0, -1.0]
    assert add(base, tmap(w=[0.0, 0.0])) == base


def test_add_matches_per_element_oracle_exactly(rng):
    base = random_map(rng, {"w": (200,)})
    delta = random_map(rng, {"w": (200,)})
    out = add(base, delta).array("w")
    for p in range(200):
        assert out[p] == np.float32(base.array("w")[p]) + np.float32(delta.array("w")[p])


def test_deltas_then_add_recovers(rng):
    for _ in range(10):
        pre, (ft,) = random_instance(rng, 1)
        (delta,) = compute_deltas(pre, [ft])
        recovered = add(pre, delta.delta)
        for name in pre:
            np.testing.assert_allclose(
                recovered.array(name), ft.array(name), atol=1e-6
            )


def test_cosine_orthogonal():
    v1 = TaskVector(tmap(w=[1.0, 0.0]), "a", 1)
    v2 = TaskVector(tmap(w=[0.0, 1.0]), "b", 2)
    matrix = cosine_matrix([v1, v2])
    assert matrix.labels == ("a", "b")
    assert matrix.values[0][0] == 1.0 and matrix.values[1][1] == 1.0
    assert matrix.values[0][1] == 0.0 and matrix.values[1][0] == 0.0


def test_cosine_positive_scaling_invariance():
    v1 = TaskVector(tmap(w=[1.0, -2.0, 0.5]), "a", 1)
    v2 = TaskVector(tmap(w=[2.0, -4.0, 1.0]), "b", 2)
    matrix = cosine_matrix([v1, v2])
    assert matrix.values[0][1] == pytest.approx(1.0, abs=1e-6)


def test_cosine_matches_dot_product_oracle(rng):
    vectors = as_task_vectors([random_map(rng, {"a": (30,), "b": (4, 5)}) for _ in range(3)])
    matrix = cosine_matrix(vectors)
    flat = [
        [float(v) for name in tv.delta for v in tv.delta.array(name).ravel()]
        for tv in vectors
    ]
    for i in range(3):
        for j in range(3):
            dot = math.fsum(x * y for x, y in zip(flat[i], flat[j]))
            ni = math.sqrt(math.fsum(x * x for x in flat[i]))
            nj = math.sqrt(math.fsum(x * x for x in flat[j]))
            assert abs(matrix.values[i][j] - dot / (ni * nj)) < 1e-6


def test_cosine_zero_vector_rule():
    zero = TaskVector(tmap(w=[0.0, 0.0]), "zero", 1)
    other = TaskVector(tmap(w=[1.0, 2.0]), "x", 2)
    matrix = cosine_matrix([zero, other])
    assert matrix.values[0][0] == 1.0
    assert matrix.values[0][1] == 0.0 and matrix.values[1][0] == 0.0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1e3, 1e3, width=32), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.floats(0.01, 100.0),
)
def test_cosine_properties(rows, scale):
    vectors = [
        TaskVector(tmap(w=row), f"v{i}", i + 1) for i, row in enumerate(rows)
    ]
    matrix = cosine_matrix(vectors)
    values = np.array(matrix.values)
    assert np.array_equal(values, values.T)
    assert np.all(np.diag(values) == 1.0)
    assert np.all(np.abs(values) <= 1.0 + 1e-6)
    scaled = [
        TaskVector(tmap(w=[scale * x for x in rows[0]]), "v0", 1),
        *vectors[1:],
    ]
    rescaled = cosine_matrix(scaled)
    assert np.allclose(np.array(rescaled.values), values, atol=1e-6)


def test_cosine_json_shape():
    data = cosine_matrix([TaskVector(tmap(w=[1.0]), "only", 1)]).to_json()
    import json

    parsed = json.loads(data)
    assert parsed == {"labels": ["only"], "values": [[1.0]]}


def test_cosine_json_text():
    text = SimilarityMatrix(("a", "b"), ((1.0, 0.25), (0.25, 1.0))).to_json()
    assert text == (
        '{\n  "labels": [\n    "a",\n    "b"\n  ],\n'
        '  "values": [\n    [\n      1.0,\n      0.25\n    ],\n    [\n      0.25,\n      1.0\n    ]\n  ]\n}'
    )
