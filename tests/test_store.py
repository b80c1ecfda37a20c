import builtins
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorweave import (
    CheckpointError,
    MergeSpec,
    Tensor,
    TensorMap,
    add,
    read_checkpoint,
    store,
    weave,
    write_checkpoint,
)

from tensorweave.cli import main

from .conftest import FIXTURES
from .oracles import half_to_float


def build_file(path, entries, payload, metadata=None):
    """Hand-rolled container writer independent of the library."""
    header = dict(entries)
    if metadata is not None:
        header["__metadata__"] = metadata
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)


def test_single_tensor_decodes(tmp_path):
    target = tmp_path / "one.safetensors"
    payload = struct.pack("<2f", 1.0, -2.0)
    build_file(target, {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, payload)
    loaded = read_checkpoint(target)
    assert loaded.names == ["w"]
    assert loaded.array("w").tolist() == [1.0, -2.0]
    assert loaded["w"].stored_dtype == "F32"


def test_empty_checkpoint(tmp_path):
    target = tmp_path / "empty.safetensors"
    build_file(target, {}, b"")
    loaded = read_checkpoint(target)
    assert len(loaded) == 0
    assert loaded.metadata == {}


def test_f16_widens_per_bit_level_decoder(tmp_path):
    # 0x3C00=1.0 plus a subnormal, a negative, and a fraction
    patterns = [0x3C00, 0x0001, 0xC000, 0x3555]
    target = tmp_path / "half.safetensors"
    payload = b"".join(struct.pack("<H", bits) for bits in patterns)
    build_file(
        target,
        {"h": {"dtype": "F16", "shape": [len(patterns)], "data_offsets": [0, len(payload)]}},
        payload,
    )
    loaded = read_checkpoint(target)
    assert loaded["h"].stored_dtype == "F16"
    assert loaded.array("h").dtype == np.float32
    for got, bits in zip(loaded.array("h"), patterns):
        assert float(got) == half_to_float(bits)
    assert float(loaded.array("h")[0]) == 1.0


def test_round_trip_small(tmp_path):
    original = TensorMap({"w": np.array([1.0, -2.0], dtype=np.float32)})
    target = tmp_path / "rt.safetensors"
    write_checkpoint(original, target)
    assert read_checkpoint(target) == original


def test_round_trip_empty_map(tmp_path):
    target = tmp_path / "rt_empty.safetensors"
    write_checkpoint(TensorMap(), target)
    raw = target.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    assert len(raw) == 8 + header_len
    assert read_checkpoint(target) == TensorMap()


def test_round_trip_bit_exact_10k(tmp_path):
    rng = np.random.default_rng(7)
    original = TensorMap(
        {
            "big": rng.standard_normal(10_000).astype(np.float32),
            "small": rng.standard_normal((25, 4)).astype(np.float32),
        }
    )
    first, second = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    write_checkpoint(original, first)
    loaded = read_checkpoint(first)
    write_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.array("big").tobytes() == original.array("big").tobytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=40), st.integers(0, 2**32))
def test_round_trip_property(tmp_path_factory, values, salt):
    folder = tmp_path_factory.mktemp("rt")
    original = TensorMap({"x": np.array(values, dtype=np.float32), "y": np.array([salt], dtype=np.float32)})
    target = folder / "p.safetensors"
    write_checkpoint(original, target)
    assert read_checkpoint(target) == original


def test_serialization_is_canonical(tmp_path):
    values = {"b": np.ones(3, dtype=np.float32), "a": np.zeros(2, dtype=np.float32)}
    one, two = tmp_path / "one.safetensors", tmp_path / "two.safetensors"
    write_checkpoint(TensorMap(values), one)
    write_checkpoint(TensorMap(dict(reversed(values.items()))), two)
    assert one.read_bytes() == two.read_bytes()


def test_offsets_contiguous_and_sized(tmp_path):
    original = TensorMap(
        {"a": np.ones((2, 2), dtype=np.float32), "b": np.zeros(3, dtype=np.float32), "s": np.float32(1)}
    )
    target = tmp_path / "layout.safetensors"
    write_checkpoint(original, target)
    raw = target.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + header_len])
    header.pop("__metadata__", None)
    spans = sorted(entry["data_offsets"] for entry in header.values())
    assert spans[0][0] == 0
    for (_, end), (begin, _) in zip(spans, spans[1:]):
        assert begin == end
    assert len(raw) == 8 + header_len + spans[-1][1]


def test_dtype_policy_keep_and_force(tmp_path):
    tensors = TensorMap(
        {"h": Tensor(np.array([0.5, 1.0], dtype=np.float32), stored_dtype="F16"),
         "f": np.array([2.0], dtype=np.float32)}
    )
    kept = tmp_path / "kept.safetensors"
    write_checkpoint(tensors, kept, dtype_policy="keep")
    loaded = read_checkpoint(kept)
    assert loaded["h"].stored_dtype == "F16"
    assert loaded.array("h").tolist() == [0.5, 1.0]

    forced = tmp_path / "forced.safetensors"
    write_checkpoint(tensors, forced)
    loaded = read_checkpoint(forced)
    assert loaded["h"].stored_dtype == "F32"
    assert loaded.metadata["dtype.h"] == "F16"


def test_malformed_header_json(tmp_path):
    target = tmp_path / "bad.safetensors"
    blob = b"{not json"
    target.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(CheckpointError, match="JSON"):
        read_checkpoint(target)


def test_truncated_file(tmp_path):
    target = tmp_path / "trunc.safetensors"
    target.write_bytes(b"\x00\x01")
    with pytest.raises(CheckpointError, match="malformed header"):
        read_checkpoint(target)


def test_header_length_beyond_file(tmp_path):
    target = tmp_path / "hlen.safetensors"
    target.write_bytes(struct.pack("<Q", 1000) + b"{}")
    with pytest.raises(CheckpointError, match="malformed header"):
        read_checkpoint(target)


def f32_entry(**fields):
    return {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8], **fields}}


@pytest.mark.parametrize(
    "header, tensor",
    [
        ([1, 2], None),
        ({"__metadata__": {"k": 1}}, None),
        ({"a": [0, 8]}, "a"),
        (f32_entry(shape=[-1]), "a"),
        (f32_entry(shape=[2.0]), "a"),
        (f32_entry(shape=[True, 2]), "a"),
        (f32_entry(data_offsets=[8, 0]), "a"),
        (f32_entry(data_offsets=[0, 4, 8]), "a"),
        (f32_entry(data_offsets=[False, 8]), "a"),
    ],
    ids=["top-level-list", "metadata-int", "entry-list", "shape-negative", "shape-float", "shape-bool",
         "offsets-reversed", "offsets-three", "offsets-bool"],
)
def test_malformed_header_names_file_and_tensor(tmp_path, capsys, header, tensor):
    target = tmp_path / "bad.safetensors"
    blob = json.dumps(header).encode()
    target.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 8)
    with pytest.raises(CheckpointError) as caught:
        read_checkpoint(target)
    assert str(target) in str(caught.value)
    if tensor is not None:
        assert f"tensor {tensor!r}" in str(caught.value)
    assert main(["inspect", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {caught.value}"]


def test_duplicate_header_key_names_file_and_key(tmp_path, capsys):
    # json.loads alone keeps the last of two equal keys, so the second entry would load silently
    target = tmp_path / "dup.safetensors"
    blob = (
        b'{"w":{"dtype":"F32","shape":[4],"data_offsets":[0,16]},'
        b'"w":{"dtype":"F32","shape":[4],"data_offsets":[16,32]}}'
    )
    payload = struct.pack("<8f", 0, 1, 2, 3, -0.0, -1, -2, -3)
    target.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)
    with pytest.raises(CheckpointError) as caught:
        read_checkpoint(target)
    assert str(caught.value) == f"{target}: malformed header: duplicate key 'w'"
    assert main(["inspect", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {caught.value}"]


def test_overlapping_offsets(tmp_path):
    target = tmp_path / "overlap.safetensors"
    payload = struct.pack("<3f", 1.0, 2.0, 3.0)
    build_file(
        target,
        {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
        },
        payload,
    )
    with pytest.raises(CheckpointError, match="overlap"):
        read_checkpoint(target)


def test_out_of_bounds_offsets(tmp_path):
    target = tmp_path / "oob.safetensors"
    build_file(target, {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, b"\x00" * 4)
    with pytest.raises(CheckpointError, match="out of bounds"):
        read_checkpoint(target)


def test_unsupported_dtype(tmp_path):
    target = tmp_path / "dtype.safetensors"
    build_file(target, {"a": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}}, b"\x00" * 8)
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        read_checkpoint(target)


def test_non_finite_payload_rejected(tmp_path):
    target = tmp_path / "nan.safetensors"
    payload = struct.pack("<2f", 1.0, float("nan"))
    build_file(target, {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, payload)
    with pytest.raises(CheckpointError, match="non-finite"):
        read_checkpoint(target)
    with pytest.raises(CheckpointError, match="non-finite"):
        TensorMap({"a": np.array([np.inf], dtype=np.float32)})


def test_each_produced_tensor_is_checked_for_finiteness_once(tmp_path, monkeypatch):
    shapes = {"a": (3, 2), "b": (5,), "c": (), "d": (2, 2)}
    arrays = {name: np.ones(shape, dtype=np.float32) for name, shape in shapes.items()}
    base = TensorMap(arrays)
    path = tmp_path / "base.safetensors"
    write_checkpoint(base, path)
    calls = []
    real_isfinite = np.isfinite

    def counting_isfinite(*args, **kwargs):
        calls.append(args[0].shape)
        return real_isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    spec = MergeSpec("task_arithmetic")
    for build, maps in (
        (lambda: read_checkpoint(path), 1),
        (lambda: add(base, base), 1),
        (lambda: TensorMap(arrays), 1),
        (lambda: weave(base, [base, base], spec), 4),  # two task vectors, the top member and the woven map
    ):
        calls.clear()
        build()
        assert len(calls) == maps * len(shapes)


def test_read_holds_only_the_float32_values(tmp_path):
    # a small F32 tensor must not keep the file's bytes (here mostly F16 payload) alive
    path = tmp_path / "mixed.safetensors"
    weight = Tensor(np.linspace(-1.0, 1.0, 1 << 20, dtype=np.float32), stored_dtype="F16")
    write_checkpoint(TensorMap({"bias": np.arange(8, dtype=np.float32), "weight": weight}), path, dtype_policy="keep")
    tracemalloc.start()
    try:
        loaded = read_checkpoint(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = sum(tensor.values.nbytes for _, tensor in loaded.items())
    assert values == 4 * ((1 << 20) + 8)
    assert held <= values + (64 << 10)


def test_offset_span_must_match_element_count(tmp_path):
    target = tmp_path / "span.safetensors"
    build_file(target, {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}, b"\x00" * 8)
    with pytest.raises(CheckpointError, match="expected 12"):
        read_checkpoint(target)


def test_third_party_writer_loads():
    safetensors_numpy = pytest.importorskip("safetensors.numpy")
    import tempfile

    rng = np.random.default_rng(11)
    arrays = {
        "w": rng.standard_normal((3, 2)).astype(np.float32),
        "h": rng.standard_normal(5).astype(np.float16),
    }
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/third.safetensors"
        safetensors_numpy.save_file(arrays, path, metadata={"origin": "external"})
        loaded = read_checkpoint(path)
    assert loaded.array("w").tobytes() == arrays["w"].tobytes()
    assert loaded["h"].stored_dtype == "F16"
    np.testing.assert_array_equal(loaded.array("h"), arrays["h"].astype(np.float32))
    assert loaded.metadata == {"origin": "external"}


def test_own_writer_readable_by_third_party(tmp_path):
    safetensors_numpy = pytest.importorskip("safetensors.numpy")
    original = TensorMap({"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
    target = tmp_path / "ours.safetensors"
    write_checkpoint(original, target)
    theirs = safetensors_numpy.load_file(target)
    np.testing.assert_array_equal(theirs["w"], original.array("w"))


def test_committed_fixture_with_f16_loads():
    loaded = read_checkpoint(FIXTURES / "task_half.safetensors")
    assert loaded["head.weight"].stored_dtype == "F16"
    assert loaded.array("head.weight").dtype == np.float32


def test_canonical_iteration_order():
    tensors = TensorMap({"z": np.ones(1, dtype=np.float32), "a": np.ones(1, dtype=np.float32)})
    assert tensors.names == ["a", "z"]


def test_reserved_metadata_name_rejected():
    with pytest.raises(CheckpointError, match="reserved"):
        TensorMap({"__metadata__": np.ones(1, dtype=np.float32)})


def test_invalid_dtype_policy_rejected(tmp_path):
    with pytest.raises(ValueError, match="dtype_policy"):
        write_checkpoint(TensorMap(), tmp_path / "x.safetensors", dtype_policy="f64")


def test_keep_policy_rejects_f16_overflow(tmp_path):
    big = TensorMap({"h": Tensor(np.array([1e20], dtype=np.float32), stored_dtype="F16")})
    with pytest.raises(CheckpointError, match="overflows"):
        write_checkpoint(big, tmp_path / "x.safetensors", dtype_policy="keep")


def test_failed_write_leaves_existing_target_intact(tmp_path, monkeypatch):
    target = tmp_path / "out.safetensors"
    write_checkpoint(TensorMap({"a": np.arange(3, dtype=np.float32)}), target)
    before = target.read_bytes()

    class FailOnFirstBlob:
        def __init__(self, handle):
            self.handle, self.writes = handle, 0

        def close(self):  # the writer closes its handle itself, outside a with statement
            self.handle.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:  # after the length prefix and the header
                raise OSError("No space left on device")
            return self.handle.write(data)

    monkeypatch.setattr(store, "open", lambda *a, **k: FailOnFirstBlob(builtins.open(*a, **k)), raising=False)
    replacement = TensorMap({"a": np.ones(3, dtype=np.float32), "b": np.ones(5, dtype=np.float32)})
    with pytest.raises(OSError, match="No space"):
        write_checkpoint(replacement, target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.safetensors"]


def test_header_length_above_the_limit_is_rejected_before_reading(tmp_path):
    # a sparse file that holds the declared header length, so only the limit can reject it
    target = tmp_path / "huge.safetensors"
    declared = 100_000_001
    with open(target, "wb") as handle:
        handle.write(struct.pack("<Q", declared))
        handle.truncate(8 + declared)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError) as caught:
            read_checkpoint(target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (
        f"{target}: malformed header: declared length {declared} exceeds the limit of 100000000 bytes"
    )
    assert peak < 1 << 20


def test_reader_reads_each_tensor_as_the_loaded_map():
    path = FIXTURES / "task_half.safetensors"
    loaded = read_checkpoint(path)
    with store._Reader(path) as reader:
        assert reader.names == loaded.names
        assert reader.metadata == loaded.metadata
        for name, entry in reader.items():
            assert (entry.shape, entry.stored_dtype, entry.size) == (loaded[name].shape, loaded[name].stored_dtype,
                                                                      loaded[name].size)
            values = reader.array(name)
            assert values.dtype == np.float32 and not values.flags.writeable
            assert values.tobytes() == loaded.array(name).tobytes()


def test_reader_checks_values_only_when_a_tensor_is_read(tmp_path):
    target = tmp_path / "nan.safetensors"
    payload = struct.pack("<3f", 1.0, 2.0, float("nan"))
    build_file(target, {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
                        "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]}}, payload)
    with store._Reader(target) as reader:
        assert reader.array("a").tolist() == [1.0, 2.0]
        with pytest.raises(CheckpointError) as caught:
            reader.array("b")
    assert str(caught.value) == f"{target}: tensor 'b': non-finite value (NaN or Inf)"


def test_reader_of_a_file_truncated_after_opening_names_file_and_tensor(tmp_path):
    target = tmp_path / "cut.safetensors"
    write_checkpoint(TensorMap({"a": np.ones(4, dtype=np.float32), "b": np.ones(1000, dtype=np.float32)}), target)
    with store._Reader(target) as reader:
        os.truncate(target, target.stat().st_size - 8)
        assert reader.array("a").tolist() == [1.0] * 4
        with pytest.raises(CheckpointError) as caught:
            reader.array("b")
    assert str(caught.value) == f"{target}: tensor 'b': short read: the file ends after 3992 of 4000 payload bytes"


def test_writer_commits_only_a_complete_file(tmp_path):
    target = tmp_path / "w.safetensors"
    tensors = TensorMap({"a": np.ones(2, dtype=np.float32), "b": np.ones(3, dtype=np.float32)})
    with pytest.raises(ValueError, match="expected tensor 'a'"):
        with store._Writer(target, tensors.items(), {}) as writer:
            writer.write("b", tensors["b"])
    with pytest.raises(ValueError, match="tensor 'b' was never written"):
        with store._Writer(target, tensors.items(), {}) as writer:
            writer.write("a", tensors["a"])
    assert list(tmp_path.iterdir()) == []
