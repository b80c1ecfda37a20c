import builtins
import contextlib
import io
import json
import os
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorweave import (
    CheckpointError,
    FingerprintMismatch,
    MergeSpec,
    Tensor,
    TensorMap,
    add,
    compute_deltas,
    read_checkpoint,
    store,
    weave,
    write_checkpoint,
)

from tensorweave.cli import main
from tensorweave.store import require_compatible

from .conftest import FIXTURES
from . import oracles
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


def test_every_finite_f16_code_widens_to_the_bits_of_the_decoder_and_of_numpy(tmp_path):
    codes = np.arange(1 << 16, dtype=np.uint16)
    finite = codes[codes & 0x7C00 != 0x7C00]  # exponent all ones: Inf or NaN
    assert finite.size == 63_488
    target = tmp_path / "codes.safetensors"
    build_file(target, {"h": {"dtype": "F16", "shape": [finite.size], "data_offsets": [0, 2 * finite.size]}},
               finite.astype("<u2").tobytes())
    with store._Reader(target) as reader:
        widened = reader.array("h")
    assert widened.tobytes() == np.array([half_to_float(int(code)) for code in finite], np.float32).tobytes()
    assert widened.tobytes() == finite.view(np.float16).astype(np.float32).tobytes()


def test_every_non_finite_f16_code_is_refused_naming_file_and_tensor(tmp_path):
    codes = [code for code in range(1 << 16) if code & 0x7C00 == 0x7C00]
    assert len(codes) == 2048
    target = tmp_path / "non_finite.safetensors"
    entries = {f"c{code:04x}": {"dtype": "F16", "shape": [], "data_offsets": [2 * i, 2 * i + 2]}
               for i, code in enumerate(codes)}
    build_file(target, entries, np.array(codes, dtype="<u2").tobytes())
    with store._Reader(target) as reader:
        for name in reader.names:
            with pytest.raises(CheckpointError) as caught:
                reader.tensor(name)
            assert str(caught.value) == f"{target}: tensor {name!r}: non-finite value (NaN or Inf)"


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


def test_write_is_f32_and_records_f16_origin(tmp_path):
    tensors = TensorMap(
        {"h": Tensor(np.array([0.5, 1.0], dtype=np.float32), stored_dtype="F16"),
         "f": np.array([2.0], dtype=np.float32)}
    )
    path = tmp_path / "written.safetensors"
    write_checkpoint(tensors, path)
    loaded = read_checkpoint(path)
    assert loaded["h"].stored_dtype == "F32"
    assert loaded.metadata == {"dtype.h": "F16"}
    for name in ("f", "h"):
        assert loaded.array(name).tobytes() == tensors.array(name).tobytes()


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
        # raw bytes: json.loads raises RecursionError on the first and a plain ValueError on the second
        (b"[" * 10_000, None),
        (b'{"a":{"dtype":"F32","shape":[' + b"9" * 5000 + b'],"data_offsets":[0,8]}}', None),
        # shapes numpy cannot hold: the byte count has more digits than int-to-str allows, and two zero-size
        # entries beside a tensor that tiles the payload, which pass every other check
        (b'{"a":{"dtype":"F32","shape":[' + b"9" * 4000 + b"," + b"9" * 4000 + b'],"data_offsets":[0,8]}}', "a"),
        (f32_entry() | {"z": {"dtype": "F32", "shape": [10**20, 0], "data_offsets": [0, 0]}}, "z"),
        (f32_entry() | {"z": {"dtype": "F16", "shape": [2**62, 2**62, 0], "data_offsets": [8, 8]}}, "z"),
    ],
    ids=["top-level-list", "metadata-int", "entry-list", "shape-negative", "shape-float", "shape-bool",
         "offsets-reversed", "offsets-three", "offsets-bool", "nested-too-deep", "shape-5000-digits",
         "shape-8000-digit-bytes", "zero-size-dimension-too-large", "zero-size-too-many-bytes"],
)
def test_malformed_header_names_file_and_tensor(tmp_path, capsys, header, tensor):
    target = tmp_path / "bad.safetensors"
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    target.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 8)
    with pytest.raises(CheckpointError) as caught:
        read_checkpoint(target)
    assert str(target) in str(caught.value)
    assert len(str(caught.value)) < len(str(target)) + 200  # no huge integer is formatted
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


@pytest.mark.parametrize(
    "entries, payload, message",
    [
        ({"a": [0, 4], "b": [8, 12]}, 12, "tensor 'b': 4 unused payload bytes before its data"),
        ({"a": [4, 8]}, 8, "tensor 'a': 4 unused payload bytes before its data"),
        ({"a": [0, 4]}, 7, "3 unused payload bytes after the last tensor"),
        ({}, 1, "1 unused payload bytes after the last tensor"),
    ],
    ids=["gap", "leading-gap", "trailing", "trailing-no-tensor"],
)
def test_payload_must_be_entirely_indexed(tmp_path, capsys, entries, payload, message):
    # the format requires every payload byte to belong to a tensor, as the reference library enforces
    target = tmp_path / "holes.safetensors"
    header = {name: {"dtype": "F32", "shape": [(end - begin) // 4], "data_offsets": [begin, end]}
              for name, (begin, end) in entries.items()}
    build_file(target, header, b"\x00" * payload)
    with pytest.raises(CheckpointError) as caught:
        read_checkpoint(target)
    assert str(caught.value) == f"{target}: {message}"
    assert main(["inspect", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {caught.value}"]


def test_zero_size_tensors_may_share_an_offset(tmp_path):
    target = tmp_path / "empty.safetensors"
    build_file(
        target,
        {
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [0], "data_offsets": [4, 4]},
            "c": {"dtype": "F16", "shape": [2, 0], "data_offsets": [4, 4]},
            "d": {"dtype": "F32", "shape": [0], "data_offsets": [0, 0]},
            "e": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
        },
        struct.pack("<2f", 1.5, -2.0),
    )
    loaded = read_checkpoint(target)
    assert {name: loaded[name].shape for name in loaded} == {"a": (1,), "b": (0,), "c": (2, 0), "d": (0,), "e": (1,)}
    assert loaded.array("e").tolist() == [-2.0]


FIXTURE_FILES = sorted(FIXTURES.glob("*.safetensors"))
# bytes that keep a JSON header well formed more often than a random byte does
JSON_BYTES = st.sampled_from(b'0123456789 ,:[]{}"')


@st.composite
def mutated_fixture(draw) -> bytes:
    """A committed fixture with one byte changed (in the header half of the time), truncated, or extended."""
    data = bytearray(draw(st.sampled_from(FIXTURE_FILES)).read_bytes())
    kind = draw(st.sampled_from(["byte", "truncate", "append"]))
    if kind == "byte":
        header_end = 8 + struct.unpack_from("<Q", data)[0]
        at = draw(st.integers(0, header_end - 1) | st.integers(0, len(data) - 1))
        data[at] = draw((st.integers(0, 255) | JSON_BYTES).filter(lambda byte: byte != data[at]))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_fixture())
def test_reader_agrees_with_the_reference_reader_on_mutated_fixtures(tmp_path_factory, data):
    # the reader either refuses a file with a CheckpointError, as the reference refuses it, or loads the
    # names, stored dtypes, shapes, value bits and metadata that the reference loads
    # inspect, which reads every tensor the same way, exits 0, or exits 1 with the reader's error as its one line
    target = tmp_path_factory.getbasetemp() / "mutated.safetensors"
    target.unlink(missing_ok=True)  # truncating a file just written can wait on the file system to flush it
    target.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):  # capsys is function-scoped
        code = main(["inspect", str(target)])
    try:
        with store._Reader(target) as reader:
            loaded = {name: reader.tensor(name) for name in reader.names}
    except CheckpointError as exc:
        assert (code, out.getvalue(), err.getvalue().splitlines()) == (1, "", [f"error: {exc}"])
        with pytest.raises(ValueError):
            oracles.read_reference(target)
        return
    assert (code, err.getvalue()) == (0, "")
    tensors, metadata = oracles.read_reference(target)
    assert reader.metadata == metadata
    assert sorted(loaded) == sorted(tensors)
    for name, (dtype, shape, values) in tensors.items():
        assert (loaded[name].stored_dtype, loaded[name].shape) == (dtype, shape)
        assert loaded[name].values.tobytes() == values.tobytes()


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


@pytest.mark.parametrize("values, stored_dtype, error, message", [
    (np.ones(2, dtype=np.float32), "BF16", CheckpointError, "unsupported dtype 'BF16'"),
    (np.array(["1.0"]), "F32", TypeError, "expected numeric values, got dtype <U3"),
    (np.array([None]), "F32", TypeError, "expected numeric values, got dtype object"),
])
def test_tensor_refuses_an_unsupported_dtype_and_non_numeric_values(values, stored_dtype, error, message):
    with pytest.raises(error) as caught:
        Tensor(values, stored_dtype)
    assert str(caught.value) == message


def test_tensor_maps_differ_in_names_metadata_dtype_shape_or_bits():
    one = np.ones(2, dtype=np.float32)
    base = TensorMap({"a": one}, {"k": "v"})
    assert base == TensorMap({"a": one.copy()}, {"k": "v"})
    assert base != TensorMap({"b": one}, {"k": "v"})
    assert base != TensorMap({"a": one}, {"k": "w"})
    assert base != TensorMap({"a": Tensor(one, "F16")}, {"k": "v"})
    assert base != TensorMap({"a": one.reshape(2, 1)}, {"k": "v"})
    assert base != TensorMap({"a": np.array([1.0, -1.0], dtype=np.float32)}, {"k": "v"})
    assert TensorMap({"a": np.zeros(1, dtype=np.float32)}) != TensorMap({"a": -np.zeros(1, dtype=np.float32)})
    assert base.__eq__({"a": one}) is NotImplemented and base != {"a": one}


def test_require_compatible_names_an_unexpected_tensor():
    one = np.ones(1, dtype=np.float32)
    with pytest.raises(FingerprintMismatch) as caught:
        require_compatible(TensorMap({"a": one}), TensorMap({"a": one, "c": one, "b": one}))
    assert str(caught.value) == "input: unexpected tensor 'b'"


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
        (lambda: weave(base, [base, base], spec), 3),  # the block of task vectors, the top member, the woven map
        (lambda: compute_deltas(base, [base, base]), 2),  # each task vector, one at a time
    ):
        calls.clear()
        build()
        assert len(calls) == maps * len(shapes)


def test_read_holds_only_the_float32_values(tmp_path):
    # a small F32 tensor must not keep the file's bytes (here mostly F16 payload) alive
    path = tmp_path / "mixed.safetensors"
    bias, weight = np.arange(8, dtype=np.float32).tobytes(), np.linspace(-1.0, 1.0, 1 << 20, dtype=np.float16).tobytes()
    build_file(path, {"bias": {"dtype": "F32", "shape": [8], "data_offsets": [0, 32]},
                      "weight": {"dtype": "F16", "shape": [1 << 20], "data_offsets": [32, 32 + len(weight)]}},
               bias + weight)
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


def fail_write(monkeypatch, number):
    """Make the ``number``-th write to a file the store opens to write, counted across opens, fail as a full disk."""
    writes = [0]

    class FailingHandle:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            writes[0] += 1
            if writes[0] == number:
                raise OSError("No space left on device")
            return self.handle.write(data)

    def open_failing(path, mode, **kwargs):  # checkpoint readers are left alone
        handle = builtins.open(path, mode, **kwargs)
        return handle if mode == "rb" else FailingHandle(handle)

    monkeypatch.setattr(store, "open", open_failing, raising=False)


def test_failed_write_leaves_existing_target_intact(tmp_path, monkeypatch):
    target = tmp_path / "out.safetensors"
    write_checkpoint(TensorMap({"a": np.arange(3, dtype=np.float32)}), target)
    before = target.read_bytes()
    fail_write(monkeypatch, 2)  # the first payload, after the length prefix and the header (one write)
    replacement = TensorMap({"a": np.ones(3, dtype=np.float32), "b": np.ones(5, dtype=np.float32)})
    with pytest.raises(OSError, match="No space"):
        write_checkpoint(replacement, target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.safetensors"]


def test_failed_header_write_leaves_no_partial_and_the_target_intact(tmp_path, monkeypatch, capsys):
    # the writer makes its partial with the length prefix and the header; if that fails, the constructor
    # removes the partial itself, since no with block has been entered to do it
    target = tmp_path / "out.safetensors"
    write_checkpoint(TensorMap({"a": np.arange(3, dtype=np.float32)}), target)
    before = target.read_bytes()
    fail_write(monkeypatch, 1)
    with pytest.raises(OSError, match="No space"):
        store._Writer(target, TensorMap({"a": np.ones(3, dtype=np.float32)}).items(), {})
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.safetensors"]
    fail_write(monkeypatch, 1)
    argv = ["merge", "--method", "task_arithmetic", "--pretrained", str(FIXTURES / "pretrained.safetensors"),
            "--out", str(target), str(FIXTURES / "task_cars.safetensors")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.safetensors"]


@pytest.mark.parametrize("stem", ["m" * 243, "\u00e9" * 121], ids=["ascii", "two-byte"])
def test_write_checkpoint_takes_any_name_the_filesystem_takes(tmp_path, stem):
    # the partial's name adds 26 bytes to the target's, so it keeps only the part of the target's name that fits
    # 255 bytes, cut by bytes: a 255-byte name, and a 254-byte one of 2-byte characters whose cut splits one
    target = tmp_path / f"{stem}.safetensors"
    model = TensorMap({"a": np.arange(3, dtype=np.float32)})
    write_checkpoint(model, target)
    assert read_checkpoint(target) == model
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


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


def test_stream_bounds_the_names_in_flight_when_the_first_is_slow():
    # while the first name is produced, the workers run ahead, but at most 2 x threads names may be
    # produced and not yet given to the sinks; an unbounded executor.map would produce every other name
    threads, names = 2, [f"t{i:02d}" for i in range(24)]
    lock, waiting, most, given = threading.Lock(), set(), [0], []

    def produce(name):
        if name == names[0]:
            time.sleep(0.2)
        with lock:
            waiting.add(name)
            most[0] = max(most[0], len(waiting))
        return [name]

    def sink(name, tensor):
        with lock:
            waiting.remove(name)
        given.append(tensor)

    store._stream(names, produce, [sink], threads)
    assert given == names
    assert 1 < most[0] <= 2 * threads


def test_stream_at_one_thread_produces_on_the_calling_thread_in_step_with_the_sinks():
    events = []

    def produce(name):
        for pos in range(2):
            events.append(("make", name, pos, threading.get_ident()))
            yield f"{name}{pos}"

    sinks = [lambda name, tensor, pos=pos: events.append(("sink", name, pos, tensor)) for pos in range(2)]
    store._stream(["a", "b"], produce, sinks)
    main = threading.get_ident()
    assert events == [
        (kind, name, pos, main if kind == "make" else f"{name}{pos}")
        for name in "ab" for pos in range(2) for kind in ("make", "sink")
    ]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_stream_raises_the_fault_of_the_first_faulty_name(threads):
    # with workers, the later name's fault comes first in time; the earlier name's is still the one raised
    def produce(name):
        if name == "t2":
            time.sleep(0.1)
            raise ValueError("fault in t2")
        if name == "t3":
            raise ValueError("fault in t3")
        return [name]

    given = []
    with pytest.raises(ValueError, match="^fault in t2$"):
        store._stream([f"t{i}" for i in range(8)], produce, [lambda name, tensor: given.append(name)], threads)
    assert given == ["t0", "t1"]
