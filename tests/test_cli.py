import builtins
import json
import os
import random
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tensorweave import (
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TensorMap,
    add,
    compute_deltas,
    read_checkpoint,
    registry_lookup,
    store,
    weave,
    write_checkpoint,
)
from tensorweave.cli import main

from .conftest import FIXTURES, random_map

PRE = FIXTURES / "pretrained.safetensors"
CARS = FIXTURES / "task_cars.safetensors"
MNIST = FIXTURES / "task_mnist.safetensors"
HALF = FIXTURES / "task_half.safetensors"


def run(*argv):
    return main([str(a) for a in argv])


def test_deltas_writes_one_file_per_input(tmp_path):
    out = tmp_path / "deltas"
    assert run("deltas", "--pretrained", PRE, "--out-dir", out, CARS, MNIST) == 0
    files = sorted(p.name for p in out.glob("*.safetensors"))
    assert files == ["task_cars.delta.safetensors", "task_mnist.delta.safetensors"]


def test_deltas_identity_input_gives_zero_delta(tmp_path):
    out = tmp_path / "deltas"
    assert run("deltas", "--pretrained", PRE, "--out-dir", out, PRE) == 0
    delta = read_checkpoint(out / "pretrained.delta.safetensors")
    for name in delta:
        assert not delta.array(name).any()


def test_deltas_shape_mismatch_names_tensor(tmp_path, capsys):
    bad = tmp_path / "bad.safetensors"
    write_checkpoint(random_map(random.Random(0), {"encoder.layer0.weight": (2, 2)}), bad)
    code = run("deltas", "--pretrained", PRE, "--out-dir", tmp_path / "d", bad)
    assert code == 1
    err = capsys.readouterr().err
    assert "missing tensor" in err or "shape" in err


def test_merge_matches_library_bitwise(tmp_path):
    out = tmp_path / "merged.safetensors"
    code = run(
        "merge", "--method", "ties", "--lambda", "1.0", "--keep-fraction", "0.2",
        "--pretrained", PRE, "--out", out, CARS, MNIST,
    )
    assert code == 0
    pre = read_checkpoint(PRE)
    deltas = compute_deltas(pre, [read_checkpoint(CARS), read_checkpoint(MNIST)])
    spec = MergeSpec("ties", lam=1.0, params={"keep_fraction": 0.2})
    expected = add(pre, registry_lookup("ties")(deltas, spec))
    loaded = read_checkpoint(out)
    for name in expected:
        assert loaded.array(name).tobytes() == expected.array(name).tobytes()


def test_merge_unknown_method_exits_2(tmp_path, capsys):
    code = run("merge", "--method", "pcb", "--pretrained", PRE, "--out", tmp_path / "x", CARS)
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown" in err and "pcb" in err and "ties" in err


def test_merge_negative_lambda_exits_2(tmp_path, capsys):
    code = run(
        "merge", "--method", "task_arithmetic", "--lambda", "-1",
        "--pretrained", PRE, "--out", tmp_path / "x", CARS,
    )
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_merge_missing_method_param_exits_2(tmp_path, capsys):
    code = run("merge", "--method", "dare", "--pretrained", PRE, "--out", tmp_path / "x", CARS)
    assert code == 2
    assert "drop_rate" in capsys.readouterr().err


def test_float32_overflow_exits_1_naming_tensor(tmp_path, capsys):
    # deltas of 1.3e38 are finite, but their sum overflows float32 from lambda 0.9 (0.9 * 3.9e38)
    # and the re-based weights overflow at lambda 1.5 with one task
    pre = tmp_path / "pre.safetensors"
    write_checkpoint(TensorMap({"block.weight": np.full(4, 2e38, dtype=np.float32)}), pre)
    tasks = [tmp_path / f"task{i}.safetensors" for i in range(3)]
    for path in tasks:
        write_checkpoint(TensorMap({"block.weight": np.full(4, 3.3e38, dtype=np.float32)}), path)
    out = tmp_path / "out.safetensors"
    commands = [
        ("weave", "--method", "task_arithmetic", "--pretrained", pre, "--out", out, *tasks),
        ("analyze", "sweep", "--method", "task_arithmetic", "--pretrained", pre, "--out-dir", tmp_path / "s", *tasks),
        ("merge", "--method", "task_arithmetic", "--lambda", "1.5", "--pretrained", pre, "--out", out, tasks[0]),
    ]
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*command) == 1
        err = capsys.readouterr().err
        assert "'block.weight'" in err and "overflows float32" in err
        if command[0] != "merge":
            assert "at lambda 0.9 overflows" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_merged_delta_overflow_is_an_error_whatever_the_pooled_pick(tmp_path, capsys):
    # task vectors of 2e38 sum to 4e38, so the merged delta overflows float32 from lambda 0.9;
    # random pooling picks no overflowing member at seeds 0-2, which must not hide the overflow
    pre = tmp_path / "pre.safetensors"
    write_checkpoint(TensorMap({"w": np.zeros(4, dtype=np.float32)}), pre)
    tasks = [tmp_path / f"task{i}.safetensors" for i in range(2)]
    for path in tasks:
        write_checkpoint(TensorMap({"w": np.full(4, 2e38, dtype=np.float32)}), path)
    out = tmp_path / "out.safetensors"
    for seed in range(4):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "weave", "--method", "task_arithmetic", "--pooling", "random", "--seed", seed,
                "--pretrained", pre, "--out", out, *tasks,
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "'w': merged delta at lambda 0.9 overflows float32" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_rebase_overflow_exits_1_naming_tensor(tmp_path, capsys):
    # every member is finite (the top one is 1.5 x 1e37), but the re-base 3.3e38 + 1.5e37 overflows
    pre = tmp_path / "pre.safetensors"
    write_checkpoint(TensorMap({"block.weight": np.full(4, 3.3e38, dtype=np.float32)}), pre)
    task = tmp_path / "task.safetensors"
    write_checkpoint(TensorMap({"block.weight": np.full(4, 3.4e38, dtype=np.float32)}), task)
    out = tmp_path / "out.safetensors"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(
            "weave", "--method", "ties", "--keep-fraction", "1", "--pooling", "magmax",
            "--pretrained", pre, "--out", out, task,
        )
    assert code == 1
    err = capsys.readouterr().err
    assert "'block.weight': pre-trained plus pooled delta overflows float32" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_dare_rescale_overflow_exits_1_without_warning(tmp_path, capsys):
    # deltas of 1.3e38 and -3.4e38 are finite, but dare's 1 / (1 - 0.9) rescale overflows
    # float32; seed 2 keeps two elements in both tasks, where the opposite infinities sum to NaN
    pre = tmp_path / "pre.safetensors"
    write_checkpoint(TensorMap({"block.weight": np.full(64, 2e38, dtype=np.float32)}), pre)
    up, down = tmp_path / "up.safetensors", tmp_path / "down.safetensors"
    write_checkpoint(TensorMap({"block.weight": np.full(64, 3.3e38, dtype=np.float32)}), up)
    write_checkpoint(TensorMap({"block.weight": np.full(64, -1.4e38, dtype=np.float32)}), down)
    out = tmp_path / "out.safetensors"
    dare = ("--method", "dare", "--drop-rate", "0.9", "--seed", "2", "--pretrained", pre)
    commands = [
        ("weave", *dare, "--out", out, up),
        ("weave", *dare, "--out", out, up, down),
        ("analyze", "sweep", *dare, "--out-dir", tmp_path / "s", up, down),
        ("merge", *dare, "--out", out, up, down),
    ]
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*command) == 1
        err = capsys.readouterr().err
        assert "'block.weight'" in err and "overflows float32" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_overflowing_task_vector_names_checkpoint_and_tensor(tmp_path, capsys):
    pre = tmp_path / "pre.safetensors"
    write_checkpoint(TensorMap({"block.weight": np.full(4, -3e38, dtype=np.float32)}), pre)
    task = tmp_path / "task_far.safetensors"
    write_checkpoint(TensorMap({"block.weight": np.full(4, 3e38, dtype=np.float32)}), task)
    commands = [
        ("weave", "--method", "task_arithmetic", "--pretrained", pre, "--out", tmp_path / "w.safetensors"),
        ("merge", "--method", "task_arithmetic", "--pretrained", pre, "--out", tmp_path / "m.safetensors"),
        ("deltas", "--pretrained", pre, "--out-dir", tmp_path / "deltas"),
    ]
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*command, task) == 1
        err = capsys.readouterr().err
        assert "task_far" in err and "block.weight" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_weave_defaults_match_closed_form(tmp_path):
    out = tmp_path / "woven.safetensors"
    code = run(
        "weave", "--method", "task_arithmetic", "--pretrained", PRE, "--out", out, CARS, MNIST,
    )
    assert code == 0
    pre = read_checkpoint(PRE)
    deltas = compute_deltas(pre, [read_checkpoint(CARS), read_checkpoint(MNIST)])
    lambdas = [round(0.1 * i, 10) for i in range(1, 11)]
    factor = (1 + sum(lambdas)) / (2 + len(lambdas))
    loaded = read_checkpoint(out)
    for name in pre:
        total = sum(tv.delta.array(name).astype(np.float64) for tv in deltas)
        expected = pre.array(name).astype(np.float64) + factor * total
        np.testing.assert_allclose(loaded.array(name), expected, atol=1e-6)
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["lambdas"] == lambdas
    assert report["n_members"] == 12


def test_weave_lambda_range_flag(tmp_path):
    out = tmp_path / "woven.safetensors"
    code = run(
        "weave", "--method", "magmax", "--lambda-range", "0.1:1.0:0.1",
        "--pretrained", PRE, "--out", out, CARS,
    )
    assert code == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert len(report["lambdas"]) == 10


def test_weave_matches_library_bitwise(tmp_path):
    out = tmp_path / "woven.safetensors"
    code = run(
        "weave", "--method", "dare", "--drop-rate", "0.25", "--seed", "42",
        "--pooling", "random", "--lambda-range", "0.5:1.0:0.25",
        "--pretrained", PRE, "--out", out, CARS, MNIST,
    )
    assert code == 0
    pre = read_checkpoint(PRE)
    finetuned = [read_checkpoint(CARS), read_checkpoint(MNIST)]
    expected, _ = weave(
        pre,
        finetuned,
        MergeSpec("dare", params={"drop_rate": 0.25}, seed=42),
        space=SearchSpace.parse("0.5:1.0:0.25"),
        pool_spec=PoolSpec(pooling="random", seed=42),
        labels=["task_cars", "task_mnist"],
    )
    loaded = read_checkpoint(out)
    for name in expected:
        assert loaded.array(name).tobytes() == expected.array(name).tobytes()


def test_weave_random_pooling_reproducible(tmp_path):
    outs = []
    for run_id in ("a", "b"):
        out = tmp_path / f"{run_id}.safetensors"
        code = run(
            "weave", "--method", "task_arithmetic", "--pooling", "random", "--seed", "7",
            "--pretrained", PRE, "--out", out, CARS, MNIST,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_weave_threads_do_not_change_output(tmp_path):
    blobs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"t{threads}.safetensors"
        code = run(
            "weave", "--method", "dare", "--drop-rate", "0.5", "--seed", "3",
            "--pooling", "random", "--threads", threads,
            "--pretrained", PRE, "--out", out, CARS, MNIST,
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_weave_threads_below_one_exits_2_before_reading(tmp_path, capsys):
    out = tmp_path / "t0.safetensors"
    code = run(
        "weave", "--method", "task_arithmetic", "--threads", "0",
        "--pretrained", tmp_path / "missing.safetensors", "--out", out, CARS,
    )
    assert code == 2
    assert "--threads" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "ties", "keep_fraction": 0.5, "lambda": 0.7}))
    out_config = tmp_path / "from_config.safetensors"
    assert run("merge", "--config", config, "--pretrained", PRE, "--out", out_config, CARS) == 0

    out_flags = tmp_path / "flags_override.safetensors"
    assert run(
        "merge", "--config", config, "--lambda", "1.2",
        "--pretrained", PRE, "--out", out_flags, CARS,
    ) == 0

    pre = read_checkpoint(PRE)
    deltas = compute_deltas(pre, [read_checkpoint(CARS)])
    fn = registry_lookup("ties")
    expected_config = add(pre, fn(deltas, MergeSpec("ties", lam=0.7, params={"keep_fraction": 0.5})))
    expected_flags = add(pre, fn(deltas, MergeSpec("ties", lam=1.2, params={"keep_fraction": 0.5})))
    assert read_checkpoint(out_config) == expected_config
    assert read_checkpoint(out_flags) == expected_flags


def test_config_value_of_wrong_json_type_exits_2_naming_key(tmp_path, capsys):
    for key, value in (
        ("lambda", None), ("drop_rate", {}), ("threads", None), ("seed", [1]),
        ("include_deltas", "false"), ("include_deltas", 0),
        ("lambda", True), ("drop_rate", False), ("threads", 1.9), ("seed", 2.5), ("lambda_range", [True, 2]),
        ("lambda_range", ["0.5", 1]), ("lambda", int("1" * 400)),
    ):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({"method": "dare", "drop_rate": 0.5, key: value}))
        out = tmp_path / "woven.safetensors"
        assert run("weave", "--config", config, "--pretrained", PRE, "--out", out, CARS) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err
        assert "Traceback" not in err
        assert not out.exists()
    out = tmp_path / "woven.safetensors"
    for values in ("[true, 2]", f"[0.5, {'1' * 400}]"):
        code = run("weave", "--method", "dare", "--drop-rate", "0.5", "--lambda-range", values,
                   "--pretrained", PRE, "--out", out, CARS)
        assert code == 2
        err = capsys.readouterr().err
        assert "--lambda-range" in err and "Traceback" not in err
        assert not out.exists()


def test_config_numeric_strings_convert(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "dare", "drop_rate": "0.5", "lambda": "0.7", "seed": "7", "threads": "2"}))
    from_config = tmp_path / "from_config.safetensors"
    assert run("weave", "--config", config, "--pretrained", PRE, "--out", from_config, CARS, MNIST) == 0
    from_flags = tmp_path / "from_flags.safetensors"
    assert run(
        "weave", "--method", "dare", "--drop-rate", "0.5", "--lambda", "0.7", "--seed", "7", "--threads", "2",
        "--pretrained", PRE, "--out", from_flags, CARS, MNIST,
    ) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_weave_include_deltas_flag(tmp_path):
    out = tmp_path / "no_deltas.safetensors"
    code = run(
        "weave", "--method", "task_arithmetic", "--no-include-deltas",
        "--lambda-range", "[0.5, 1.0]", "--pretrained", PRE, "--out", out, CARS, MNIST,
    )
    assert code == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["include_deltas"] is False
    assert report["n_members"] == 2

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"include_deltas": False}))
    from_config = tmp_path / "no_deltas_config.safetensors"
    code = run(
        "weave", "--config", config, "--method", "task_arithmetic",
        "--lambda-range", "[0.5, 1.0]", "--pretrained", PRE, "--out", from_config, CARS, MNIST,
    )
    assert code == 0
    assert json.loads(from_config.with_suffix(".report.json").read_text())["include_deltas"] is False
    assert from_config.read_bytes() == out.read_bytes()


def test_deltas_duplicate_stems_get_unique_names(tmp_path):
    copy_dir = tmp_path / "copies"
    copy_dir.mkdir()
    twin = copy_dir / "task_cars.safetensors"
    twin.write_bytes(CARS.read_bytes())
    out = tmp_path / "deltas"
    assert run("deltas", "--pretrained", PRE, "--out-dir", out, CARS, twin) == 0
    assert len(list(out.glob("*.safetensors"))) == 2


def test_deltas_renamed_stem_never_overwrites_another_output(tmp_path):
    # the third input's stem x is taken, and its first rename, x_3, is the first input's stem
    inputs = [tmp_path / "x_3.safetensors", tmp_path / "a" / "x.safetensors", tmp_path / "b" / "x.safetensors"]
    for path, source in zip(inputs, (CARS, MNIST, HALF)):
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(source.read_bytes())
    out = tmp_path / "deltas"
    assert run("deltas", "--pretrained", PRE, "--out-dir", out, *inputs) == 0
    vectors = compute_deltas(read_checkpoint(PRE), [read_checkpoint(p) for p in inputs])
    names = ("x_3", "x", "x_3_3")
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{n}.delta.safetensors" for n in names)
    for name, vector in zip(names, vectors):
        assert read_checkpoint(out / f"{name}.delta.safetensors") == vector.delta


def test_data_commands_keep_stdout_clean(tmp_path, capsys):
    out = tmp_path / "clean.safetensors"
    code = run(
        "weave", "--method", "magmax", "--pretrained", PRE, "--out", out, CARS, MNIST,
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""


def test_analyze_cosine_symmetric_json(tmp_path, capsys):
    out_dir = tmp_path / "deltas"
    run("deltas", "--pretrained", PRE, "--out-dir", out_dir, CARS, MNIST)
    deltas = sorted(out_dir.glob("*.safetensors"))
    assert run("analyze", "cosine", *deltas) == 0
    payload = json.loads(capsys.readouterr().out)
    values = payload["values"]
    assert len(values) == 2 and values[0][1] == values[1][0]
    assert values[0][0] == 1.0 and values[1][1] == 1.0
    # same result when computed from fine-tuned checkpoints directly
    assert run("analyze", "cosine", "--pretrained", PRE, CARS, MNIST) == 0
    direct = json.loads(capsys.readouterr().out)
    assert direct["values"] == values


def test_analyze_best_lambda_example(tmp_path, capsys):
    csv = tmp_path / "acc.csv"
    csv.write_text("task,lambda,accuracy\ntaskA,0.5,0.7\ntaskA,1.0,0.9\ntaskB,0.5,0.8\ntaskB,1.0,0.6\n")
    assert run("analyze", "best-lambda", "--csv", csv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"bins": {"0.5": 1, "1.0": 1}, "total": 2}


def test_analyze_best_lambda_duplicate_exits_2(tmp_path, capsys):
    csv = tmp_path / "dup.csv"
    csv.write_text("task,lambda,accuracy\na,0.5,0.1\na,0.5,0.9\n")
    assert run("analyze", "best-lambda", "--csv", csv) == 2
    assert "line 3" in capsys.readouterr().err


def test_analyze_sweep_writes_files(tmp_path):
    out = tmp_path / "sweep"
    code = run(
        "analyze", "sweep", "--method", "task_arithmetic", "--lambda-range", "[0.5, 1.0]",
        "--pretrained", PRE, "--out-dir", out, CARS, MNIST,
    )
    assert code == 0
    assert sorted(p.name for p in out.glob("*.safetensors")) == [
        "task_arithmetic_lambda0.5.safetensors",
        "task_arithmetic_lambda1.0.safetensors",
    ]
    assert (out / "manifest.json").exists()


def _nan_in_last_tensor(path):
    """Set the last payload value of a checkpoint written by ``write_checkpoint`` (name order) to NaN."""
    blob = bytearray(path.read_bytes())
    blob[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("fault", ["nan", "rebase"])
def test_analyze_sweep_fault_in_a_late_tensor_writes_no_file(tmp_path, capsys, fault):
    # every factor's file is filled tensor by tensor, so the fault shows only at the last tensor 'z';
    # by then each file holds 'a', yet none may replace a target, and the manifest is not written
    # rebase: task vectors of 4e37 sum to 8e37, so 3e38 + lam x 8e37 overflows at lambda 1.0, not 0.5
    big = 3e38 if fault == "rebase" else 0.0
    pre = tmp_path / "pre.safetensors"
    write_checkpoint(TensorMap({"a": np.zeros(4, dtype=np.float32), "z": np.full(3, big, dtype=np.float32)}), pre)
    tasks = [tmp_path / f"task{i}.safetensors" for i in range(2)]
    for path in tasks:
        write_checkpoint(
            TensorMap({"a": np.ones(4, dtype=np.float32), "z": np.full(3, big + 4e37, dtype=np.float32)}), path
        )
    if fault == "nan":
        _nan_in_last_tensor(tasks[-1])
    out = tmp_path / "sweep"
    out.mkdir()
    kept = out / "task_arithmetic_lambda0.5.safetensors"
    kept.write_bytes(b"from an earlier sweep")
    code = run(
        "analyze", "sweep", "--method", "task_arithmetic", "--lambda-range", "[0.5, 1.0]",
        "--pretrained", pre, "--out-dir", out, *tasks,
    )
    assert code == 1
    expected = {
        "nan": f"{tasks[-1]}: tensor 'z': non-finite value (NaN or Inf)",
        "rebase": "tensor 'z': base plus delta overflows float32",
    }[fault]
    assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]
    assert [p.name for p in out.iterdir()] == [kept.name]
    assert kept.read_bytes() == b"from an earlier sweep"


@pytest.mark.parametrize("command", ["weave", "analyze sweep", "analyze best-lambda"])
def test_failed_json_write_keeps_the_previous_file(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    out.mkdir()
    if command == "weave":
        argv = ("weave", "--method", "task_arithmetic", "--pretrained", PRE, "--out", out / "w.safetensors", CARS)
        target = out / "w.report.json"
    elif command == "analyze sweep":
        argv = ("analyze", "sweep", "--method", "task_arithmetic", "--lambda-range", "[0.5]",
                "--pretrained", PRE, "--out-dir", out, CARS)
        target = out / "manifest.json"
    else:
        csv = tmp_path / "acc.csv"
        csv.write_text("task,lambda,accuracy\na,0.5,0.7\n")
        argv = ("analyze", "best-lambda", "--csv", csv, "--out", out / "hist.json")
        target = out / "hist.json"
    target.write_text("previous\n")

    class FailingWrite:
        def __init__(self, handle):
            self.handle = handle

        def write(self, data):
            raise OSError("No space left on device")

        def close(self):
            self.handle.close()

    def open_failing_json(path, *args, **kwargs):
        handle = builtins.open(path, *args, **kwargs)
        return FailingWrite(handle) if ".json." in Path(path).name else handle

    monkeypatch.setattr(store, "open", open_failing_json, raising=False)
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: No space left on device"]
    assert target.read_text() == "previous\n"
    assert not [p.name for p in out.iterdir() if p.name.endswith(".partial")]


def test_inspect_lists_tensors(capsys):
    assert run("inspect", PRE) == 0
    out = capsys.readouterr().out
    assert "encoder.layer0.weight" in out and "4x3" in out
    assert "logit_scale" in out and "scalar" in out
    assert "4 tensors" in out


def test_inspect_empty_checkpoint(tmp_path, capsys):
    from tensorweave import TensorMap

    empty = tmp_path / "empty.safetensors"
    write_checkpoint(TensorMap(), empty)
    assert run("inspect", empty) == 0
    assert "0 tensors" in capsys.readouterr().out


def test_inspect_truncated_file_exits_1(tmp_path, capsys):
    broken = tmp_path / "broken.safetensors"
    broken.write_bytes(b"\x99\x00")
    assert run("inspect", broken) == 1
    assert "malformed header" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert run("inspect", tmp_path / "nope.safetensors") == 1


def test_usage_error_exits_2():
    assert run("merge", "--pretrained", str(PRE)) == 2  # missing --out and inputs


def test_scripted_session_byte_stable(tmp_path):
    """deltas -> weave -> inspect -> analyze, twice; data outputs identical."""

    def session(folder):
        folder.mkdir()
        deltas_dir = folder / "deltas"
        assert run("deltas", "--pretrained", PRE, "--out-dir", deltas_dir, CARS, MNIST) == 0
        woven = folder / "woven.safetensors"
        assert run(
            "weave", "--method", "breadcrumbs", "--beta", "0.1", "--gamma", "0.1",
            "--pooling", "random", "--seed", "11",
            "--pretrained", PRE, "--out", woven, CARS, MNIST,
        ) == 0
        assert run("inspect", woven) == 0
        cosine_json = folder / "cosine.json"
        assert run(
            "analyze", "cosine", "--out", cosine_json, *sorted(deltas_dir.glob("*.safetensors"))
        ) == 0
        hist_json = folder / "hist.json"
        assert run(
            "analyze", "best-lambda", "--csv", FIXTURES / "accuracy_10tasks.csv", "--out", hist_json
        ) == 0
        data = {}
        for path in sorted(folder.rglob("*")):
            if path.is_dir() or path.name.endswith(".report.json"):
                continue
            data[str(path.relative_to(folder))] = path.read_bytes()
        report = json.loads(woven.with_suffix(".report.json").read_text())
        report.pop("wall_time_s")  # timing varies run to run by design
        data["report"] = json.dumps(report, sort_keys=True)
        return data

    first = session(tmp_path / "run1")
    second = session(tmp_path / "run2")
    assert first == second


HELP_GOLDEN = FIXTURES / "cli_help.txt"
HELP_COMMANDS = (
    "", "deltas", "merge", "weave", "analyze", "analyze cosine", "analyze best-lambda", "analyze sweep", "inspect",
)


def cli_help_text() -> str:
    """``--help`` of every (sub)command, each run as its own process at 80 columns.

    A fresh process keeps the output independent of merges registered by
    other tests, and fixes the width argparse wraps to.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": path}
    parts = []
    for command in HELP_COMMANDS:
        words = [*command.split(), "--help"]
        argv = [sys.executable, "-m", "tensorweave.cli", *words]
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
        parts.append(f"$ tensorweave {' '.join(words)}\n{result.stdout}")
    return "".join(parts)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse lays out help differently from Python 3.13")
def test_help_matches_golden():
    # after an intended change, from the repository root:
    # python -c "from tests.test_cli import *; HELP_GOLDEN.write_text(cli_help_text())"
    assert cli_help_text() == HELP_GOLDEN.read_text(encoding="utf-8")
