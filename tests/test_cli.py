import builtins
import errno
import hashlib
import json
import os
import platform
import random
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tensorweave import (
    FingerprintMismatch,
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TaskVector,
    TensorMap,
    add,
    cli,
    compute_deltas,
    cosine_matrix,
    read_checkpoint,
    registry_lookup,
    store,
    sweep_emit,
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


def test_refused_sweep_makes_no_output_folder(tmp_path, capsys):
    # the inputs are checked before the folder is made, as deltas checks them before its own
    bad = tmp_path / "bad.safetensors"
    write_checkpoint(random_map(random.Random(0), {"encoder.layer0.weight": (2, 2)}), bad)
    out = tmp_path / "new" / "sweep"
    assert run("analyze", "sweep", "--method", "task_arithmetic", "--pretrained", PRE, "--out-dir", out, bad) == 1
    assert "missing tensor 'encoder.layer0.bias'" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    with pytest.raises(FingerprintMismatch, match="missing tensor"):
        sweep_emit(read_checkpoint(PRE), [read_checkpoint(bad)], MergeSpec("task_arithmetic"), SearchSpace((1.0,)), out)
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["weave", "merge", "deltas", "cosine", "cosine-deltas", "best-lambda"])
def test_inputs_are_checked_before_any_output_is_claimed(tmp_path, capsys, command):
    # every input is checked before any output is opened (each fine-tuned checkpoint against the pre-trained one,
    # each delta file against the first, the whole CSV), so the input's fault, not the missing folder of --out,
    # is the error, and nothing is made
    bad = tmp_path / "bad.safetensors"
    write_checkpoint(random_map(random.Random(0), {"encoder.layer0.weight": (2, 2)}), bad)
    bad_csv = tmp_path / "bad.csv"  # the repeated pair is found only once the whole CSV is read
    bad_csv.write_text("task,lambda,accuracy\ncars,0.5,0.9\nmnist,0.5,0.8\ncars,0.5,0.7\n")
    out = tmp_path / "missing" / "out.safetensors"
    argv = {"weave": ("weave", "--method", "task_arithmetic", "--out", out),
            "merge": ("merge", "--method", "task_arithmetic", "--out", out),
            "deltas": ("deltas", "--out-dir", out.parent),
            "cosine": ("analyze", "cosine", "--out", out),
            "cosine-deltas": ("analyze", "cosine", "--out", out),
            "best-lambda": ("analyze", "best-lambda", "--out", out)}[command]
    missing = "missing tensor 'encoder.layer0.bias'"
    inputs, code, fault = ("--pretrained", PRE, CARS, bad), 1, f"fine-tuned checkpoint 2: {missing}"
    if command == "cosine-deltas":
        inputs, fault = (CARS, bad), f"task vector 2: {missing}"
    elif command == "best-lambda":
        inputs, code = ("--csv", bad_csv), 2
        fault = f"{bad_csv}: line 4: duplicate (task, lambda) pair ('cars', 0.5), first seen on line 2"
    assert run(*argv, *inputs) == code
    assert capsys.readouterr().err == f"error: {fault}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [bad_csv.name, bad.name]


def test_any_output_name_the_filesystem_takes_is_written(tmp_path):
    # 255-byte names: weave's checkpoint and its report, which is as long, and a JSON output
    out = tmp_path / f"{'m' * 243}.safetensors"
    assert run("weave", "--method", "task_arithmetic", "--pretrained", PRE, "--out", out, CARS, MNIST) == 0
    report = tmp_path / f"{'m' * 243}.report.json"
    assert read_checkpoint(out).names and json.loads(report.read_text())["n_tasks"] == 2
    cosine = tmp_path / f"{'c' * 250}.json"
    assert run("analyze", "cosine", "--out", cosine, "--pretrained", PRE, CARS, MNIST) == 0
    assert json.loads(cosine.read_text())["labels"] == ["task_cars", "task_mnist"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, report.name, cosine.name])


def test_weave_refuses_an_out_whose_report_name_is_too_long(tmp_path, capsys):
    # a 253-byte --out with a 3-byte suffix is a name the filesystem takes, but its report's, <stem>.report.json,
    # is 262 bytes: the report is claimed before any tensor is read, so the command fails then, naming it
    out = tmp_path / f"{'m' * 250}.st"
    report = tmp_path / f"{'m' * 250}.report.json"
    assert run("weave", "--method", "task_arithmetic", "--pretrained", PRE, "--out", out, CARS) == 1
    too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    assert capsys.readouterr().err == f"error: {too_long}: '{report}'\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("options", [
    ("--method", "ties", "--keep-fraction", "0.4"),
    ("--method", "task_arithmetic", "--pooling", "magmax", "--no-include-deltas"),
    {"method": "dare", "drop_rate": 0.5, "seed": 3, "pooling": "random"},
    ("--method", "breadcrumbs", "--beta", "0.1", "--gamma", "0.1"),
], ids=["ties-avg", "task_arithmetic-magmax-no-deltas", "dare-random-config", "breadcrumbs-avg"])
def test_weave_threads_do_not_change_output(tmp_path, options):
    if isinstance(options, dict):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(options))
        options = ("--config", config)
    blobs = []
    for threads in ("1", "2", "4", "8"):
        out = tmp_path / f"t{threads}.safetensors"
        assert run("weave", *options, "--threads", threads, "--pretrained", PRE, "--out", out, CARS, MNIST, HALF) == 0
        blobs.append(out.read_bytes())
    assert len(set(blobs)) == 1


def test_weave_threads_below_one_exits_2_before_reading(tmp_path, capsys):
    out = tmp_path / "t0.safetensors"
    code = run(
        "weave", "--method", "task_arithmetic", "--threads", "0",
        "--pretrained", tmp_path / "missing.safetensors", "--out", out, CARS,
    )
    assert code == 2
    assert "--threads" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_weave_threads_below_one_from_config_names_the_config_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"method": "task_arithmetic", "threads": 0}))
    out = tmp_path / "t0.safetensors"
    assert run("weave", "--config", config, "--pretrained", PRE, "--out", out, CARS) == 2
    assert capsys.readouterr().err == "error: config key 'threads': must be at least 1, got 0\n"
    assert list(tmp_path.iterdir()) == [config]  # no checkpoint and no report


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


# the arguments each command that takes options requires; they are only parsed, so no file needs to exist
OPTION_COMMANDS = {
    ("merge",): ("--pretrained", "pre", "--out", "out", "task"),
    ("weave",): ("--pretrained", "pre", "--out", "out", "task"),
    ("analyze", "sweep"): ("--pretrained", "pre", "--out-dir", "out", "task"),
}
# each option -> (flag words, their value, a config value, its value)
OPTION_VALUES = {
    "method": (["--method", "dare"], "dare", "ties", "ties"),
    "lam": (["--lambda", "0.5"], 0.5, 0.7, 0.7),
    "drop_rate": (["--drop-rate", "0.25"], 0.25, 0.5, 0.5),
    "keep_fraction": (["--keep-fraction", "0.25"], 0.25, 0.5, 0.5),
    "beta": (["--beta", "0.25"], 0.25, 0.5, 0.5),
    "gamma": (["--gamma", "0.25"], 0.25, 0.5, 0.5),
    "seed": (["--seed", "7"], 7, 3, 3),
    "lambda_range": (["--lambda-range", "0.5:1.0:0.5"], SearchSpace((0.5, 1.0)), [0.25], SearchSpace((0.25,))),
    "pooling": (["--pooling", "magmax"], "magmax", "random", "random"),
    "include_deltas": (["--include-deltas"], True, False, False),
    "threads": (["--threads", "3"], 3, 2, 2),
}


@pytest.mark.parametrize("dest, command", [
    pytest.param(dest, command, id=f"{dest}-{'-'.join(command)}")
    for dest in cli._OPTIONS for command in OPTION_COMMANDS
    if hasattr(cli.build_parser().parse_args([*command, *OPTION_COMMANDS[command]]), dest)
])
def test_every_option_takes_its_flag_then_its_config_key_then_its_default(dest, command):
    flag, from_flag, config_value, from_config = OPTION_VALUES[dest]
    key, default = cli._OPTIONS[dest][0], cli._OPTIONS[dest][2]

    def resolved(words, config):
        args = cli.build_parser().parse_args([*command, *OPTION_COMMANDS[command], *words])
        cli._resolve_options(args, config)
        return getattr(args, dest)

    assert from_flag != from_config != default  # so each assertion below tells the three sources apart
    assert resolved(flag, {key: config_value}) == from_flag
    assert resolved([], {key: config_value}) == from_config
    assert resolved([], {}) == default


def test_every_option_is_a_flag_of_some_command():
    options = {dest for command, required in OPTION_COMMANDS.items()
               for dest in vars(cli.build_parser().parse_args([*command, *required])) if dest in cli._OPTIONS}
    assert options == set(cli._OPTIONS) == set(OPTION_VALUES)


def test_config_value_of_wrong_json_type_exits_2_naming_key(tmp_path, capsys):
    for key, value in (
        ("lambda", None), ("drop_rate", {}), ("threads", None), ("seed", [1]),
        ("include_deltas", "false"), ("include_deltas", 0),
        ("lambda", True), ("drop_rate", False), ("threads", 1.9), ("seed", 2.5), ("lambda_range", [True, 2]),
        ("lambda_range", ["0.5", 1]), ("lambda", int("1" * 400)), ("method", None), ("pooling", 5),
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


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config {path}: [Errno 2] No such file or directory: '{path}'"),
    (b"[0.5]", "config {path} must be a JSON object"),
    (b"[" * 200_000, "cannot read config {path}: maximum recursion depth exceeded while decoding a JSON array "
                     "from a unicode string"),
    (b"\xff{}", "cannot read config {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["missing", "not-an-object", "nested-too-deep", "not-utf-8"])
def test_config_file_faults_exit_2_naming_the_file(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_bytes(content)
    out = tmp_path / "woven.safetensors"
    assert run("weave", "--config", config, "--method", "task_arithmetic", "--pretrained", PRE, "--out", out, CARS) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=config)}\n"
    assert not out.exists()


def test_weave_without_a_method_exits_2(tmp_path, capsys):
    out = tmp_path / "woven.safetensors"
    assert run("weave", "--pretrained", PRE, "--out", out, CARS) == 2
    assert capsys.readouterr().err == "error: --method is required (flag or config)\n"
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


def test_deltas_of_an_f16_pretrained_model_match_the_library_bitwise(tmp_path):
    # task vectors are float32 whatever the pre-trained model stores: no F16 payload and no dtype.* metadata
    out = tmp_path / "deltas"
    assert run("deltas", "--pretrained", HALF, "--out-dir", out, PRE, CARS) == 0
    vectors = compute_deltas(read_checkpoint(HALF), [read_checkpoint(PRE), read_checkpoint(CARS)])
    for stem, vector in zip(("pretrained", "task_cars"), vectors):
        expected = tmp_path / f"{stem}.expected.safetensors"
        write_checkpoint(vector.delta, expected)
        assert (out / f"{stem}.delta.safetensors").read_bytes() == expected.read_bytes()


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


@pytest.mark.parametrize("content, message", [
    (b"task,lambda,accuracy\n ,0.5,0.7\n", "line 2: empty task name"),
    (b"task,lambda,accuracy\n\n", "no data rows"),
    (b"task,lambda,accuracy\na,0.5,0.7\n" + b"b" * 131_073 + b",1.0,0.9\n",
     "line 3: field larger than field limit (131072)"),
    (b"task,lambda,accuracy\na,0.5,0.7\n\xff,1.0,0.9\n",
     "'utf-8' codec can't decode byte 0xff in position 31: invalid start byte"),
    # past the text decoder's first chunk of 8 KiB, the position still counts from the start of the file
    (b"task,lambda,accuracy\n" + b"a,0.5,0.7\n" * 4090 + b"\xff,1.0,0.9\n",
     "'utf-8' codec can't decode byte 0xff in position 40921: invalid start byte"),
    # and it counts the byte order mark
    (b"\xef\xbb\xbftask,lambda,accuracy\na,0.5,0.7\n\xff,1.0,0.9\n",
     "'utf-8' codec can't decode byte 0xff in position 34: invalid start byte"),
], ids=["empty-task", "no-rows", "field-over-the-limit", "not-utf-8", "not-utf-8-past-a-chunk",
        "not-utf-8-after-a-bom"])
def test_analyze_best_lambda_csv_faults_exit_2_naming_the_file(tmp_path, capsys, content, message):
    csv = tmp_path / "acc.csv"
    csv.write_bytes(content)
    assert run("analyze", "best-lambda", "--csv", csv) == 2
    assert capsys.readouterr() == ("", f"error: {csv}: {message}\n")


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


@pytest.mark.parametrize("command", ["weave", "weave-threads2", "deltas"])
def test_fault_in_a_late_tensor_writes_no_file(tmp_path, capsys, command):
    # the output files are filled tensor by tensor, so the fault shows only at the last tensor 'z', once
    # 'a' is written; still no file may replace its target, and weave writes no report
    pre = tmp_path / "pre.safetensors"
    write_checkpoint(TensorMap({"a": np.zeros(4, dtype=np.float32), "z": np.zeros(3, dtype=np.float32)}), pre)
    tasks = [tmp_path / f"task{i}.safetensors" for i in range(2)]
    for path in tasks:
        write_checkpoint(TensorMap({"a": np.ones(4, dtype=np.float32), "z": np.ones(3, dtype=np.float32)}), path)
    _nan_in_last_tensor(tasks[-1])
    out = tmp_path / "out"
    out.mkdir()
    if command == "deltas":
        kept = out / "task1.delta.safetensors"
        argv = ("deltas", "--out-dir", out)
    else:
        kept = out / "woven.safetensors"
        argv = ("weave", "--method", "task_arithmetic", "--threads", 2 if command == "weave-threads2" else 1,
                "--out", kept)
    kept.write_bytes(b"from an earlier run")
    assert run(*argv, "--pretrained", pre, *tasks) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {tasks[-1]}: tensor 'z': non-finite value (NaN or Inf)"]
    assert [p.name for p in out.iterdir()] == [kept.name]
    assert kept.read_bytes() == b"from an earlier run"


@pytest.mark.parametrize("command", ["weave", "analyze sweep", "analyze best-lambda"])
def test_failed_json_write_keeps_the_previous_file(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    out.mkdir()
    # the checkpoint written with the JSON, if any, is committed only with it
    if command == "weave":
        argv = ("weave", "--method", "task_arithmetic", "--pretrained", PRE, "--out", out / "w.safetensors", CARS)
        target, checkpoint = out / "w.report.json", out / "w.safetensors"
    elif command == "analyze sweep":
        argv = ("analyze", "sweep", "--method", "task_arithmetic", "--lambda-range", "[0.5]",
                "--pretrained", PRE, "--out-dir", out, CARS)
        target, checkpoint = out / "manifest.json", out / "task_arithmetic_lambda0.5.safetensors"
    else:
        csv = tmp_path / "acc.csv"
        csv.write_text("task,lambda,accuracy\na,0.5,0.7\n")
        argv = ("analyze", "best-lambda", "--csv", csv, "--out", out / "hist.json")
        target, checkpoint = out / "hist.json", None
    target.write_text("previous\n")
    if checkpoint is not None:
        checkpoint.write_bytes(b"previous checkpoint")

    class FailingWrite:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            raise OSError("No space left on device")

    def open_failing_json(path, *args, **kwargs):
        handle = builtins.open(path, *args, **kwargs)
        return FailingWrite(handle) if ".json." in Path(path).name else handle

    monkeypatch.setattr(store, "open", open_failing_json, raising=False)
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: No space left on device"]
    assert target.read_text() == "previous\n"
    if checkpoint is not None:
        assert checkpoint.read_bytes() == b"previous checkpoint"
    assert not [p.name for p in out.iterdir() if p.name.endswith(".partial")]


def test_partial_removed_between_writes_fails_the_command_and_commits_nothing(tmp_path, capsys, monkeypatch):
    # each write opens its partial to append without creating it, so a partial that vanished since the last
    # write fails the command instead of a file without its header being committed
    out = tmp_path / "sweep"
    out.mkdir()
    kept = out / "task_arithmetic_lambda0.5.safetensors"
    kept.write_bytes(b"from an earlier sweep")
    write, removed = store._Writer.write, []

    def write_then_remove_the_partial(writer, name, tensor):
        write(writer, name, tensor)
        if writer.target == kept and not removed:
            removed.append(writer.partial)
            writer.partial.unlink()

    monkeypatch.setattr(store._Writer, "write", write_then_remove_the_partial)
    code = run("analyze", "sweep", "--method", "task_arithmetic", "--lambda-range", "[0.5, 1.0]",
               "--pretrained", PRE, "--out-dir", out, CARS, MNIST)
    assert code == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{removed[0]}'\n"
    assert [p.name for p in out.iterdir()] == [kept.name]
    assert kept.read_bytes() == b"from an earlier sweep"


@pytest.mark.parametrize("case", ["weave to a directory", "sweep to a directory", "weave into a missing directory",
                                  "report to a directory", "cosine to a directory"])
def test_an_output_that_cannot_be_made_fails_before_any_work_and_names_its_path(tmp_path, capsys, monkeypatch, case):
    # each output, checkpoint or JSON, is opened before any tensor is read, so a target that is a directory, or
    # whose directory is missing, fails the command with no other output committed, and the error names the
    # target, not the temporary file beside it
    out = tmp_path / "out"
    out.mkdir()
    merge = ("--method", "task_arithmetic")
    if case == "sweep to a directory":
        target = out / "task_arithmetic_lambda1.0.safetensors"
        argv = ("analyze", "sweep", *merge, "--lambda-range", "[0.5, 1.0]", "--out-dir", out)
    elif case == "cosine to a directory":
        target = out / "cosine.json"
        argv = ("analyze", "cosine", "--out", target)
    elif case == "report to a directory":
        target = out / "w.report.json"
        argv = ("weave", *merge, "--out", out / "w.safetensors")
    else:
        target = out / ("missing/w.safetensors" if case == "weave into a missing directory" else "w.safetensors")
        argv = ("weave", *merge, "--out", target)
    code = errno.ENOENT if case == "weave into a missing directory" else errno.EISDIR
    if code == errno.EISDIR:
        target.mkdir()

    def no_read(reader, name):
        raise AssertionError(f"tensor {name!r} was read")

    monkeypatch.setattr(store._Reader, "read", no_read)
    assert run(*argv, "--pretrained", PRE, CARS) == 1
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{target}'\n"
    assert [p.name for p in out.iterdir()] == ([target.name] if code == errno.EISDIR else [])
    assert code == errno.ENOENT or not any(target.iterdir())


def test_outputs_past_the_open_file_limit(tmp_path):
    # no output file stays open between writes, so a command may write more files than it may hold open:
    # each runs in a child whose soft limit is 40 open files, and writes the bytes it writes without one
    limited_main = ("import resource, sys; resource.setrlimit(resource.RLIMIT_NOFILE, "
                    "(40, resource.getrlimit(resource.RLIMIT_NOFILE)[1])); "
                    "from tensorweave.cli import main; sys.exit(main())")
    for argv, count in (
        (("analyze", "sweep", "--method", "task_arithmetic", "--lambda-range", "0.02:1.0:0.02",
          "--pretrained", PRE, CARS, MNIST), 50 + 1),  # 50 factors and the manifest
        (("deltas", "--pretrained", PRE, *[CARS, MNIST] * 10), 20),  # 21 readers and 20 outputs
    ):
        limited, plain = tmp_path / f"{argv[0]}-limited", tmp_path / f"{argv[0]}-plain"
        result = subprocess.run([sys.executable, "-c", limited_main, *map(str, argv), "--out-dir", str(limited)],
                                env=child_env(), capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        assert run(*argv, "--out-dir", plain) == 0
        files = sorted(p.name for p in plain.iterdir())
        assert len(files) == count
        assert sorted(p.name for p in limited.iterdir()) == files
        for file in files:
            assert (limited / file).read_bytes() == (plain / file).read_bytes(), file


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


def test_inspect_fault_in_the_last_tensor_prints_nothing(tmp_path, capsys):
    # inspect checks every tensor's values, one at a time, before it prints the listing
    path = tmp_path / "nan.safetensors"
    write_checkpoint(TensorMap({"a": np.zeros(2, dtype=np.float32), "z": np.zeros(3, dtype=np.float32)}), path)
    _nan_in_last_tensor(path)
    assert run("inspect", path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: tensor 'z': non-finite value (NaN or Inf)"]


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


def child_env() -> dict[str, str]:
    """The environment for a child Python process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def cli_help_text() -> str:
    """``--help`` of every (sub)command, each run as its own process at 80 columns.

    A fresh process keeps the output independent of merges registered by
    other tests, and fixes the width argparse wraps to.
    """
    env = {**child_env(), "COLUMNS": "80"}
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


def test_log_level_that_names_no_level_falls_back_to_warning():
    # logging.BASIC_FORMAT is a format string, not a level, and basicConfig would raise on it outside main's
    # error handling; only a fresh process shows it, since basicConfig does nothing once the root logger has handlers
    argv = [sys.executable, "-m", "tensorweave.cli", "--log-level", "basic_format", "inspect", str(PRE)]
    result = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith(" elements\n")


MERGE_PARAMS = {
    "task_arithmetic": (),
    "dare": ("--drop-rate", "0.3", "--seed", "7"),
    "ties": ("--keep-fraction", "0.4"),
    "breadcrumbs": ("--beta", "0.1", "--gamma", "0.05"),
    "magmax": (),
}


@pytest.mark.parametrize("half_role", ["task", "pretrained"])
@pytest.mark.parametrize("method", sorted(MERGE_PARAMS))
def test_merge_writes_the_sweep_file_of_its_lambda(tmp_path, method, half_role):
    # merge is a one-factor sweep; task_half holds an F16 tensor, which widens on read as a task and,
    # as the pre-trained model, makes both outputs, and weave's, record its stored dtype under dtype.*
    inputs = ("--pretrained", PRE, CARS, MNIST, HALF) if half_role == "task" else ("--pretrained", HALF, PRE, CARS)
    merged = tmp_path / "merged.safetensors"
    assert run("merge", "--method", method, "--lambda", "0.7", *MERGE_PARAMS[method], "--out", merged, *inputs) == 0
    sweep = tmp_path / "sweep"
    code = run(
        "analyze", "sweep", "--method", method, "--lambda-range", "[0.7]", *MERGE_PARAMS[method],
        "--out-dir", sweep, *inputs,
    )
    assert code == 0
    assert merged.read_bytes() == (sweep / f"{method}_lambda0.7.safetensors").read_bytes()
    woven = tmp_path / "woven.safetensors"
    assert run("weave", "--method", method, *MERGE_PARAMS[method], "--out", woven, *inputs) == 0
    for written in (read_checkpoint(merged), read_checkpoint(woven)):
        assert written["head.weight"].stored_dtype == "F32"
        assert written.metadata.get("dtype.head.weight") == ("F16" if half_role == "pretrained" else None)


def random_checkpoints(folder: Path, count: int, shape: tuple[int, int], n_tensors: int) -> list[Path]:
    """``count`` checkpoints of ``n_tensors`` random float32 tensors of ``shape``, from one fixed seed."""
    gen = np.random.default_rng(3)
    paths = [folder / f"m{i}.safetensors" for i in range(count)]
    for path in paths:
        write_checkpoint(TensorMap({f"t{i:02d}": gen.normal(size=shape).astype(np.float32)
                                    for i in range(n_tensors)}), path)
    return paths


@pytest.mark.parametrize("command", ["merge", "deltas", "weave", "weave-threads2", "cosine", "cosine-deltas"])
def test_cli_does_not_hold_its_inputs_whole(tmp_path, command):
    # merge holds a small multiple of (tasks + 1) x the tensor in flight, and weave that per worker thread;
    # deltas holds one tensor's pre-trained values and task vectors at a time. Loaded whole, the inputs
    # alone would take (1 + tasks) x the model, and weave's output held whole one model, beyond every
    # allowance. weave's model has more, smaller tensors (64, not 16), so one output model outweighs its working set.
    # cosine must hold each task vector's float64 flat (2 x tasks models), but it fills them tensor by tensor,
    # from fine-tuned files with --pretrained and from delta files without, so neither its inputs nor the
    # float32 task vectors are ever whole beside them
    shape, n_tensors, n_tasks = ((128, 128), 64, 3) if command.startswith("weave") else ((256, 256), 16, 3)
    paths = random_checkpoints(tmp_path, n_tasks + (command != "cosine-deltas"), shape, n_tensors)
    inputs = paths if command == "cosine-deltas" else ("--pretrained", paths[0], *paths[1:])
    tensor_bytes = shape[0] * shape[1] * 4
    held = 0  # what the command holds whatever way it reads its inputs
    if command == "merge":
        argv = ("merge", "--method", "ties", "--keep-fraction", "0.5", "--out", tmp_path / "out.safetensors")
        allowance = 5 * (n_tasks + 1) * tensor_bytes
    elif command == "deltas":
        argv = ("deltas", "--out-dir", tmp_path / "deltas")
        allowance = 2 * (n_tasks + 1) * tensor_bytes
    elif command.startswith("cosine"):
        argv = ("analyze", "cosine", "--out", tmp_path / "cosine.json")
        held = 2 * n_tasks * n_tensors * tensor_bytes
        allowance = held + 2 * (n_tasks + 1) * tensor_bytes
    else:
        threads = 2 if command == "weave-threads2" else 1
        argv = ("weave", "--method", "task_arithmetic", "--threads", threads, "--out", tmp_path / "out.safetensors")
        allowance = threads * 5 * (n_tasks + 1) * tensor_bytes
        assert allowance < n_tensors * tensor_bytes
    assert allowance < held + len(paths) * n_tensors * tensor_bytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run(*argv, *inputs) == 0
        added_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert added_peak <= allowance


def concatenated_cosine_json(maps: list[TensorMap], labels: list[str]) -> str:
    """``cosine_matrix``'s JSON of one-tensor maps, each holding a whole loaded map's values concatenated by
    ``np.concatenate`` in name order."""
    flat_vectors = [TaskVector(TensorMap({"flat": np.concatenate([m.array(name).ravel() for name in m])}), label, pos)
                    for pos, (m, label) in enumerate(zip(maps, labels), start=1)]
    return cosine_matrix(flat_vectors).to_json()


@pytest.mark.parametrize("inputs", ["fixtures", "memory-test"])
def test_cosine_json_equals_that_of_concatenated_flats(tmp_path, capsys, inputs):
    # the flats filled tensor by tensor hold the concatenated values, so the library and both CLI forms
    # write the bytes that concatenating whole loaded maps gives; the delta files hold the task vectors
    if inputs == "fixtures":
        pre, *finetuned = PRE, CARS, MNIST, HALF
    else:
        pre, *finetuned = random_checkpoints(tmp_path, 4, (256, 256), 16)
    assert run("deltas", "--pretrained", pre, "--out-dir", tmp_path / "deltas", *finetuned) == 0
    delta_files = [tmp_path / "deltas" / f"{path.stem}.delta.safetensors" for path in finetuned]
    loaded = [read_checkpoint(path) for path in delta_files]
    expected = concatenated_cosine_json(loaded, [path.stem for path in delta_files])
    task_vectors = [TaskVector(m, path.stem, pos) for pos, (m, path) in enumerate(zip(loaded, delta_files), start=1)]
    assert cosine_matrix(task_vectors).to_json() == expected
    assert run("analyze", "cosine", *delta_files) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert run("analyze", "cosine", "--pretrained", pre, *finetuned) == 0
    assert capsys.readouterr().out == concatenated_cosine_json(loaded, [path.stem for path in finetuned]) + "\n"


def minor_faults(code: str, *args) -> int:
    """The minor page faults of a fresh ``python -c code args...``, which must exit 0, from ``wait4``."""
    argv = [sys.executable, "-c", code, *map(str, args)]
    pid = os.posix_spawn(sys.executable, argv, child_env())
    killer = threading.Timer(120, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy acts on glibc only")
def test_console_script_keeps_freed_memory_for_the_next_tensor(tmp_path):
    # each tensor's working set, (tasks + members) x the tensor, is freed before the next tensor is made; by
    # default glibc hands it back to the system and faults it in afresh, about 37k faults in all on this model,
    # against about 5.5k through entrypoint() and 4.8k for the import alone. Both write the same bytes.
    gen = np.random.default_rng(4)
    paths = [tmp_path / f"m{i}.safetensors" for i in range(1 + 4)]
    for path in paths:
        write_checkpoint(TensorMap({f"t{i:02d}": gen.normal(size=(512, 128)).astype(np.float32)
                                    for i in range(48)}), path)
    argv = ("weave", "--method", "task_arithmetic", "--pooling", "magmax", "--pretrained", *paths)
    kept = tmp_path / "entrypoint.safetensors"
    plain = tmp_path / "main.safetensors"
    through_entrypoint = minor_faults("from tensorweave.cli import entrypoint; entrypoint()", *argv, "--out", kept)
    through_main = minor_faults("import sys; from tensorweave.cli import main; sys.exit(main())",
                                *argv, "--out", plain)
    import_only = minor_faults("import tensorweave.cli")
    assert through_entrypoint - import_only < (through_main - import_only) / 4
    assert kept.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("call, frozen", [("cli.entrypoint()", True), ("sys.exit(cli.main())", False)])
def test_only_the_console_script_freezes_the_objects_of_the_imports(call, frozen):
    # the console script freezes them so that the collections at exit pass over them; main(), the import
    # and the library leave the collector alone. The child reports gc's freeze count from inside main()
    probe = ("import gc, sys, tensorweave.cli as cli; real_main = cli.main; "
             f"cli.main = lambda: print(gc.get_freeze_count(), file=sys.stderr) or real_main(); {call}")
    result = subprocess.run([sys.executable, "-c", probe, "inspect", str(PRE)], env=child_env(), capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0
    assert (int(result.stderr) > 0) == frozen
    assert result.stdout.endswith(" elements\n")


OUTPUTS_GOLDEN = FIXTURES / "output_sha256.json"
POOLINGS = ("avg", "random", "magmax")


def output_digests(folder: Path) -> dict[str, str]:
    """SHA-256 of every model and manifest that ``weave``, ``merge``, ``analyze sweep`` and ``deltas`` write
    from the fixtures into ``folder``, by path relative to it.

    Reports and the cosine JSON are left out: the report records a wall time, and cosine's float64 dot
    products go through BLAS, whose summation order may differ between builds.
    """
    inputs = ("--pretrained", PRE, CARS, MNIST, HALF)
    for method, params in MERGE_PARAMS.items():
        for pooling in POOLINGS:
            for deltas in ("--include-deltas", "--no-include-deltas"):
                for threads in (1, 2):
                    out = folder / f"weave-{method}-{pooling}-{deltas[2:]}-t{threads}.safetensors"
                    argv = ("weave", "--method", method, *params, "--pooling", pooling, deltas, "--threads", threads)
                    assert run(*argv, "--out", out, *inputs) == 0
        merged = folder / f"merge-{method}.safetensors"
        assert run("merge", "--method", method, "--lambda", "0.7", *params, "--out", merged, *inputs) == 0
        sweep = folder / f"sweep-{method}"
        assert run("analyze", "sweep", "--method", method, *params, "--out-dir", sweep, *inputs) == 0
    assert run("deltas", "--out-dir", folder / "deltas", *inputs) == 0
    return {
        path.relative_to(folder).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(folder.rglob("*"))
        if path.suffix == ".safetensors" or path.name == "manifest.json"
    }


def test_outputs_match_golden_digests(tmp_path):
    # after an intended change of output bytes, from the repository root:
    # python -c "import json, pathlib, tempfile; from tests.test_cli import *; \
    #   OUTPUTS_GOLDEN.write_text(json.dumps(output_digests(pathlib.Path(tempfile.mkdtemp())), indent=1) + '\n')"
    assert output_digests(tmp_path) == json.loads(OUTPUTS_GOLDEN.read_text(encoding="utf-8"))
