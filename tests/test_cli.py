import json
import random
import warnings

import numpy as np

from tensorweave import (
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TensorMap,
    add,
    compute_deltas,
    read_checkpoint,
    registry_lookup,
    weave,
    write_checkpoint,
)
from tensorweave.cli import main

from .conftest import FIXTURES, random_map

PRE = FIXTURES / "pretrained.safetensors"
CARS = FIXTURES / "task_cars.safetensors"
MNIST = FIXTURES / "task_mnist.safetensors"


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
    for key, value in (("lambda", None), ("drop_rate", {}), ("threads", None), ("seed", [1])):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({"method": "dare", "drop_rate": 0.5, key: value}))
        out = tmp_path / "woven.safetensors"
        assert run("weave", "--config", config, "--pretrained", PRE, "--out", out, CARS) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err
        assert "Traceback" not in err
        assert not out.exists()


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


def test_deltas_duplicate_stems_get_unique_names(tmp_path):
    copy_dir = tmp_path / "copies"
    copy_dir.mkdir()
    twin = copy_dir / "task_cars.safetensors"
    twin.write_bytes(CARS.read_bytes())
    out = tmp_path / "deltas"
    assert run("deltas", "--pretrained", PRE, "--out-dir", out, CARS, twin) == 0
    assert len(list(out.glob("*.safetensors"))) == 2


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
