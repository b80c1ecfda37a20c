"""Acceptance suite: one test per criterion, run with -s for the pass lines.

Each criterion prints ``[criterion N] <name>: PASS`` when its assertions
hold; tolerances are pinned here and nowhere else.
"""

import json
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from tensorweave import (
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TensorMap,
    available_methods,
    breadcrumbs,
    compute_deltas,
    cosine_matrix,
    dare,
    default_search_space,
    pool,
    read_checkpoint,
    registry_lookup,
    task_arithmetic,
    ties,
    weave,
    write_checkpoint,
    AccuracyTable,
    best_lambda_histogram,
)
from tensorweave.cli import main as cli_main

from .conftest import FIXTURES, as_task_vectors, map_to_lists, random_map
from . import oracles

METHOD_PARAMS = {
    "task_arithmetic": {},
    "dare": {"drop_rate": 0.5},
    "ties": {"keep_fraction": 0.6},
    "breadcrumbs": {"beta": 0.2, "gamma": 0.15},
    "magmax": {},
}
POOLINGS = ("avg", "random", "magmax")


def _passed(number: int, name: str) -> None:
    print(f"[criterion {number}] {name}: PASS")


def _random_family(rnd: random.Random, n_tasks: int, big: bool):
    shapes = {}
    if big:
        shapes["big.weight"] = (10_000,)
    else:
        for t in range(rnd.randint(1, 3)):
            shapes[f"t{t}.weight"] = (rnd.randint(1, 64),)
    pre = random_map(rnd, shapes)
    finetuned = [random_map(rnd, shapes) for _ in range(n_tasks)]
    return pre, finetuned


def test_c01_streaming_weave_equals_naive_oracle_exactly():
    rnd = random.Random(1001)
    methods = sorted(METHOD_PARAMS)
    started = time.perf_counter()
    instances = 0
    for idx in range(105):
        n_tasks = (1, 2, 3, 5)[idx % 4]
        method = methods[idx % len(methods)]
        pooling = POOLINGS[idx % len(POOLINGS)]
        include = idx % 2 == 0
        big = idx % 35 == 17
        pre, finetuned = _random_family(rnd, n_tasks, big)
        lambdas = sorted({round(rnd.uniform(0.05, 2.0), 3) for _ in range(3)})
        spec = MergeSpec(method, params=METHOD_PARAMS[method], seed=idx)
        space = SearchSpace(tuple(lambdas))
        final, report = weave(
            pre,
            finetuned,
            spec,
            space=space,
            pool_spec=PoolSpec(pooling=pooling, seed=idx, include_deltas=include),
        )
        expected = oracles.weave_naive(
            map_to_lists(pre),
            [map_to_lists(ft) for ft in finetuned],
            method,
            METHOD_PARAMS[method],
            idx,
            list(space.lambdas),
            pooling,
            include_deltas=include,
        )
        for name in pre:
            assert final.array(name).ravel().tolist() == expected[name], (
                f"instance {idx}: {method}/{pooling} mismatch on {name}"
            )
        assert report.n_members == len(lambdas) + (n_tasks if include else 0)
        instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 100
    assert elapsed <= 30.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(1, f"oracle equivalence ({instances} instances, {elapsed:.1f}s)")


def test_c02_task_arithmetic_avg_closed_form():
    rnd = random.Random(2002)
    for trial in range(20):
        n_tasks = rnd.choice([1, 2, 3, 5])
        pre, finetuned = _random_family(rnd, n_tasks, big=False)
        lambdas = tuple(sorted({round(rnd.uniform(0.1, 1.5), 2) for _ in range(4)}))
        deltas = compute_deltas(pre, finetuned)
        for include in (True, False):
            final, _ = weave(
                pre,
                finetuned,
                MergeSpec("task_arithmetic"),
                space=SearchSpace(lambdas),
                pool_spec=PoolSpec(pooling="avg", include_deltas=include),
            )
            if include:
                factor = (1 + sum(lambdas)) / (n_tasks + len(lambdas))
            else:
                factor = sum(lambdas) / len(lambdas)
            for name in pre:
                total = np.zeros(pre[name].shape, dtype=np.float64)
                for tv in deltas:
                    total += tv.delta.array(name).astype(np.float64)
                expected = pre.array(name).astype(np.float64) + factor * total
                np.testing.assert_allclose(final.array(name), expected, atol=1e-6)
    _passed(2, "closed form for mean pooling over the swept merges")


def test_c03_reductions_are_bitwise():
    rnd = random.Random(3003)
    deltas = as_task_vectors([random_map(rnd, {"a": (57,), "b": (3, 6)}) for _ in range(3)])

    plain = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=0.8))
    no_drop = dare(deltas, MergeSpec("dare", lam=0.8, params={"drop_rate": 0.0}, seed=5))
    assert all(no_drop.array(n).tobytes() == plain.array(n).tobytes() for n in plain)

    no_mask = breadcrumbs(deltas, MergeSpec("breadcrumbs", lam=0.8, params={"beta": 0.0, "gamma": 0.0}))
    assert all(no_mask.array(n).tobytes() == plain.array(n).tobytes() for n in plain)

    single = deltas[:1]
    keep_all = ties(single, MergeSpec("ties", lam=0.3, params={"keep_fraction": 1.0}))
    scaled = task_arithmetic(single, MergeSpec("task_arithmetic", lam=0.3))
    assert all(keep_all.array(n).tobytes() == scaled.array(n).tobytes() for n in keep_all)
    direct = {
        n: (0.3 * single[0].delta.array(n).astype(np.float64)).astype(np.float32)
        for n in single[0].delta
    }
    assert all(keep_all.array(n).tobytes() == direct[n].tobytes() for n in keep_all)

    member = random_map(rnd, {"a": (57,), "b": (3, 6)})
    for pooling in POOLINGS:
        one = pool([member], PoolSpec(pooling=pooling, seed=9))
        assert all(one.array(n).tobytes() == member.array(n).tobytes() for n in member)
    _passed(3, "dropout/mask/trim/pool reductions collapse bitwise")


def test_c04_dare_statistics():
    scipy_stats = pytest.importorskip("scipy.stats")
    n = 100_000
    ones = as_task_vectors([TensorMap({"w": np.ones(n, dtype=np.float32)})])
    for p in (0.1, 0.5, 0.9):
        out = dare(ones, MergeSpec("dare", params={"drop_rate": p}, seed=777)).array("w")
        dropped = int((out == 0).sum())
        low = scipy_stats.binom.ppf(0.0005, n, p)
        high = scipy_stats.binom.ppf(0.9995, n, p)
        assert low <= dropped <= high, f"p={p}: dropped {dropped} outside [{low}, {high}]"

    rnd = random.Random(4004)
    deltas = as_task_vectors([random_map(rnd, {"w": (64,)}) for _ in range(3)])
    lam, p, n_seeds = 0.8, 0.5, 1000
    reference = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=lam)).array("w")
    acc = np.zeros(64, dtype=np.float64)
    for seed in range(n_seeds):
        spec = MergeSpec("dare", lam=lam, params={"drop_rate": p}, seed=seed)
        acc += dare(deltas, spec).array("w").astype(np.float64)
    mean = acc / n_seeds
    variance = sum(
        tv.delta.array("w").astype(np.float64) ** 2 * (p / (1 - p)) for tv in deltas
    ) * lam**2
    stderr = np.sqrt(variance / n_seeds)
    deviation = np.abs(mean - reference.astype(np.float64))
    # where no randomness exists the result must match exactly
    assert np.all(deviation[stderr == 0] == 0)
    assert np.all(deviation <= 5 * stderr + 1e-12)
    _passed(4, "dropout rate in 99.9% binomial interval; seed-mean within 5 SE")


def test_c05_ties_sign_safety_1000_instances():
    rnd = random.Random(5005)
    for _ in range(1000):
        n_tasks = rnd.randint(1, 4)
        size = rnd.randint(1, 12)
        rows = [
            [float(np.float32(rnd.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * rnd.random()))
             for _ in range(size)]
            for _ in range(n_tasks)
        ]
        k = rnd.choice([0.25, 0.5, 0.75, 1.0])
        lam = rnd.choice([0.5, 1.0, 1.5])
        out = ties(
            as_task_vectors([TensorMap({"w": np.array(r, dtype=np.float32)}) for r in rows]),
            MergeSpec("ties", lam=lam, params={"keep_fraction": k}),
        ).array("w")
        keep = min(size, max(1, math.ceil(k * size - 1e-9)))
        trimmed = [oracles.trim_keep_top(r, keep) for r in rows]
        for p in range(size):
            elected = oracles._sign(sum(t[p] for t in trimmed))
            if out[p] != 0:
                assert float(np.sign(out[p])) == elected
            if all(t[p] == 0.0 for t in trimmed):
                assert out[p] == 0.0
    _passed(5, "every nonzero merged parameter carries the elected sign")


def test_c06_magmax_pooling_collapses_to_top_lambda():
    rnd = np.random.default_rng(6006)
    for n_tasks in (1, 2, 3, 5):
        shape = (rnd.integers(2, 6), rnd.integers(2, 8))
        pre = TensorMap({"w": rnd.normal(size=shape).astype(np.float32)})
        deltas = [rnd.uniform(0.3, 1.0, size=shape).astype(np.float32) for _ in range(n_tasks)]
        finetuned = [TensorMap({"w": pre.array("w") + d}) for d in deltas]
        lambdas = (0.5, 1.0, 2.0)
        spec = MergeSpec("task_arithmetic")

        vectors = compute_deltas(pre, finetuned)
        members = [tv.delta.array("w") for tv in vectors]
        members += [
            task_arithmetic(vectors, replace(spec, lam=lam)).array("w") for lam in lambdas
        ]
        top = members[-1]
        for other in members[:-1]:
            assert np.all(np.abs(top) >= np.abs(other)), "constructed premise violated"

        final, _ = weave(
            pre,
            finetuned,
            spec,
            space=SearchSpace(lambdas),
            pool_spec=PoolSpec(pooling="magmax", include_deltas=True),
        )
        expected = pre.array("w") + top
        assert final.array("w").tobytes() == expected.tobytes()
    _passed(6, "max-magnitude pooling returns exactly the top-factor member")


def test_c07_byte_identical_across_worker_counts(tmp_path):
    rnd = random.Random(7007)
    shapes = {f"layer{i}.weight": (rnd.randint(50, 300),) for i in range(8)}
    pre = random_map(rnd, shapes)
    finetuned = [random_map(rnd, shapes) for _ in range(3)]
    blobs = []
    for threads in (1, 4, 8):
        final, _ = weave(
            pre,
            finetuned,
            MergeSpec("dare", params={"drop_rate": 0.4}, seed=123),
            pool_spec=PoolSpec(pooling="random", seed=123),
            threads=threads,
        )
        target = tmp_path / f"threads{threads}.safetensors"
        write_checkpoint(final, target)
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _passed(7, "random pooling + dropout byte-identical at 1, 4, 8 workers")


def test_c08_default_search_spaces():
    standard = tuple(round(0.1 * i, 10) for i in range(1, 11))
    for method in ("task_arithmetic", "dare", "breadcrumbs", "magmax"):
        space = default_search_space(method)
        assert space.lambdas == standard, method
        assert len(space.lambdas) == 10
    space = default_search_space("ties")
    assert space.lambdas == tuple(round(0.1 * i, 10) for i in range(1, 16))
    assert len(space.lambdas) == 15
    _passed(8, "default sweeps are 0.1..1.0 (10 values) and 0.1..1.5 for ties (15)")


def test_c09_checkpoint_io(tmp_path):
    rng = np.random.default_rng(9009)
    original = TensorMap(
        {
            "w": rng.standard_normal((100, 30)).astype(np.float32),
            "b": rng.standard_normal(77).astype(np.float32),
            "s": np.float32(rng.standard_normal()),
        },
        metadata={"note": "acceptance"},
    )
    first, second = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
    write_checkpoint(original, first)
    loaded = read_checkpoint(first)
    for name in original:
        assert loaded.array(name).tobytes() == original.array(name).tobytes()
    write_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()

    safetensors_numpy = pytest.importorskip("safetensors.numpy")
    arrays = {
        "alpha": rng.standard_normal((4, 4)).astype(np.float32),
        "beta": rng.standard_normal(9).astype(np.float16),
    }
    third_party = tmp_path / "third_party.safetensors"
    safetensors_numpy.save_file(arrays, str(third_party), metadata={"writer": "safetensors"})
    external = read_checkpoint(third_party)
    assert external.array("alpha").tobytes() == arrays["alpha"].tobytes()
    assert external["beta"].stored_dtype == "F16"
    np.testing.assert_array_equal(external.array("beta"), arrays["beta"].astype(np.float32))
    assert external.metadata == {"writer": "safetensors"}
    _passed(9, "bitwise F32 round trip; third-party container loads")


def test_c10_analysis_artifacts():
    rnd = random.Random(1010)
    vectors = as_task_vectors([random_map(rnd, {"a": (64,), "b": (4, 4)}) for _ in range(4)])
    matrix = np.array(cosine_matrix(vectors).values)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 1.0)
    assert np.all(np.abs(matrix) <= 1.0 + 1e-6)

    table = AccuracyTable.from_csv(FIXTURES / "accuracy_10tasks.csv")
    hist = best_lambda_histogram(table)
    assert hist.total == 10
    assert hist.bins == {0.1: 1, 0.3: 3, 0.5: 2, 0.7: 1, 1.0: 3}

    rescaled = AccuracyTable(tuple((t, lam, 2.5 * acc + 7.0) for t, lam, acc in table.rows))
    assert best_lambda_histogram(rescaled).bins == hist.bins
    _passed(10, "cosine matrix well-formed; histogram matches hand argmax, affine-invariant")


def test_c11_cli_session_byte_stable(tmp_path):
    pre = FIXTURES / "pretrained.safetensors"
    cars = FIXTURES / "task_cars.safetensors"
    mnist = FIXTURES / "task_mnist.safetensors"

    def session(folder):
        folder.mkdir()
        deltas_dir = folder / "deltas"
        assert cli_main(["deltas", "--pretrained", str(pre), "--out-dir", str(deltas_dir),
                         str(cars), str(mnist)]) == 0
        woven = folder / "woven.safetensors"
        assert cli_main(["weave", "--method", "ties", "--keep-fraction", "0.5",
                         "--pooling", "random", "--seed", "21",
                         "--pretrained", str(pre), "--out", str(woven),
                         str(cars), str(mnist)]) == 0
        assert cli_main(["inspect", str(woven)]) == 0
        cosine_out = folder / "cosine.json"
        delta_files = sorted(str(p) for p in deltas_dir.glob("*.safetensors"))
        assert cli_main(["analyze", "cosine", "--out", str(cosine_out), *delta_files]) == 0
        hist_out = folder / "hist.json"
        assert cli_main(["analyze", "best-lambda", "--csv", str(FIXTURES / "accuracy_10tasks.csv"),
                         "--out", str(hist_out)]) == 0
        snapshot = {}
        for path in sorted(folder.rglob("*")):
            if path.is_dir() or path.name.endswith(".report.json"):
                continue
            snapshot[str(path.relative_to(folder))] = path.read_bytes()
        report = json.loads(woven.with_suffix(".report.json").read_text())
        report.pop("wall_time_s")  # timing is the one legitimately varying field
        snapshot["report"] = json.dumps(report, sort_keys=True)
        return snapshot

    first = session(tmp_path / "one")
    second = session(tmp_path / "two")
    assert first == second
    assert any(name.endswith("woven.safetensors") for name in first)
    _passed(11, "scripted deltas→weave→inspect→analyze session is byte-stable")
