import contextlib
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tensorweave import (
    CheckpointError,
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TaskVector,
    TensorMap,
    build_augmented,
    compute_deltas,
    default_search_space,
    magmax,
    pool,
    read_checkpoint,
    registry_lookup,
    store,
    task_arithmetic,
    weave,
    write_checkpoint,
)

from .conftest import as_task_vectors, map_to_lists, random_instance, random_map
from . import oracles


def tmap(**tensors):
    return TensorMap({k: np.array(v, dtype=np.float32) for k, v in tensors.items()})


# -------------------------------------------------------------- search space


def test_default_spaces_match_published_ranges():
    standard = tuple(round(0.1 * i, 10) for i in range(1, 11))
    extended = tuple(round(0.1 * i, 10) for i in range(1, 16))
    for method in ("task_arithmetic", "dare", "breadcrumbs", "magmax"):
        space = default_search_space(method)
        assert space.lambdas == standard
        assert len(space.lambdas) == 10
    space = default_search_space("ties")
    assert space.lambdas == extended
    assert len(space.lambdas) == 15
    assert space.lambdas[0] == 0.1 and space.lambdas[-1] == 1.5


def test_unknown_method_is_refused_by_spec_and_default_space():
    available = "available: breadcrumbs, dare, magmax, task_arithmetic, ties"
    for make in (lambda: MergeSpec("pcb"), lambda: default_search_space("pcb")):
        with pytest.raises(ValueError) as excinfo:
            make()
        assert str(excinfo.value) == f"unknown merge method 'pcb'; {available}"


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(())
    with pytest.raises(ValueError):
        SearchSpace((0.5, 0.5))
    with pytest.raises(ValueError):
        SearchSpace((0.5, 0.1))
    with pytest.raises(ValueError):
        SearchSpace((0.0, 0.5))
    with pytest.raises(ValueError):
        SearchSpace((-0.1, 0.5))
    for values in (("0.5", 1), (None, 1), (0.5, "1")):
        with pytest.raises(ValueError, match="must be numbers"):
            SearchSpace(values)
    with pytest.raises(ValueError, match="too large for a float"):
        SearchSpace((0.5, int("1" * 400)))
    assert SearchSpace((np.float32(0.5), np.float64(1.0), 2)).lambdas == (0.5, 1.0, 2.0)


def test_search_space_parse_range():
    space = SearchSpace.parse("0.1:1.0:0.1")
    assert space.lambdas == tuple(round(0.1 * i, 10) for i in range(1, 11))
    assert SearchSpace.parse("0.5:0.5:0.1").lambdas == (0.5,)
    assert SearchSpace.parse("[0.25, 0.75]").lambdas == (0.25, 0.75)
    with pytest.raises(ValueError):
        SearchSpace.parse("1.0:0.1")
    with pytest.raises(ValueError):
        SearchSpace.parse("[1.0, \"x\"]")


def test_search_space_parse_endpoint_inclusive_within_tolerance():
    # (1.0 - 0.1) / 0.3 lands a hair under 3 in binary; 1.0 still included
    assert SearchSpace.parse("0.1:1.0:0.3").lambdas == (0.1, 0.4, 0.7, 1.0)
    # a stop just short of the next step stays excluded
    assert SearchSpace.parse("0.1:0.99:0.3").lambdas == (0.1, 0.4, 0.7)


def test_pool_spec_validation():
    with pytest.raises(ValueError, match="pooling"):
        PoolSpec(pooling="median")
    with pytest.raises(ValueError, match="seed"):
        PoolSpec(seed=-3)


# ------------------------------------------------------------ build_augmented


def test_build_augmented_example(small_deltas):
    space = SearchSpace((0.5, 1.0))
    augmented = build_augmented(
        small_deltas, task_arithmetic, MergeSpec("task_arithmetic"), space
    )
    assert len(augmented) == 2
    assert augmented[0].array("w").tolist() == [2.0, -1.0]
    assert augmented[1].array("w").tolist() == [4.0, -2.0]


def test_build_augmented_singleton(small_deltas):
    space = SearchSpace((1.0,))
    augmented = build_augmented(
        small_deltas, task_arithmetic, MergeSpec("task_arithmetic"), space
    )
    expected = task_arithmetic(small_deltas, MergeSpec("task_arithmetic", lam=1.0))
    assert len(augmented) == 1
    assert augmented[0] == expected


def test_build_augmented_empty_deltas_errors():
    with pytest.raises(ValueError):
        build_augmented([], task_arithmetic, MergeSpec("task_arithmetic"), SearchSpace((1.0,)))


# ---------------------------------------------------------------------- pool


def test_pool_avg_example():
    members = [tmap(w=r) for r in ([1.0, -2.0], [3.0, 0.0], [2.0, -1.0], [4.0, -2.0])]
    out = pool(members, PoolSpec(pooling="avg"))
    assert out.array("w").tolist() == [2.5, -1.25]


def test_pool_magmax_example_tie_break():
    rows = [
        [1.0, -2.0, -3.0, 1.0, -0.0, 0.0],
        [3.0, 0.0, 3.0, 3.0, 0.0, -0.0],
        [2.0, -1.0, 1.0, -3.0, -0.0, 0.0],
        [4.0, -2.0, -3.0, 2.0, 0.0, -0.0],
    ]
    out = pool([tmap(w=r) for r in rows], PoolSpec(pooling="magmax"))
    # param 1 ties at |-2| between members 0 and 3, params 2 and 3 tie at |3| across signs,
    # and params 4 and 5 tie between signed zeros; the earliest member wins every tie
    expected = np.array([4.0, -2.0, -3.0, 3.0, -0.0, 0.0], dtype=np.float32)
    assert out.array("w").tobytes() == expected.tobytes()
    assert out.array("w").tobytes() == np.array(oracles.pool_members(rows, "magmax", 0, "w"), np.float32).tobytes()
    merged = magmax(as_task_vectors([tmap(w=r) for r in rows]), MergeSpec("magmax", lam=1.0))
    assert merged.array("w").tobytes() == expected.tobytes()
    assert merged.array("w").tobytes() == np.array(oracles.merge_magmax(rows, 1.0), np.float32).tobytes()


@pytest.mark.parametrize("pooling", ["avg", "random", "magmax"])
def test_pool_singleton_identity(rng, pooling):
    member = random_map(rng, {"a": (17,), "b": (2, 3)})
    out = pool([member], PoolSpec(pooling=pooling, seed=5))
    assert all(out.array(n).tobytes() == member.array(n).tobytes() for n in member)


@pytest.mark.parametrize("pooling", ["avg", "random", "magmax"])
def test_pool_idempotent_on_identical_members(rng, pooling):
    member = random_map(rng, {"a": (9,)})
    out = pool([member] * 4, PoolSpec(pooling=pooling, seed=3))
    assert out.array("a").tobytes() == member.array("a").tobytes()


def test_pool_matches_scalar_reference(rng):
    members = [random_map(rng, {"x": (41,)}) for _ in range(5)]
    rows = [[float(v) for v in m.array("x")] for m in members]
    for pooling in ("avg", "random", "magmax"):
        out = pool(members, PoolSpec(pooling=pooling, seed=2024))
        expected = oracles.pool_members(rows, pooling, 2024, "x")
        assert out.array("x").tolist() == expected


def test_pool_requires_members_and_compatibility(rng):
    with pytest.raises(ValueError):
        pool([], PoolSpec())
    from tensorweave import FingerprintMismatch

    with pytest.raises(FingerprintMismatch):
        pool([random_map(rng, {"a": (3,)}), random_map(rng, {"a": (4,)})], PoolSpec())


def test_pool_random_is_a_member_value(rng):
    members = [random_map(rng, {"x": (101,)}) for _ in range(7)]
    out = pool(members, PoolSpec(pooling="random", seed=1)).array("x")
    stack = np.stack([m.array("x") for m in members])
    for p in range(101):
        assert out[p] in stack[:, p]


# --------------------------------------------------------------------- weave


def test_weave_example_avg_over_collaborative_set(small_deltas):
    pre = tmap(w=[0.0, 0.0])
    finetuned = [tmap(w=[1.0, -2.0]), tmap(w=[3.0, 0.0])]
    final, report = weave(
        pre,
        finetuned,
        MergeSpec("task_arithmetic"),
        space=SearchSpace((0.5, 1.0)),
        pool_spec=PoolSpec(pooling="avg", include_deltas=True),
    )
    assert final.array("w").tolist() == [2.5, -1.25]
    assert report.n_members == 4


def test_weave_singleton_no_deltas_reduces_to_plain_merge(rng):
    pre, finetuned = random_instance(rng, 2)
    spec = MergeSpec("ties", params={"keep_fraction": 0.5})
    for pooling in ("avg", "random", "magmax"):
        final, report = weave(
            pre,
            finetuned,
            spec,
            space=SearchSpace((1.0,)),
            pool_spec=PoolSpec(pooling=pooling, include_deltas=False),
        )
        deltas = compute_deltas(pre, finetuned)
        merged = registry_lookup("ties")(deltas, replace(spec, lam=1.0))
        for name in pre:
            expected = pre.array(name) + merged.array(name)
            assert final.array(name).tobytes() == expected.tobytes()
        assert report.n_members == 1


def test_weave_single_task_closed_form():
    pre = tmap(w=[10.0, 20.0])
    delta = np.array([1.0, -2.0], dtype=np.float32)
    finetuned = [tmap(w=(pre.array("w") + delta))]
    final, _ = weave(pre, finetuned, MergeSpec("task_arithmetic"))
    factor = (1 + 5.5) / 11  # = 0.59090909...
    np.testing.assert_allclose(
        final.array("w"), pre.array("w") + factor * delta, atol=1e-6
    )


def test_weave_closed_form_ta_avg(rng):
    for include in (True, False):
        for _ in range(5):
            n_tasks = rng.choice([1, 2, 3])
            pre, finetuned = random_instance(rng, n_tasks)
            lambdas = (0.2, 0.5, 0.9, 1.3)
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
            deltas = compute_deltas(pre, finetuned)
            for name in pre:
                total = np.zeros(pre[name].shape, dtype=np.float64)
                for tv in deltas:
                    total += tv.delta.array(name).astype(np.float64)
                expected = pre.array(name).astype(np.float64) + factor * total
                np.testing.assert_allclose(final.array(name), expected, atol=1e-6)


@pytest.mark.parametrize("method,params", [
    ("task_arithmetic", {}),
    ("dare", {"drop_rate": 0.35}),
    ("ties", {"keep_fraction": 0.6}),
    ("breadcrumbs", {"beta": 0.15, "gamma": 0.1}),
    ("magmax", {}),
])
@pytest.mark.parametrize("pooling", ["avg", "random", "magmax"])
def test_weave_equals_naive_oracle(rng, method, params, pooling):
    pre, finetuned = random_instance(rng, 3)
    spec = MergeSpec(method, params=params, seed=404)
    space = SearchSpace((0.3, 0.8, 1.2))
    final, _ = weave(
        pre,
        finetuned,
        spec,
        space=space,
        pool_spec=PoolSpec(pooling=pooling, seed=404, include_deltas=True),
    )
    expected = oracles.weave_naive(
        map_to_lists(pre),
        [map_to_lists(ft) for ft in finetuned],
        method,
        params,
        404,
        list(space.lambdas),
        pooling,
        include_deltas=True,
    )
    for name in pre:
        assert final.array(name).ravel().tolist() == expected[name]


def tie_heavy_instance(n_tasks: int = 3) -> tuple[TensorMap, list[TensorMap]]:
    """Inputs that break a pooling shortcut which is not bit-exact.

    ``zeros``: task vectors of +0.0 and -0.0, all -0.0 in the first ten
    elements. ``tiny``: subnormal task vectors, whose members at nearby
    factors round to the same float32 value, or underflow to a signed zero.
    ``grid``: values on a coarse F16 grid, dense with magnitude ties.
    """
    gen = np.random.default_rng(17)
    size = 60
    pre = {
        "grid": gen.integers(-8, 9, size).astype(np.float16).astype(np.float32) / 8,
        "tiny": np.zeros(size, dtype=np.float32),
        "zeros": np.zeros(size, dtype=np.float32),
        "wide": gen.normal(size=(6, 10)).astype(np.float32),
    }
    finetuned = []
    for _ in range(n_tasks):
        zeros = gen.choice(np.array([-0.0, 0.0], dtype=np.float32), size)
        zeros[:10] = -0.0
        finetuned.append(TensorMap({
            "grid": pre["grid"] + gen.integers(-3, 4, size).astype(np.float32) / 4,
            "tiny": gen.integers(-3, 4, size).astype(np.float32) * np.float32(2.0**-149),
            "zeros": zeros,
            "wide": pre["wide"] + gen.normal(size=(6, 10)).astype(np.float32),
        }))
    return TensorMap(pre), finetuned


ALL_METHODS = (
    ("task_arithmetic", {}),
    ("dare", {"drop_rate": 0.35}),
    ("ties", {"keep_fraction": 0.6}),
    ("breadcrumbs", {"beta": 0.15, "gamma": 0.1}),
    ("magmax", {}),
)


def test_weave_streaming_equals_full_materialization(rng):
    # library-level cross-check: weave builds only the members each pooling needs, tensor by tensor;
    # it must match materializing every member of the whole model, then pooling, byte for byte
    space = SearchSpace((0.3, 0.5, 0.5000001, 1.0, 1.25))
    for pre, finetuned in (random_instance(rng, 2), tie_heavy_instance()):
        deltas = compute_deltas(pre, finetuned)
        for method, params in ALL_METHODS:
            spec = MergeSpec(method, params=params, seed=5)
            swept = build_augmented(deltas, registry_lookup(method), spec, space)
            for pooling in ("avg", "random", "magmax"):
                for include in (True, False):
                    pool_spec = PoolSpec(pooling=pooling, seed=5, include_deltas=include)
                    pooled = pool(([tv.delta for tv in deltas] if include else []) + swept, pool_spec)
                    expected = {name: (pre.array(name) + pooled.array(name)).tobytes() for name in pre}
                    for threads in (1, 2):
                        final, _ = weave(pre, finetuned, spec, space=space, pool_spec=pool_spec, threads=threads)
                        got = {name: final.array(name).tobytes() for name in final}
                        assert got == expected, (method, pooling, include, threads)


def test_build_augmented_fast_path_matches_per_factor_merges(rng):
    pre, finetuned = random_instance(rng, 2)
    deltas = compute_deltas(pre, finetuned)
    space = SearchSpace((0.2, 0.7, 1.1, 1.4))
    for method, params in (
        ("task_arithmetic", {}),
        ("dare", {"drop_rate": 0.3}),
        ("ties", {"keep_fraction": 0.4}),
        ("breadcrumbs", {"beta": 0.1, "gamma": 0.2}),
        ("magmax", {}),
    ):
        spec = MergeSpec(method, params=params, seed=8)
        fn = registry_lookup(method)
        swept = build_augmented(deltas, fn, spec, space)
        for lam, member in zip(space.lambdas, swept):
            direct = fn(deltas, replace(spec, lam=lam))
            assert member == direct


def test_build_augmented_draws_each_dare_stream_once(monkeypatch, rng):
    import tensorweave.methods as methods

    keys = []
    real_uniform01 = methods.uniform01

    def counting_uniform01(key, count):
        keys.append(key)
        return real_uniform01(key, count)

    monkeypatch.setattr(methods, "uniform01", counting_uniform01)
    deltas = as_task_vectors([random_map(rng, {"a": (5,), "b": (2, 3), "c": (4,)}) for _ in range(2)])
    spec = MergeSpec("dare", params={"drop_rate": 0.5}, seed=3)
    build_augmented(deltas, registry_lookup("dare"), spec, SearchSpace((0.5, 1.0, 1.5)))
    assert len(keys) == 2 * 3


def test_weave_thread_count_invariance(rng):
    pre, finetuned = random_instance(rng, 3, max_elements=200)
    spec = MergeSpec("dare", params={"drop_rate": 0.5}, seed=99)
    outputs = []
    for threads in (1, 4, 8):
        final, _ = weave(
            pre,
            finetuned,
            spec,
            pool_spec=PoolSpec(pooling="random", seed=99),
            threads=threads,
        )
        outputs.append({name: final.array(name).tobytes() for name in final})
    assert outputs[0] == outputs[1] == outputs[2]


def test_weave_rejects_fewer_than_one_thread(rng):
    pre, finetuned = random_instance(rng, 2)
    for threads in (0, -1):
        with pytest.raises(ValueError):
            weave(pre, finetuned, MergeSpec("task_arithmetic"), threads=threads)


def test_weave_magmax_collapse_returns_top_lambda_member():
    # all-positive deltas with lambda_max * sum strictly dominating every member
    rng = np.random.default_rng(3)
    shape = (5, 7)
    pre = TensorMap({"w": rng.normal(size=shape).astype(np.float32)})
    deltas = [rng.uniform(0.3, 1.0, size=shape).astype(np.float32) for _ in range(3)]
    finetuned = [TensorMap({"w": pre.array("w") + d}) for d in deltas]
    space = SearchSpace((0.5, 1.0, 2.0))
    spec = MergeSpec("task_arithmetic")

    task_vectors = compute_deltas(pre, finetuned)
    top_member = task_arithmetic(task_vectors, replace(spec, lam=2.0))
    stacked = np.stack([tv.delta.array("w") for tv in task_vectors])
    assert np.all(np.abs(top_member.array("w")) >= np.abs(stacked))

    final, _ = weave(
        pre, finetuned, spec, space=space, pool_spec=PoolSpec(pooling="magmax", include_deltas=True)
    )
    expected = pre.array("w") + top_member.array("w")
    assert final.array("w").tobytes() == expected.tobytes()


def test_weave_report_fields(rng):
    pre, finetuned = random_instance(rng, 2)
    final, report = weave(pre, finetuned, MergeSpec("magmax"))
    assert report.method == "magmax"
    assert report.pooling == "avg" and report.include_deltas is True
    assert report.n_tasks == 2
    assert report.n_members == len(report.lambdas) + 2
    assert report.element_counts == {name: pre[name].size for name in pre}
    assert report.wall_time_s >= 0
    payload = report.to_json_dict()
    assert payload["n_members"] == report.n_members
    import json

    json.dumps(payload)


def test_weave_wall_time_includes_deltas(monkeypatch, rng):
    import importlib

    weave_module = importlib.import_module("tensorweave.weave")  # the package re-exports a function of that name
    real_task_delta = weave_module._task_delta
    calls = []

    def slow_task_delta(*args, **kwargs):
        calls.append(args[:2])
        time.sleep(0.05)
        return real_task_delta(*args, **kwargs)

    monkeypatch.setattr(weave_module, "_task_delta", slow_task_delta)
    pre, finetuned = random_instance(rng, 2)
    _, report = weave(pre, finetuned, MergeSpec("task_arithmetic"))
    assert sorted(calls) == sorted((label, name) for label in ("task1", "task2") for name in pre)
    assert report.wall_time_s >= 0.05 * len(calls)


def test_weave_requires_inputs(rng):
    pre, _ = random_instance(rng, 1)
    with pytest.raises(ValueError):
        weave(pre, [], MergeSpec("task_arithmetic"))


@pytest.mark.parametrize("threads", [1, 2])
def test_weave_overflowing_task_vector_names_label_and_tensor(threads):
    pre = tmap(a=[0.0, 1.0], b=[-3e38, 0.0])
    finetuned = [tmap(a=[1.0, 1.0], b=[0.0, 0.0]), tmap(a=[0.0, 2.0], b=[3e38, 0.0])]
    with pytest.raises(CheckpointError) as excinfo:
        weave(pre, finetuned, MergeSpec("task_arithmetic"), labels=["near", "far"], threads=threads)
    assert str(excinfo.value) == "far: tensor 'b': task vector (fine-tuned minus pre-trained) overflows float32"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pooling", ["avg", "random", "magmax"])
def test_weave_overflowing_merged_delta_names_smallest_lambda(pooling, threads):
    # task vectors of 1e38 and 2e38 sum to 3e38: finite at lambda 1.0, beyond float32 from lambda 1.2
    pre = tmap(a=[0.0, 0.0], b=[0.0, 0.0])
    finetuned = [tmap(a=[1.0, 1.0], b=[1e38, 0.0]), tmap(a=[1.0, 1.0], b=[2e38, 0.0])]
    space = SearchSpace((0.5, 1.0, 1.2, 1.5, 2.0))
    with pytest.raises(CheckpointError) as excinfo:
        weave(pre, finetuned, MergeSpec("task_arithmetic"), space=space, pool_spec=PoolSpec(pooling=pooling),
              threads=threads)
    assert str(excinfo.value) == "tensor 'b': merged delta at lambda 1.2 overflows float32"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pooling", ["avg", "random", "magmax"])
def test_weave_added_memory_is_the_output_plus_tensors_in_flight(pooling, threads):
    # the bound of the weave module docstring: above its inputs, weave holds the output model and,
    # per worker, a small multiple of (tasks + members) x the tensor in flight; task vectors held
    # for the whole model would add tasks x the model (4 x 64 tensors here), beyond the allowance
    gen = np.random.default_rng(5)
    shape, n_tensors, n_tasks = (128, 128), 64, 4

    def model():
        return TensorMap({f"t{i:02d}": gen.normal(size=shape).astype(np.float32) for i in range(n_tensors)})

    pre, finetuned = model(), [model() for _ in range(n_tasks)]
    space = default_search_space("ties")
    tensor_bytes = shape[0] * shape[1] * 4
    allowance = (n_tensors + threads * 4 * (n_tasks + len(space.lambdas))) * tensor_bytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        weave(pre, finetuned, MergeSpec("ties", params={"keep_fraction": 0.5}), space=space,
              pool_spec=PoolSpec(pooling=pooling), threads=threads)
        added_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert added_peak <= allowance


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pooling", ["avg", "random", "magmax"])
def test_weave_over_readers_holds_no_whole_input_model(tmp_path, pooling, threads):
    # the CLI passes open checkpoint readers, which read each input tensor when it is woven: weave then
    # adds no more than the output and the tensors in flight, with no allowance for the inputs, which
    # held whole would take (1 + tasks) x the model (5 x 64 tensors here), beyond the allowance
    gen = np.random.default_rng(5)
    shape, n_tensors, n_tasks = (128, 128), 64, 4
    paths = [tmp_path / f"m{i}.safetensors" for i in range(1 + n_tasks)]
    for path in paths:
        write_checkpoint(TensorMap({f"t{i:02d}": gen.normal(size=shape).astype(np.float32)
                                    for i in range(n_tensors)}), path)
    spec, space = MergeSpec("ties", params={"keep_fraction": 0.5}), default_search_space("ties")
    tensor_bytes = shape[0] * shape[1] * 4
    allowance = (n_tensors + threads * 4 * (n_tasks + len(space.lambdas))) * tensor_bytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with contextlib.ExitStack() as stack:
            pre, *finetuned = (stack.enter_context(store._Reader(path)) for path in paths)
            woven, _ = weave(pre, finetuned, spec, space=space, pool_spec=PoolSpec(pooling=pooling), threads=threads)
        added_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert added_peak <= allowance
    loaded = [read_checkpoint(path) for path in paths]
    assert woven == weave(loaded[0], loaded[1:], spec, space=space, pool_spec=PoolSpec(pooling=pooling))[0]


def test_weave_threads_share_readers_under_frequent_switching(tmp_path):
    # worker threads share each input reader; its reads are positional, so no thread moves the file
    # offset another thread reads from, however often the interpreter switches between them
    gen = np.random.default_rng(9)
    paths = [tmp_path / f"m{i}.safetensors" for i in range(4)]
    for path in paths:
        write_checkpoint(TensorMap({f"t{i:02d}": gen.normal(size=(33, 17)).astype(np.float32)
                                    for i in range(48)}), path)
    spec, space = MergeSpec("task_arithmetic"), SearchSpace((0.5, 1.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with contextlib.ExitStack() as stack:
            pre, *finetuned = (stack.enter_context(store._Reader(path)) for path in paths)
            woven, _ = weave(pre, finetuned, spec, space=space, threads=8)
    finally:
        sys.setswitchinterval(interval)
    loaded = [read_checkpoint(path) for path in paths]
    assert woven == weave(loaded[0], loaded[1:], spec, space=space)[0]
