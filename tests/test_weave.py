import time

import numpy as np
import pytest

from tensorweave import (
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TaskVector,
    TensorMap,
    build_augmented,
    compute_deltas,
    default_search_space,
    pool,
    registry_lookup,
    task_arithmetic,
    weave,
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


def test_unregistered_method_falls_back():
    space = default_search_space("some_future_method")
    assert space.lambdas == default_search_space("task_arithmetic").lambdas


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
    members = [tmap(w=r) for r in ([1.0, -2.0], [3.0, 0.0], [2.0, -1.0], [4.0, -2.0])]
    out = pool(members, PoolSpec(pooling="magmax"))
    # param 1 ties at |-2| between members 0 and 3; earliest member wins
    assert out.array("w").tolist() == [4.0, -2.0]


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
        merged = registry_lookup("ties")(deltas, spec.with_lambda(1.0))
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


def test_weave_streaming_equals_full_materialization(rng):
    # library-level cross-check: explicit member materialization then pool
    pre, finetuned = random_instance(rng, 2)
    spec = MergeSpec("breadcrumbs", params={"beta": 0.2, "gamma": 0.2}, seed=5)
    space = SearchSpace((0.4, 1.0))
    pool_spec = PoolSpec(pooling="magmax", seed=5, include_deltas=True)
    final, _ = weave(pre, finetuned, spec, space=space, pool_spec=pool_spec)

    deltas = compute_deltas(pre, finetuned)
    members = [tv.delta for tv in deltas]
    members += build_augmented(deltas, registry_lookup("breadcrumbs"), spec, space)
    pooled = pool(members, pool_spec)
    for name in pre:
        expected = pre.array(name) + pooled.array(name)
        assert final.array(name).tobytes() == expected.tobytes()


def test_registered_function_without_base_kernel_matches_builtin(rng):
    # a re-registered name loses the sweep shortcut but not correctness
    from tensorweave import register_merge, ties as builtin_ties
    from tensorweave.methods import sweep_base_kernel

    wrapped = lambda deltas, spec: builtin_ties(deltas, spec)  # noqa: E731
    register_merge("ties_wrapped", wrapped)
    assert sweep_base_kernel(wrapped) is None
    assert sweep_base_kernel(builtin_ties) is not None

    pre, finetuned = random_instance(rng, 3)
    space = SearchSpace((0.4, 0.9, 1.3))
    fast, _ = weave(
        pre, finetuned, MergeSpec("ties", params={"keep_fraction": 0.5}), space=space
    )
    slow, _ = weave(
        pre, finetuned, MergeSpec("ties_wrapped", params={"keep_fraction": 0.5}), space=space
    )
    for name in pre:
        assert fast.array(name).tobytes() == slow.array(name).tobytes()


def test_build_augmented_fast_path_matches_per_factor_merges(rng):
    from tensorweave import dare, register_merge, registry_lookup as lookup
    from tensorweave.methods import sweep_base_kernel

    register_merge("dare_wrapped", lambda deltas, spec: dare(deltas, spec))
    assert sweep_base_kernel(lookup("dare_wrapped")) is None

    pre, finetuned = random_instance(rng, 2)
    deltas = compute_deltas(pre, finetuned)
    space = SearchSpace((0.2, 0.7, 1.1, 1.4))
    for method, params in (
        ("task_arithmetic", {}),
        ("dare", {"drop_rate": 0.3}),
        ("ties", {"keep_fraction": 0.4}),
        ("breadcrumbs", {"beta": 0.1, "gamma": 0.2}),
        ("magmax", {}),
        ("dare_wrapped", {"drop_rate": 0.3}),
    ):
        spec = MergeSpec(method, params=params, seed=8)
        fn = lookup(method)
        swept = build_augmented(deltas, fn, spec, space)
        for lam, member in zip(space.lambdas, swept):
            direct = fn(deltas, spec.with_lambda(lam))
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
    top_member = task_arithmetic(task_vectors, spec.with_lambda(2.0))
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
    real_compute_deltas = weave_module.compute_deltas

    def slow_compute_deltas(*args, **kwargs):
        time.sleep(0.05)
        return real_compute_deltas(*args, **kwargs)

    monkeypatch.setattr(weave_module, "compute_deltas", slow_compute_deltas)
    pre, finetuned = random_instance(rng, 2)
    _, report = weave(pre, finetuned, MergeSpec("task_arithmetic"))
    assert report.wall_time_s >= 0.05


def test_weave_requires_inputs(rng):
    pre, _ = random_instance(rng, 1)
    with pytest.raises(ValueError):
        weave(pre, [], MergeSpec("task_arithmetic"))
