import contextlib
import importlib
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorweave import (
    CheckpointError,
    MergeSpec,
    PoolSpec,
    SearchSpace,
    TaskVector,
    Tensor,
    TensorMap,
    build_augmented,
    compute_deltas,
    default_search_space,
    magmax,
    pool,
    read_checkpoint,
    registry_lookup,
    store,
    sweep_emit,
    task_arithmetic,
    weave,
    write_checkpoint,
)

from tensorweave.rng import stream_key

from tensorweave.cli import main

from .conftest import FIXTURES, as_task_vectors, edge_rows, map_to_lists, random_instance, random_map
from . import oracles


def tmap(**tensors):
    return TensorMap({k: np.array(v, dtype=np.float32) for k, v in tensors.items()})


# -------------------------------------------------------------- search space


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
    assert len(SearchSpace.parse("1:100000:1").lambdas) == 100_000  # the most factors a range may list
    with pytest.raises(ValueError, match="at most 100000 factors"):
        SearchSpace.parse("1:100001:1")
    with pytest.raises(ValueError):
        SearchSpace.parse("1.0:0.1")
    with pytest.raises(ValueError):
        SearchSpace.parse("[1.0, \"x\"]")


@pytest.mark.parametrize("text", ["0.1:nan:0.1", "0.1:1e308:1e-300", "0.1:1:inf"])
def test_search_space_parse_refuses_a_non_finite_range(text, tmp_path, capsys):
    message = f"range {text!r} must have a finite start, stop and step, and a finite number of factors"
    with pytest.raises(ValueError) as caught:
        SearchSpace.parse(text)
    assert str(caught.value) == message
    out = tmp_path / "woven.safetensors"
    code = main(["weave", "--method", "task_arithmetic", "--lambda-range", text, "--pretrained",
                 str(FIXTURES / "pretrained.safetensors"), "--out", str(out), str(FIXTURES / "task_cars.safetensors")])
    assert code == 2
    assert capsys.readouterr().err == f"error: --lambda-range: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[0.5,", "invalid scaling-factor list: Expecting value: line 1 column 6 (char 5)"),
    ("[" * 100_000,
     "invalid scaling-factor list: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    ("a:1:0.1", "invalid scaling-factor range 'a:1:0.1': could not convert string to float: 'a'"),
    ("0.1:1:0", "range '0.1:1:0' must have step > 0 and stop >= start"),
    ("1:0.5:0.1", "range '1:0.5:0.1' must have step > 0 and stop >= start"),
    ("0.1:1.0:1e-12", "range '0.1:1.0:1e-12' must have a step of at least 1e-12 and at most 100000 factors"),
    ("0.1:0.1000001:1e-13",
     "range '0.1:0.1000001:1e-13' must have a step of at least 1e-12 and at most 100000 factors"),
    ("0.5:0.5:1e-13", "range '0.5:0.5:1e-13' must have a step of at least 1e-12 and at most 100000 factors"),
], ids=["bad-json", "nested-too-deep", "non-numeric", "zero-step", "stop-below-start", "too-many-factors",
        "step-below-grain", "one-factor-step-below-grain"])
def test_search_space_parse_errors_exit_2_with_their_message(text, message, tmp_path, capsys):
    with pytest.raises(ValueError) as caught:
        SearchSpace.parse(text)
    assert str(caught.value) == message
    out = tmp_path / "woven.safetensors"
    code = main(["weave", "--method", "task_arithmetic", "--lambda-range", text, "--pretrained",
                 str(FIXTURES / "pretrained.safetensors"), "--out", str(out), str(FIXTURES / "task_cars.safetensors")])
    assert code == 2
    assert capsys.readouterr().err == f"error: --lambda-range: {message}\n"
    assert not out.exists()


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


def _weave_small(threads):
    return weave(tmap(w=[1.0, 2.0]), [tmap(w=[2.0, 0.0])], MergeSpec("task_arithmetic"), threads=threads)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MergeSpec("dare", params={"drop_rate": 0.5}, seed=1.5), "seed must be an unsigned 64-bit integer"),
        (lambda: MergeSpec("task_arithmetic", seed=True), "seed must be an unsigned 64-bit integer"),
        (lambda: MergeSpec("task_arithmetic", seed=1 << 64), "seed must be an unsigned 64-bit integer"),
        (lambda: PoolSpec("random", seed=2.5), "seed must be an unsigned 64-bit integer"),
        (lambda: stream_key(1.5, "w"), "seed must be an unsigned 64-bit integer"),
        (lambda: _weave_small(1.5), "threads must be a positive integer, got 1.5"),
        (lambda: _weave_small(True), "threads must be a positive integer, got True"),
        (lambda: _weave_small(0), "threads must be a positive integer, got 0"),
        (lambda: PoolSpec(include_deltas="false"), "include_deltas must be a bool, got 'false'"),
        (lambda: PoolSpec(include_deltas=0), "include_deltas must be a bool, got 0"),
        (lambda: PoolSpec(include_deltas=None), "include_deltas must be a bool, got None"),
        (lambda: PoolSpec(include_deltas=[]), r"include_deltas must be a bool, got \[\]"),
        (lambda: PoolSpec(include_deltas=2), "include_deltas must be a bool, got 2"),
    ],
    ids=["merge-float", "merge-bool", "merge-2**64", "pool-float", "stream-key-float", "threads-float",
         "threads-bool", "threads-zero", "include-deltas-str", "include-deltas-zero", "include-deltas-none",
         "include-deltas-list", "include-deltas-two"],
)
def test_seeds_and_thread_counts_must_be_integers(call, message):
    # refused where they enter: unchecked, a float seed fails inside the draws, a bool runs as 0 or 1,
    # a float thread count runs, and include_deltas runs as its truth value ("false" pools the raw deltas)
    with pytest.raises(ValueError, match=message):
        call()


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


@pytest.mark.parametrize("count", range(1, 10))
def test_pool_magmax_is_bitwise_the_oracle_on_edge_values(count):
    rows = edge_rows(count)
    out = pool([tmap(w=row) for row in rows], PoolSpec(pooling="magmax"))
    assert out.array("w").tobytes() == np.array(oracles.pool_members(rows, "magmax", 0, "w"), np.float32).tobytes()
    # 0-d: one case per element of the members; zero-size: members of no element
    cases = [([[row[j]] for row in rows], ()) for j in range(len(rows[0]))]
    cases += [([[] for _ in rows], (0,)), ([[] for _ in rows], (3, 0))]
    for members, shape in cases:
        picked = pool([tmap(w=np.array(m, np.float32).reshape(shape)) for m in members], PoolSpec(pooling="magmax"))
        assert picked.array("w").shape == shape
        expected = oracles.pool_members(members, "magmax", 0, "w")
        assert picked.array("w").tobytes() == np.array(expected, np.float32).tobytes()


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


def test_pool_random_matches_scalar_reference_across_draw_blocks():
    # members over two blocks of 32K draws and into a third: each element's pick comes from its own draw
    gen = np.random.default_rng(23)
    members = [gen.normal(0.0, 1.0, 2 * 32768 + 7).astype(np.float32) for _ in range(5)]
    out = pool([tmap(w=m) for m in members], PoolSpec(pooling="random", seed=2024))
    expected = oracles.pool_members([m.tolist() for m in members], "random", 2024, "w")
    assert out.array("w").tobytes() == np.array(expected, np.float32).tobytes()


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


@pytest.mark.parametrize("include_deltas", [True, False])
@pytest.mark.parametrize("pooling, drawn_per_tensor", [("avg", 3), ("random", 3), ("magmax", 0)])
def test_each_pooling_draws_only_the_sweep_members_it_needs(monkeypatch, rng, pooling, drawn_per_tensor,
                                                            include_deltas):
    # magmax pools the top member, which the sweep hands over already cast; drawing members(part) would
    # cast every other member for nothing, and avg must stream them
    weave_module = importlib.import_module("tensorweave.weave")
    pre, finetuned = random_instance(rng, 2)
    args = (MergeSpec("ties", params={"keep_fraction": 0.5}), SearchSpace((0.3, 0.8, 1.2)),
            PoolSpec(pooling, seed=9, include_deltas=include_deltas))
    expected, _ = weave(pre, finetuned, *args)
    drawn = dict.fromkeys(pre.names, 0)
    sweep = weave_module._sweep

    def counted_sweep(name, *rest):
        top, members = sweep(name, *rest)

        def counted(part):
            for member in members(part):
                drawn[name] += 1
                yield member
        return top, counted

    monkeypatch.setattr(weave_module, "_sweep", counted_sweep)
    woven, _ = weave(pre, finetuned, *args)
    assert drawn == dict.fromkeys(pre.names, drawn_per_tensor)
    assert woven == expected


# a few magnitudes of both signs, so task vectors and sweep members tie in magnitude and hold both signed zeros
TIED_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])
GENERATED_SHAPES = st.sampled_from([(), (0,), (2, 0), (1,), (3,), (5,), (2, 3), (4, 2)])
GENERATED_PARAMS = {
    "task_arithmetic": st.just({}),
    "dare": st.sampled_from([{"drop_rate": 0.0}, {"drop_rate": 0.3}, {"drop_rate": 0.6}]),
    "ties": st.sampled_from([{"keep_fraction": 0.2}, {"keep_fraction": 0.5}, {"keep_fraction": 1.0}]),
    "breadcrumbs": st.sampled_from([{"beta": 0.2, "gamma": 0.1}, {"beta": 0.0, "gamma": 0.4}]),
    "magmax": st.just({}),
}


@st.composite
def generated_weaves(draw, method: str, pooling: str, include_deltas: bool):
    """A small model family (pre-trained first; each tensor F32 or F16 in every model) and a weave of it."""
    shapes = draw(st.dictionaries(st.sampled_from(["a", "b.weight", "c"]), GENERATED_SHAPES, min_size=1, max_size=3))
    dtypes = {name: draw(st.sampled_from(["F32", "F16"])) for name in shapes}
    tied = {name: draw(st.booleans()) for name in shapes}

    def model() -> TensorMap:
        tensors = {}
        for name, shape in shapes.items():
            width = 16 if dtypes[name] == "F16" else 32
            size = int(np.prod(shape))
            elements = TIED_VALUES if tied[name] else st.floats(-4.0, 4.0, width=width)
            values = draw(st.lists(elements, min_size=size, max_size=size))
            tensors[name] = Tensor(np.array(values, dtype=f"<f{width // 8}").reshape(shape), dtypes[name])
        return TensorMap(tensors)

    models = [model() for _ in range(1 + draw(st.integers(1, 3)))]
    seed = draw(st.integers(0, 2**64 - 1))
    spec = MergeSpec(method, params=draw(GENERATED_PARAMS[method]), seed=seed)
    lambdas = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5]), min_size=1, max_size=4, unique=True))
    pool_spec = PoolSpec(pooling, seed, include_deltas)
    return models[0], models[1:], spec, SearchSpace(tuple(sorted(lambdas))), pool_spec


@pytest.mark.parametrize("include_deltas", [True, False])
@pytest.mark.parametrize("pooling", ["avg", "random", "magmax"])
@pytest.mark.parametrize("method", sorted(GENERATED_PARAMS))
@settings(max_examples=14, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_weave_and_pool_are_bitwise_the_oracles_on_generated_models(method, pooling, include_deltas, data):
    # bytes, not floats: == on floats takes -0.0 for 0.0
    pre, finetuned, spec, space, pool_spec = data.draw(generated_weaves(method, pooling, include_deltas))
    woven = [weave(pre, finetuned, spec, space, pool_spec, threads=threads)[0] for threads in (1, 2, 3, 4)]
    expected = oracles.weave_naive(map_to_lists(pre), [map_to_lists(ft) for ft in finetuned], spec.method,
                                   dict(spec.params), spec.seed, list(space.lambdas), pool_spec.pooling,
                                   pool_spec.include_deltas, pool_spec.seed)
    deltas = compute_deltas(pre, finetuned)
    members = ([tv.delta for tv in deltas] if pool_spec.include_deltas else []) + build_augmented(
        deltas, registry_lookup(spec.method), spec, space)
    pooled = pool(members, pool_spec)
    for name, tensor in pre.items():
        want = np.array(expected[name], dtype=np.float32).reshape(tensor.shape).tobytes()
        assert [(out[name].stored_dtype, out.array(name).tobytes()) for out in woven] == [
            (tensor.stored_dtype, want)] * 4
        rows = [[float(v) for v in member.array(name).ravel()] for member in members]
        want = np.array(oracles.pool_members(rows, pool_spec.pooling, pool_spec.seed, name), dtype=np.float32)
        assert pooled.array(name).tobytes() == want.reshape(tensor.shape).tobytes()


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


def test_build_augmented_draws_each_dare_stream_once(monkeypatch, rng, tmp_path):
    # every sweep path runs the kernel once per tensor, so dare draws each task's mask of each tensor once, whatever
    # the number of factors; random pooling adds its one lane-0 draw per tensor
    import tensorweave.methods as methods
    weave_module = importlib.import_module("tensorweave.weave")

    keys = []
    real_uniform01 = methods.uniform01

    def counting_uniform01(key, count):
        keys.append(key)
        return real_uniform01(key, count)

    monkeypatch.setattr(methods, "uniform01", counting_uniform01)
    monkeypatch.setattr(weave_module, "uniform01", counting_uniform01)
    shapes = {"a": (5,), "b": (2, 3), "c": (4,)}
    pre, finetuned = random_map(rng, shapes), [random_map(rng, shapes) for _ in range(2)]
    deltas = as_task_vectors([random_map(rng, shapes) for _ in range(2)])
    spec = MergeSpec("dare", params={"drop_rate": 0.5}, seed=3)
    tasks, tensors = 2, 3
    for space in (SearchSpace((1.0,)), SearchSpace((0.5, 1.0, 1.5))):
        runs = [
            (lambda: build_augmented(deltas, registry_lookup("dare"), spec, space), 0),
            (lambda: weave(pre, finetuned, spec, space, PoolSpec("avg")), 0),
            (lambda: weave(pre, finetuned, spec, space, PoolSpec("random", seed=5)), tensors),
            (lambda: sweep_emit(pre, finetuned, spec, space, tmp_path / f"sweep{len(space.lambdas)}"), 0),
        ]
        for run, pooling_draws in runs:
            keys.clear()
            run()
            assert len(keys) == tasks * tensors + pooling_draws


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
    from tensorweave import vectors

    weave_module = importlib.import_module("tensorweave.weave")
    real_task_vectors = vectors._task_vectors
    calls = []

    def slow_task_vectors(name, pretrained, finetuned, labels):
        calls.append((name, len(finetuned)))
        time.sleep(0.05)
        return real_task_vectors(name, pretrained, finetuned, labels)

    monkeypatch.setattr(weave_module, "_task_vectors", slow_task_vectors)
    pre, finetuned = random_instance(rng, 2)
    _, report = weave(pre, finetuned, MergeSpec("task_arithmetic"))
    assert calls == [(name, 2) for name in pre]  # one read-and-subtract per tensor, of both tasks
    assert report.wall_time_s >= 0.05 * len(calls)


def test_weave_requires_inputs(rng):
    pre, _ = random_instance(rng, 1)
    with pytest.raises(ValueError, match="at least one fine-tuned checkpoint"):
        weave(pre, [], MergeSpec("task_arithmetic"))


def test_weave_refuses_a_label_count_that_does_not_match_the_checkpoints(rng):
    pre, finetuned = random_instance(rng, 2)
    with pytest.raises(ValueError) as caught:
        weave(pre, finetuned, MergeSpec("task_arithmetic"), labels=["only"])
    assert str(caught.value) == "got 1 labels for 2 checkpoints"


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


@pytest.mark.parametrize("path", ["build_augmented", "merge_function"])
def test_whole_model_overflowing_merged_delta_names_smallest_lambda(path):
    # the whole-model helpers build members through the same sweep core as weave, with the same rule
    deltas = as_task_vectors([tmap(a=[1.0, 1.0], b=[1e38, 0.0]), tmap(a=[1.0, 1.0], b=[2e38, 0.0])])
    with pytest.raises(CheckpointError) as excinfo:
        if path == "build_augmented":
            space = SearchSpace((0.5, 1.0, 1.2, 1.5, 2.0))
            build_augmented(deltas, task_arithmetic, MergeSpec("task_arithmetic"), space)
        else:
            registry_lookup("task_arithmetic")(deltas, MergeSpec("task_arithmetic", lam=1.2))
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
