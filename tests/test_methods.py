import copy
import dataclasses
import inspect
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorweave import (
    CheckpointError,
    MergeSpec,
    SearchSpace,
    TaskVector,
    TensorMap,
    available_methods,
    breadcrumbs,
    build_augmented,
    dare,
    magmax,
    registry_lookup,
    task_arithmetic,
    ties,
)

from tensorweave.methods import _bit_select, _largest_magnitude

from .conftest import as_task_vectors, edge_rows, random_map
from . import oracles


def vecs(*rows):
    return as_task_vectors([TensorMap({"w": np.array(r, dtype=np.float32)}) for r in rows])


# five values: magnitudes tie across signs, and both signed zeros occur
TIE_ALPHABET = (-1.5, -0.0, 0.0, 1.5, 0.25)


def f32_bytes(values: list[float]) -> bytes:
    return np.array(values, dtype=np.float32).tobytes()


def arrays_equal(a: TensorMap, b: TensorMap) -> bool:
    return all(a.array(n).tobytes() == b.array(n).tobytes() for n in a)


# ---------------------------------------------------------------- MergeSpec


def test_spec_validation():
    MergeSpec("task_arithmetic", lam=0.5)
    with pytest.raises(ValueError, match="positive"):
        MergeSpec("task_arithmetic", lam=-1.0)
    with pytest.raises(ValueError, match="positive"):
        MergeSpec("task_arithmetic", lam=0.0)
    with pytest.raises(ValueError, match="drop_rate"):
        MergeSpec("dare", params={"drop_rate": 1.0})
    with pytest.raises(ValueError, match="drop_rate"):
        MergeSpec("dare")
    with pytest.raises(ValueError, match="keep_fraction"):
        MergeSpec("ties", params={"keep_fraction": 0.0})
    MergeSpec("ties", params={"keep_fraction": 1.0})
    with pytest.raises(ValueError, match="beta"):
        MergeSpec("breadcrumbs", params={"beta": 0.6, "gamma": 0.5})
    with pytest.raises(ValueError, match="seed"):
        MergeSpec("task_arithmetic", seed=-1)
    with pytest.raises(ValueError, match="does not accept"):
        MergeSpec("ties", params={"keep_fraction": 0.5, "beta": 0.1})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"method": "task_arithmetic", "lam": True}, "lambda must be a positive finite scalar"),
        ({"method": "task_arithmetic", "lam": "1"}, "lambda must be a positive finite scalar"),
        ({"method": "ties", "params": {"keep_fraction": True}}, "keep_fraction must be finite"),
        ({"method": "dare", "params": {"drop_rate": "0.5"}}, "drop_rate must be finite"),
        ({"method": "task_arithmetic", "lam": 10**400}, "lambda must be a positive finite scalar"),
    ],
    ids=["bool-lambda", "str-lambda", "bool-param", "str-param", "huge-int-lambda"],
)
def test_spec_refuses_a_bool_or_a_non_number(kwargs, message):
    # a bool is an int to Python, float() reads a numeric string, and an integer may not fit a float:
    # none of them may pass as a finite number
    with pytest.raises(ValueError, match=message):
        MergeSpec(**kwargs)


def test_spec_keeps_its_own_copy_of_its_parameters(rng):
    # editing the caller's dict afterwards must neither change the merge nor slip a value past the checks
    params = {"drop_rate": 0.5}
    spec = MergeSpec("dare", params=params, seed=4)
    params["drop_rate"] = 5.0
    params["beta"] = 0.1
    assert spec.params == {"drop_rate": 0.5}
    deltas = as_task_vectors([random_map(rng, {"a": (64,)})])
    assert np.count_nonzero(dare(deltas, spec).array("a")) > 0


def test_spec_parameters_are_read_only(rng):
    # a value set after the checks would skip them: a drop rate of 5 made dare return all zeros
    spec = MergeSpec("dare", params={"drop_rate": 0.5}, seed=4)
    with pytest.raises(TypeError):
        spec.params["drop_rate"] = 5.0
    with pytest.raises(TypeError):
        del spec.params["drop_rate"]
    assert spec.params == {"drop_rate": 0.5}
    deltas = as_task_vectors([random_map(rng, {"a": (64,)})])
    assert np.count_nonzero(dare(deltas, spec).array("a")) > 0
    for other in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), dataclasses.replace(spec)):
        assert other == spec
        with pytest.raises(TypeError):
            other.params["drop_rate"] = 5.0
    assert dataclasses.replace(spec, params={"drop_rate": 0.25}).params == {"drop_rate": 0.25}
    with pytest.raises(ValueError, match="drop_rate"):
        dataclasses.replace(spec, params={"drop_rate": 5.0})


def test_spec_parameters_are_floats():
    spec = MergeSpec("ties", params={"keep_fraction": 1})
    assert type(spec.params["keep_fraction"]) is float
    assert json.dumps(spec.to_json_dict()["params"]) == '{"keep_fraction": 1.0}'
    assert type(MergeSpec("dare", params={"drop_rate": np.float32(0.5)}).params["drop_rate"]) is float


def test_spec_json_round_trip():
    spec = MergeSpec("dare", lam=0.7, params={"drop_rate": 0.5}, seed=9)
    payload = spec.to_json_dict()
    assert payload == {"method": "dare", "lambda": 0.7, "params": {"drop_rate": 0.5}, "seed": 9}


# ----------------------------------------------------------- task arithmetic


def test_ta_example():
    out = task_arithmetic(vecs([1.0, -2.0], [3.0, 0.0]), MergeSpec("task_arithmetic", lam=0.5))
    assert out.array("w").tolist() == [2.0, -1.0]


def test_ta_single_identity():
    deltas = vecs([0.25, -7.5, 3.0])
    out = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=1.0))
    assert arrays_equal(out, deltas[0].delta)


def test_ta_equals_unit_axpy():
    deltas = vecs([1.5, 2.5], [-0.5, 4.0], [2.0, -2.0])
    out = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=1.0))
    rows = [tv.delta.array("w").tolist() for tv in deltas]
    assert out.array("w").tolist() == oracles.merge_ta(rows, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1, 1, width=32), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    ),
    st.floats(0.01, 1.5),
)
def test_ta_homogeneity(rows, lam):
    # unit-scale deltas and swept-range factors, where 1e-6 is > a float32 ulp
    deltas = vecs(*rows)
    scaled = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=lam)).array("w")
    unit = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=1.0)).array("w")
    np.testing.assert_allclose(scaled, lam * unit.astype(np.float64), atol=1e-6)


def test_ta_matches_oracle(rng):
    deltas = as_task_vectors([random_map(rng, {"a": (33,), "b": (2, 5)}) for _ in range(3)])
    out = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=0.37))
    for name in ("a", "b"):
        rows = [[float(x) for x in tv.delta.array(name).ravel()] for tv in deltas]
        expected = oracles.merge_ta(rows, 0.37)
        assert out.array(name).ravel().tolist() == expected


# ----------------------------------------------------------------------- dare


def test_dare_p0_is_ta_bitwise(rng):
    deltas = as_task_vectors([random_map(rng, {"a": (50,)}) for _ in range(3)])
    masked = dare(deltas, MergeSpec("dare", lam=0.8, params={"drop_rate": 0.0}, seed=99))
    plain = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=0.8))
    assert arrays_equal(masked, plain)


def test_dare_deterministic(rng):
    deltas = as_task_vectors([random_map(rng, {"a": (64,)}) for _ in range(2)])
    spec = MergeSpec("dare", lam=1.0, params={"drop_rate": 0.5}, seed=1234)
    assert arrays_equal(dare(deltas, spec), dare(deltas, spec))


def test_dare_seed_changes_mask(rng):
    deltas = as_task_vectors([random_map(rng, {"a": (256,)})])
    one = dare(deltas, MergeSpec("dare", params={"drop_rate": 0.5}, seed=1))
    two = dare(deltas, MergeSpec("dare", params={"drop_rate": 0.5}, seed=2))
    assert not arrays_equal(one, two)


def test_dare_drop_fraction_within_binomial_interval():
    scipy_stats = pytest.importorskip("scipy.stats")
    n = 100_000
    deltas = as_task_vectors([TensorMap({"w": np.ones(n, dtype=np.float32)})])
    p = 0.9
    out = dare(deltas, MergeSpec("dare", params={"drop_rate": p}, seed=31337))
    dropped = int((out.array("w") == 0).sum())
    low = scipy_stats.binom.ppf(0.0005, n, p)
    high = scipy_stats.binom.ppf(0.9995, n, p)
    assert low <= dropped <= high
    assert 0.894 <= dropped / n <= 0.906


def test_dare_survivors_rescaled():
    deltas = vecs([2.0] * 1000)
    out = dare(deltas, MergeSpec("dare", params={"drop_rate": 0.5}, seed=5)).array("w")
    survivors = out[out != 0]
    np.testing.assert_allclose(survivors, 4.0)


def test_dare_matches_oracle(rng):
    deltas = as_task_vectors([random_map(rng, {"x": (31,), "y": (8,)}) for _ in range(2)])
    spec = MergeSpec("dare", lam=0.6, params={"drop_rate": 0.4}, seed=77)
    out = dare(deltas, spec)
    for name in ("x", "y"):
        rows = [[float(v) for v in tv.delta.array(name).ravel()] for tv in deltas]
        expected = oracles.merge_dare(
            rows, 0.6, drop_rate=0.4, seed=77, tensor_name=name, task_indices=[1, 2]
        )
        assert out.array(name).ravel().tolist() == expected


@pytest.mark.parametrize("indices", [[1, 1], [0, 1], [2, -1]], ids=["repeated-as-by-default", "zero", "negative"])
def test_dare_refuses_task_indices_repeated_or_below_one(rng, indices):
    # the indices are the lanes of the dropout draws: a repeated one would give two tasks the same mask
    deltas = [TaskVector(random_map(rng, {"a": (16,)}), f"t{pos}", index) for pos, index in enumerate(indices)]
    spec = MergeSpec("dare", params={"drop_rate": 0.5}, seed=3)
    message = re.escape(f"dare needs distinct task indices of at least 1, got {indices}")
    with pytest.raises(ValueError, match=message):
        dare(deltas, spec)
    with pytest.raises(ValueError, match=message):
        build_augmented(deltas, dare, spec, SearchSpace((0.5, 1.0)))


# ----------------------------------------------------------------------- ties


def test_ties_hand_traced_example():
    out = ties(
        vecs([2.0, -1.0], [-3.0, -1.0]),
        MergeSpec("ties", lam=1.0, params={"keep_fraction": 1.0}),
    )
    assert out.array("w").tolist() == [-3.0, -1.0]


def test_ties_single_task_keep_all_is_scaled_delta():
    deltas = vecs([0.1, -0.7, 0.0, 5.0])
    lam = 0.3
    out = ties(deltas, MergeSpec("ties", lam=lam, params={"keep_fraction": 1.0}))
    expected = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=lam))
    assert arrays_equal(out, expected)


def test_ties_trim_keeps_largest():
    out = ties(vecs([4.0, -1.0]), MergeSpec("ties", lam=1.0, params={"keep_fraction": 0.5}))
    assert out.array("w").tolist() == [4.0, 0.0]


def test_ties_trim_tie_break_lower_index():
    # all equal magnitudes: keep ceil(0.5*4)=2, lowest flat indices first
    out = ties(vecs([1.0, -1.0, 1.0, -1.0]), MergeSpec("ties", lam=1.0, params={"keep_fraction": 0.5}))
    assert out.array("w").tolist() == [1.0, -1.0, 0.0, 0.0]


def test_ties_matches_oracle(rng):
    for _ in range(20):
        rows = [
            [rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) for _ in range(9)]
            for _ in range(rng.randint(1, 4))
        ]
        k = rng.choice([0.2, 0.34, 0.5, 0.75, 1.0])
        lam = rng.choice([0.1, 0.7, 1.0, 1.5])
        out = ties(vecs(*rows), MergeSpec("ties", lam=lam, params={"keep_fraction": k}))
        assert out.array("w").tolist() == oracles.merge_ties(rows, lam, keep_fraction=k)
    # large and tie-dense, signed zeros included: the partition path of the top-k
    for size in (1, 2, 257, 4099):
        for k in (1e-9, 0.2, 0.999, 1.0):
            rows = [[rng.choice(TIE_ALPHABET) for _ in range(size)] for _ in range(rng.randint(1, 4))]
            out = ties(vecs(*rows), MergeSpec("ties", lam=0.7, params={"keep_fraction": k}))
            assert out.array("w").tobytes() == f32_bytes(oracles.merge_ties(rows, 0.7, keep_fraction=k))


def test_ties_trim_dominance(rng):
    # every kept element dominates every dropped one under (|v|, -index) order
    row = [float(np.float32(rng.uniform(-3, 3))) for _ in range(12)]
    keep = int(np.ceil(0.4 * 12 - 1e-9))
    order = sorted(range(12), key=lambda i: (-abs(row[i]), i))
    kept, dropped = order[:keep], order[keep:]
    trimmed = oracles.trim_keep_top(row, keep)
    assert [trimmed[i] for i in kept] == [row[i] for i in kept]
    assert all(trimmed[i] == 0.0 for i in dropped)
    for ki in kept:
        for di in dropped:
            assert abs(row[ki]) > abs(row[di]) or (abs(row[ki]) == abs(row[di]) and ki < di)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-10, 10, width=32), min_size=6, max_size=6),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([0.25, 0.5, 1.0]),
)
def test_ties_sign_safety(rows, k):
    deltas = vecs(*rows)
    out = ties(deltas, MergeSpec("ties", lam=1.0, params={"keep_fraction": k})).array("w")
    expected = oracles.merge_ties(rows, 1.0, keep_fraction=k)
    assert out.tolist() == expected
    # recompute elected signs independently and check every nonzero output
    keep = max(1, int(np.ceil(k * 6 - 1e-9)))
    trimmed = [oracles.trim_keep_top([np.float32(v) for v in row], keep) for row in rows]
    for p in range(6):
        elected = np.sign(sum(t[p] for t in trimmed))
        if out[p] != 0:
            assert np.sign(out[p]) == elected
        if all(t[p] == 0 for t in trimmed):
            assert out[p] == 0


# ---------------------------------------------------------------- breadcrumbs


def test_breadcrumbs_zero_masks_is_ta_bitwise(rng):
    deltas = as_task_vectors([random_map(rng, {"a": (21,)}) for _ in range(3)])
    masked = breadcrumbs(deltas, MergeSpec("breadcrumbs", lam=0.9, params={"beta": 0.0, "gamma": 0.0}))
    plain = task_arithmetic(deltas, MergeSpec("task_arithmetic", lam=0.9))
    assert arrays_equal(masked, plain)


def test_breadcrumbs_example():
    out = breadcrumbs(
        vecs([1.0, -5.0, 2.0, 0.1]),
        MergeSpec("breadcrumbs", lam=1.0, params={"beta": 0.25, "gamma": 0.25}),
    )
    assert out.array("w").tolist() == [1.0, 0.0, 2.0, 0.0]


def test_breadcrumbs_equal_magnitudes_drop_count():
    out = breadcrumbs(
        vecs([1.0] * 10),
        MergeSpec("breadcrumbs", lam=1.0, params={"beta": 0.5, "gamma": 0.0}),
    ).array("w")
    assert int((out == 0).sum()) == 5
    # ties on the small side drop the lower flat indices first
    assert out.tolist() == [0.0] * 5 + [1.0] * 5


def test_breadcrumbs_equal_magnitudes_large_side():
    out = breadcrumbs(
        vecs([2.0] * 6),
        MergeSpec("breadcrumbs", lam=1.0, params={"beta": 0.0, "gamma": 0.5}),
    ).array("w")
    # ties on the large side drop the higher flat indices first
    assert out.tolist() == [2.0] * 3 + [0.0] * 3


def test_breadcrumbs_matches_oracle(rng):
    for _ in range(20):
        rows = [[rng.uniform(-4, 4) for _ in range(11)] for _ in range(rng.randint(1, 3))]
        rows = [[float(np.float32(v)) for v in row] for row in rows]
        beta = rng.choice([0.0, 0.2, 0.45])
        gamma = rng.choice([0.0, 0.2, 0.45])
        lam = rng.choice([0.5, 1.0])
        out = breadcrumbs(
            vecs(*rows), MergeSpec("breadcrumbs", lam=lam, params={"beta": beta, "gamma": gamma})
        )
        assert out.array("w").tolist() == oracles.merge_breadcrumbs(rows, lam, beta=beta, gamma=gamma)
    for size in (1, 2, 257, 4099):
        for beta, gamma in ((0.45, 0.45), (0.3, 0.0), (0.0, 0.3), (0.1, 0.85)):
            rows = [[rng.choice(TIE_ALPHABET) for _ in range(size)] for _ in range(rng.randint(1, 3))]
            spec = MergeSpec("breadcrumbs", lam=0.7, params={"beta": beta, "gamma": gamma})
            expected = oracles.merge_breadcrumbs(rows, 0.7, beta=beta, gamma=gamma)
            assert breadcrumbs(vecs(*rows), spec).array("w").tobytes() == f32_bytes(expected)


# -------------------------------------------------------------------- magmax


def test_magmax_example():
    out = magmax(vecs([1.0, -2.0], [3.0, 0.0]), MergeSpec("magmax", lam=0.5))
    assert out.array("w").tolist() == [1.5, -1.0]


def test_magmax_single_task():
    deltas = vecs([4.0, -0.5])
    out = magmax(deltas, MergeSpec("magmax", lam=1.0))
    assert arrays_equal(out, deltas[0].delta)


def test_magmax_tie_takes_smallest_index():
    out = magmax(vecs([1.0], [-1.0]), MergeSpec("magmax", lam=1.0))
    assert out.array("w").tolist() == [1.0]


def test_magmax_matches_oracle(rng):
    rows = [[rng.uniform(-2, 2) for _ in range(25)] for _ in range(4)]
    rows = [[float(np.float32(v)) for v in row] for row in rows]
    out = magmax(vecs(*rows), MergeSpec("magmax", lam=0.85))
    assert out.array("w").tolist() == oracles.merge_magmax(rows, 0.85)


def test_magmax_index_map_scaling_invariance(rng):
    # power-of-two scaling is exact in float32, so selection cannot move
    rows = [[rng.uniform(-8, 8) for _ in range(40)] for _ in range(3)]
    base = [np.array(row, dtype=np.float32) for row in rows]
    for c in (0.5, 2.0, 4.0):
        scaled = [c * row for row in base]
        index_base = np.argmax(np.abs(np.stack(base)), axis=0)
        index_scaled = np.argmax(np.abs(np.stack(scaled)), axis=0)
        np.testing.assert_array_equal(index_base, index_scaled)
        out = magmax(
            as_task_vectors([TensorMap({"w": row}) for row in scaled]),
            MergeSpec("magmax", lam=1.0),
        ).array("w")
        chosen = np.stack(scaled)[index_base, np.arange(40)]
        np.testing.assert_array_equal(out, chosen)


# ---------------------------------------------------------------- bit select


def test_bit_select_gives_the_bits_of_np_where():
    a, b, c = (np.array(row, dtype=np.float32) for row in edge_rows(3))
    for mask in (np.abs(a) > np.abs(b), np.signbit(c), np.ones(a.size, bool), np.zeros(a.size, bool)):
        trimmed = _bit_select(mask, a)
        assert trimmed.dtype == np.float32
        assert trimmed.tobytes() == np.where(mask, a, np.float32(0.0)).tobytes()
        # a dropped entry is +0.0, whatever its sign was
        assert not np.signbit(trimmed[~mask]).any()


@pytest.mark.parametrize("count", range(1, 10))
def test_magnitude_picks_are_bitwise_the_oracles_on_edge_values(count):
    rows = edge_rows(count)
    flats = [np.array(row, dtype=np.float32) for row in rows]
    for flat in flats:
        flat.setflags(write=False)
    picked = _largest_magnitude(flats)
    assert picked.tobytes() == f32_bytes(oracles.pool_members(rows, "magmax", 0, "w"))
    assert [flat.tobytes() for flat in flats] == [f32_bytes(row) for row in rows]  # inputs left as they were
    for lam in (1.0, 0.5):
        out = magmax(vecs(*rows), MergeSpec("magmax", lam=lam))
        assert out.array("w").tobytes() == f32_bytes(oracles.merge_magmax(rows, lam))
    for k in (0.1, 0.5, 1.0):  # the trim drops negative entries too
        out = ties(vecs(*rows), MergeSpec("ties", lam=1.0, params={"keep_fraction": k}))
        assert out.array("w").tobytes() == f32_bytes(oracles.merge_ties(rows, 1.0, keep_fraction=k))


@pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
def test_magnitude_picks_keep_0d_and_zero_size_shapes(shape):
    # 0-d: one case per element of the edge members; zero-size: one case of empty members
    rows = edge_rows(3)
    cases = [[[row[j]] for row in rows] for j in range(len(rows[0]))] if shape == () else [[[] for _ in rows]]
    for members in cases:
        deltas = as_task_vectors([TensorMap({"w": np.array(m, dtype=np.float32).reshape(shape)}) for m in members])
        picked = magmax(deltas, MergeSpec("magmax", lam=1.0)).array("w")
        assert picked.shape == shape
        assert picked.tobytes() == f32_bytes(oracles.merge_magmax(members, 1.0))
        trimmed = ties(deltas, MergeSpec("ties", lam=1.0, params={"keep_fraction": 0.5})).array("w")
        assert trimmed.shape == shape
        assert trimmed.tobytes() == f32_bytes(oracles.merge_ties(members, 1.0, keep_fraction=0.5))


# ------------------------------------------------------------------ registry


def test_registry_lookups():
    assert registry_lookup("ties") is ties
    assert registry_lookup("task_arithmetic") is task_arithmetic
    assert available_methods() == ["breadcrumbs", "dare", "magmax", "task_arithmetic", "ties"]


def test_registry_unknown_lists_available():
    with pytest.raises(ValueError, match="pcb") as excinfo:
        registry_lookup("pcb")
    message = str(excinfo.value)
    for name in available_methods():
        assert name in message


def test_sweep_base_kernel_serves_only_builtins():
    from tensorweave.methods import _REGISTRY, sweep_base_kernel

    for name in available_methods():
        assert sweep_base_kernel(registry_lookup(name)) is _REGISTRY[name].kernel
    with pytest.raises(ValueError, match="not a built-in merge function"):
        sweep_base_kernel(lambda deltas, spec: ties(deltas, spec))


# each method's description, as its merge function's docstring gives it
METHOD_DOCS = {
    "task_arithmetic": "lam * sum of the task vectors.",
    "dare": (
        "Per-element Bernoulli dropout with 1/(1-p) rescaling, then the scaled sum.\n\n"
        "Each task vector is masked independently; draws come from\n"
        "(seed, task index, tensor name, element index), so masks do not\n"
        "depend on execution order."
    ),
    "ties": (
        "Trim to the top-k fraction by magnitude, elect a sign, merge agreeing values.\n\n"
        "Per tensor: each task vector keeps its ceil(k*n) largest-magnitude\n"
        "elements (ties keep the lower flat index). The elected sign per\n"
        "element is the sign of the sum of trimmed values. The output is the\n"
        "mean of trimmed values matching the elected sign, scaled by lam."
    ),
    "breadcrumbs": (
        "Mask out the smallest and largest magnitudes, then the scaled sum.\n\n"
        "Per task vector and tensor, floor(beta*n) smallest-magnitude and\n"
        "floor(gamma*n) largest-magnitude elements are zeroed. Magnitude ties\n"
        "drop the lower flat index first on the small side and the higher flat\n"
        "index first on the large side."
    ),
    "magmax": (
        "Per element, lam times the delta whose magnitude is largest.\n\n"
        "Magnitude ties select the smallest task index."
    ),
}


@pytest.mark.parametrize("name", sorted(METHOD_DOCS))
def test_a_merge_method_is_its_merge_function(name):
    # the registry record is the public function: documented, called, pickled and hashed as a function is
    import tensorweave

    fn = registry_lookup(name)
    assert fn is getattr(tensorweave, name)
    assert inspect.getdoc(fn) == METHOD_DOCS[name]
    assert list(inspect.signature(fn).parameters) == ["deltas", "spec"]
    assert pickle.loads(pickle.dumps(fn)) is fn
    assert copy.copy(fn) is fn and copy.deepcopy(fn) is fn
    assert {fn: name}[fn] == name


METHOD_PARAMS = {
    "task_arithmetic": {},
    "dare": {"drop_rate": 0.5},
    "ties": {"keep_fraction": 0.25},
    "breadcrumbs": {"beta": 0.1, "gamma": 0.1},
    "magmax": {},
}


@pytest.mark.parametrize("method,other", [(m, o) for m in METHOD_PARAMS for o in METHOD_PARAMS if m != o])
def test_merge_function_refuses_a_spec_for_another_method(method, other):
    # the spec picks the kernel, so a function given another method's spec would run that method
    from tensorweave import SearchSpace, build_augmented

    deltas = vecs([1.0, -2.0, 3.0], [0.5, 0.5, -1.0])
    spec = MergeSpec(other, params=METHOD_PARAMS[other])
    expected = f"merge function {method} was given a spec for method {other}"
    with pytest.raises(ValueError) as excinfo:
        registry_lookup(method)(deltas, spec)
    assert str(excinfo.value) == expected
    with pytest.raises(ValueError) as excinfo:
        build_augmented(deltas, registry_lookup(method), spec, SearchSpace((0.5, 1.0)))
    assert str(excinfo.value) == expected
    with pytest.raises(ValueError, match="not a built-in merge function"):
        build_augmented(deltas, lambda deltas, spec: ties(deltas, spec), spec, SearchSpace((1.0,)))


def test_public_surface_is_fixed():
    import tensorweave

    assert tensorweave.__all__ == [
        "AccuracyTable", "CheckpointError", "CsvFormatError", "FingerprintMismatch", "LambdaHistogram",
        "MergeSpec", "PoolSpec", "SearchSpace", "SimilarityMatrix", "TaskVector", "Tensor", "TensorMap",
        "WeaveReport", "add", "available_methods", "best_lambda_histogram", "breadcrumbs", "build_augmented",
        "compute_deltas", "cosine_matrix", "dare", "default_search_space", "magmax", "pool", "read_checkpoint",
        "registry_lookup", "sweep_emit", "task_arithmetic", "ties", "weave", "write_checkpoint",
    ]


# --------------------------------------------------------- shared invariants


@pytest.mark.parametrize(
    "method,params",
    [
        ("task_arithmetic", {}),
        ("dare", {"drop_rate": 0.3}),
        ("ties", {"keep_fraction": 0.5}),
        ("breadcrumbs", {"beta": 0.2, "gamma": 0.2}),
        ("magmax", {}),
    ],
)
def test_fingerprint_preserved_and_deterministic(rng, method, params):
    deltas = as_task_vectors([random_map(rng, {"a": (3, 4), "b": (7,)}) for _ in range(3)])
    spec = MergeSpec(method, lam=0.7, params=params, seed=11)
    fn = registry_lookup(method)
    out1, out2 = fn(deltas, spec), fn(deltas, spec)
    schema = [(name, tensor.shape) for name, tensor in deltas[0].delta.items()]
    assert [(name, tensor.shape) for name, tensor in out1.items()] == schema
    assert arrays_equal(out1, out2)


def test_merge_rejects_empty_and_mismatched(rng):
    spec = MergeSpec("task_arithmetic")
    with pytest.raises(ValueError):
        task_arithmetic([], spec)
    good = as_task_vectors([random_map(rng, {"a": (4,)})])
    bad = as_task_vectors([random_map(rng, {"a": (5,)})])
    from tensorweave import FingerprintMismatch

    with pytest.raises(FingerprintMismatch):
        task_arithmetic([good[0], bad[0]], spec)


# a tensor over two blocks of 32K draws and into a third, with signed zeros among its values
_BLOCKS_SIZE = 2 * 32768 + 7


@pytest.mark.parametrize("drop_rate", [0.0, 0.5, 0.9])
def test_dare_matches_oracle_across_draw_blocks(drop_rate):
    gen = np.random.default_rng(19)
    rows = [gen.normal(0.0, 1.0, _BLOCKS_SIZE).astype(np.float32) for _ in range(2)]
    rows[0][::5], rows[1][::7] = 0.0, -0.0
    deltas = vecs(*rows)
    out = dare(deltas, MergeSpec("dare", lam=0.7, params={"drop_rate": drop_rate}, seed=2024))
    expected = oracles.merge_dare([row.tolist() for row in rows], 0.7, drop_rate=drop_rate, seed=2024,
                                  tensor_name="w", task_indices=[1, 2])
    assert out.array("w").tobytes() == f32_bytes(expected)


@pytest.mark.parametrize("drop_rate, value, message", [
    # a kept element of 3e38 rescales by 1 / (1 - 0.5) to 6e38, beyond float32 at every factor
    (0.5, 3e38, "tensor 'w': merged delta at lambda 0.5 overflows float32"),
    # nothing is dropped and 2e38 + 2e38 = 4e38 is finite in float64: float32 overflows from lambda 1.0
    (0.0, 2e38, "tensor 'w': merged delta at lambda 1.0 overflows float32"),
])
def test_dare_overflowing_rescale_names_smallest_lambda(drop_rate, value, message):
    row = np.zeros(_BLOCKS_SIZE, dtype=np.float32)
    spec = MergeSpec("dare", params={"drop_rate": drop_rate}, seed=5)
    keep = np.flatnonzero(np.array(oracles.uniform01(oracles.stream_key(5, "w", 1), _BLOCKS_SIZE)) >= drop_rate)
    row[keep[keep >= 32768][0]] = value  # the first kept element past the first block of draws
    space = SearchSpace((0.5, 0.8, 1.0, 1.5))
    with pytest.raises(CheckpointError) as caught:
        build_augmented(vecs(row, row), dare, spec, space)
    assert str(caught.value) == message
