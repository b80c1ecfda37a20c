import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorweave.rng import stream_key, uniform01

from . import oracles


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    name=st.text(max_size=20),
    lane=st.integers(0, 100),
    count=st.integers(0, 200),
)
def test_matches_scalar_reference(seed, name, lane, count):
    key = stream_key(seed, name, lane)
    assert key == oracles.stream_key(seed, name, lane)
    got = uniform01(key, count)
    expected = oracles.uniform01(key, count)
    assert got.tolist() == expected


def test_deterministic_and_order_free():
    key = stream_key(42, "layer.weight", 3)
    full = uniform01(key, 1000)
    again = uniform01(key, 1000)
    np.testing.assert_array_equal(full, again)
    # draws are a pure function of position, not of how many were asked for
    np.testing.assert_array_equal(uniform01(key, 10), full[:10])


def test_streams_differ_across_names_lanes_seeds():
    base = uniform01(stream_key(1, "a", 0), 64)
    assert not np.array_equal(base, uniform01(stream_key(1, "b", 0), 64))
    assert not np.array_equal(base, uniform01(stream_key(1, "a", 1), 64))
    assert not np.array_equal(base, uniform01(stream_key(2, "a", 0), 64))


def test_negative_lane_is_refused():
    with pytest.raises(ValueError) as caught:
        stream_key(1, "a", -1)
    assert str(caught.value) == "lane must be non-negative, got -1"


def test_uniform_range_and_moments():
    draws = uniform01(stream_key(7, "stats", 0), 200_000)
    assert draws.min() >= 0.0 and draws.max() < 1.0
    # mean 0.5 +- ~6 sigma, variance 1/12
    assert abs(draws.mean() - 0.5) < 6 * (1 / 12) ** 0.5 / 200_000**0.5
    assert abs(draws.var() - 1 / 12) < 0.002


@pytest.mark.parametrize("key", [0, 2**64 - 1, stream_key(4242, "layers.0.weight", 2)],
                         ids=["zero", "max", "stream-key"])
def test_matches_scalar_reference_across_block_edges(key):
    # counts 2**k - 1, 2**k and 2**k + 1 for k = 13..17 straddle the edges of any block of 8K to 128K draws,
    # and key 2**64 - 1 makes key + (i + 1) * GOLDEN wrap; the reference is a pure function of the index,
    # so one long run of it serves every count
    counts = [2**k + d for k in range(13, 18) for d in (-1, 0, 1)]
    expected = np.array(oracles.uniform01(key, max(counts)))
    for count in counts:
        assert uniform01(key, count).tobytes() == expected[:count].tobytes(), count
