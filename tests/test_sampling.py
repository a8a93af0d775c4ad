"""Tests for plie's own sample stream: the doubles of
``numpy.random.default_rng([seed, index]).random()``, bit for bit, drawn
without ``numpy.random`` and kept per (seed, index)."""

import numpy as np
import pytest

from plie import sampling

BIG = 123456789012345678901234567890  # 30 digits: four 32-bit words
KEYS = [0, 2**32 - 1, 2**32, 2**64 + 9, BIG]


@pytest.mark.parametrize("seed", KEYS)
@pytest.mark.parametrize("index", KEYS)
def test_stream_is_numpy_default_rng(seed, index):
    want = np.random.default_rng([seed, index]).random(200)
    for stream in (sampling._Stream(seed, index), sampling._stream(seed, index)):
        np.testing.assert_array_equal(stream.prefix(10), want[:10])
        np.testing.assert_array_equal(stream.prefix(200), want)  # extended past the first request


def test_interleaved_prefixes_of_growing_and_shrinking_length():
    want = np.random.default_rng([7, 3]).random(1000)
    stream, other = sampling._Stream(7, 3), sampling._Stream(7, 4)
    kept = []
    for k in (5, 40, 3, 100, 100, 1, 0, 333, 64, 1000, 999):
        got = stream.prefix(k)
        other.prefix(k)  # a second stream drawn in between does not disturb the first
        np.testing.assert_array_equal(got, want[:k])
        kept.append(got)
    for got in kept:  # a prefix handed out earlier is unchanged by later extensions
        np.testing.assert_array_equal(got, want[: got.size])
    np.testing.assert_array_equal(other.prefix(1000), np.random.default_rng([7, 4]).random(1000))


def test_draw_disks_is_memoised_per_key():
    sampling._stream.cache_clear()
    assert sampling._stream(5, 1) is sampling._stream(5, 1)
    assert sampling._stream(5, 1) is not sampling._stream(5, 2)
    for _ in range(3):
        sampling.draw_disks(5, np.arange(4), [((2, 3), 0.5)])
    sampling.draw_disks(5, np.arange(4), [((4, 4), 0.5)])  # a longer prefix extends the kept streams
    assert sampling._stream.cache_info().misses == 4  # each (5, i) is seeded once


@pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (-(2**40), 3)])
def test_negative_seed_or_index_raises(seed, index):
    with pytest.raises(ValueError):
        np.random.SeedSequence([seed, index])
    with pytest.raises(ValueError):
        sampling.draw_disks(seed, index, [(2, 1.0)])
    with pytest.raises(ValueError):
        sampling.sample_vector(seed, np.array([0, index]), 2, 1.0)


def test_kept_doubles_are_read_only():
    doubles = sampling._stream(11, 0).prefix(10)
    assert not doubles.flags.writeable
    with pytest.raises(ValueError):
        doubles[0] = 0.5


@pytest.mark.parametrize("index", [0, np.arange(3)], ids=["one", "stack"])
def test_mutating_a_point_leaves_later_draws_unchanged(index):
    first = sampling.sample_vector(13, index, 6, 1.0)
    want = first.copy()
    first += 1.0
    np.testing.assert_array_equal(sampling.sample_vector(13, index, 6, 1.0), want)
    # sample_dual adds 1 to its diagonal draw in place
    pairs = [sampling.sample_dual(13, index, 3, 0.4) for _ in range(2)]
    np.testing.assert_array_equal(pairs[0].hplus, pairs[1].hplus)
    np.testing.assert_array_equal(pairs[0].hminus, pairs[1].hminus)
