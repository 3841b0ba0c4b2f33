"""ap3.pcg draws the stream of numpy's Generator(PCG64(seed)), which is the
oracle here: same seed, same calls, same numbers."""

import tracemalloc

import numpy as np
import pytest

from ap3.pcg import BLOCK, PCG64

SEEDS = [*range(300), 2**31 - 1, 2**32, 2**63, 2**64 + 5, 2**127, 2**130 + 17, 2**200 + 3]

# Bounds of `integers`: 32-bit Lemire draws up to 2^32 (2^31 + 1 rejects
# about half of them), 64-bit ones above.
BOUNDS = [9, 729, 3**10, 5**6, 2**31 + 1, 2**32, 2**33 + 7, 2**40]


def oracle(seed):
    return np.random.Generator(np.random.PCG64(seed))


def full_range(gen, size):
    return gen.integers(0, 2**64, size=size, dtype=np.uint64)


def test_seeds():
    for seed in SEEDS:
        ours, want = PCG64(seed), oracle(seed)
        assert np.array_equal(ours.uint64(7), full_range(want, 7)), seed
        for high in BOUNDS:
            assert np.array_equal(ours.integers(high, 3), want.integers(0, high, size=3)), (seed, high)
        assert np.array_equal(ours.random(5), want.random(5)), seed


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3**10])
def test_uint64_continues_the_stream(size):
    ours, want = PCG64(2024), oracle(2024)
    out = ours.uint64(size)
    assert out.dtype == np.uint64 and out.shape == (size,)
    assert np.array_equal(out, full_range(want, size))
    assert np.array_equal(ours.uint64(size), full_range(want, size))


@pytest.mark.parametrize("high", BOUNDS)
def test_integers(high):
    ours, want = PCG64(77), oracle(77)
    out = ours.integers(high, 1000)
    assert out.dtype == np.int64
    assert np.array_equal(out, want.integers(0, high, size=1000))
    # Both streams consumed the same draws, rejections included.
    assert np.array_equal(ours.uint64(4), full_range(want, 4))


def test_integers_of_one_draw_nothing():
    ours, want = PCG64(3), oracle(3)
    assert np.array_equal(ours.integers(1, 5), want.integers(0, 1, size=5))
    assert np.array_equal(ours.uint64(4), full_range(want, 4))


def test_next32_buffer_persists_across_calls():
    # An odd number of 32-bit draws leaves half a 64-bit draw buffered; the
    # full-range and float draws skip it, and the next bounded draw takes it.
    ours, want = PCG64(11), oracle(11)
    assert np.array_equal(ours.integers(9, 3), want.integers(0, 9, size=3))
    assert np.array_equal(ours.uint64(5), full_range(want, 5))
    assert np.array_equal(ours.random(3), want.random(3))
    assert np.array_equal(ours.integers(9, 1), want.integers(0, 9, size=1))
    assert np.array_equal(ours.integers(2**40, 2), want.integers(0, 2**40, size=2))
    assert np.array_equal(ours.integers(729, 2), want.integers(0, 729, size=2))


def test_random():
    ours, want = PCG64(20240901), oracle(20240901)
    for size in (0, 1, 9, BLOCK + 3):
        out = ours.random(size)
        assert out.dtype == np.float64
        assert np.array_equal(out, want.random(size))


def test_negative_seed_raises_like_numpy():
    with pytest.raises(ValueError) as theirs:
        oracle(-1)
    with pytest.raises(ValueError) as ours:
        PCG64(-1)
    assert str(ours.value) == str(theirs.value) == "expected non-negative integer"


def test_unseeded_streams_differ():
    assert not np.array_equal(PCG64().uint64(4), PCG64().uint64(4))
    assert not np.array_equal(PCG64(None).integers(3**10, 4), PCG64(None).integers(3**10, 4))


def test_uint64_memory_is_bounded_by_its_block():
    tracemalloc.start()
    try:
        out = PCG64(5).uint64(3**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.nbytes
