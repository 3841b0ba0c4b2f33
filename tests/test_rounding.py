import random
import tracemalloc

import numpy as np
import pytest

from ap3 import gfspace
from ap3.gfspace import BLOCK, DensityFunction, GroupParams
from ap3.rounding import (
    hoeffding_bound,
    randomize,
    repair,
    round_to_indicator,
)
from ap3 import subspace as sub

from conftest import random_density


def one_call_draws(size, seed):
    """The stream drawn in one call: the `size` 64-bit words, least
    significant first, of random.Random(seed).getrandbits(64 size)."""
    words = random.Random(seed).getrandbits(64 * size).to_bytes(8 * size, "little")
    return np.frombuffer(words, dtype="<u8")


class TestRandomize:
    def test_zero_and_one_exact(self):
        params = GroupParams(3, 2)
        vals = np.zeros(9)
        vals[:3] = 1.0
        f = DensityFunction(params, vals)
        for seed in range(20):
            out = randomize(f, seed)
            assert np.array_equal(out.values, vals)

    def test_reproducible(self, rng):
        f = random_density(GroupParams(3, 3), rng)
        a = randomize(f, 42)
        b = randomize(f, 42)
        assert np.array_equal(a.values, b.values)
        c = randomize(f, 43)
        assert not np.array_equal(a.values, c.values)

    def test_is_indicator(self, rng):
        f = random_density(GroupParams(3, 3), rng)
        out = randomize(f, 0)
        assert set(np.unique(out.values)) <= {0.0, 1.0}

    def test_empirical_mean(self):
        # law of large numbers across seeds at a fixed point
        params = GroupParams(3, 1)
        f = DensityFunction(params, np.array([0.3, 0.3, 0.3]))
        hits = sum(randomize(f, s).values.sum() for s in range(2000))
        assert abs(hits / 6000 - 0.3) < 0.02

    @pytest.mark.parametrize(
        "p, n, block",
        [(3, 8, 3**8 + 1), (3, 8, 3**8), (3, 8, 3**8 - 1), (3, 10, BLOCK)],
        ids=["one-short-block", "one-block", "block-and-one", "3^10"],
    )
    def test_blocks_join_into_one_call(self, monkeypatch, rng, p, n, block):
        # The draws are 2^12 words at a time; sizes one below, at and one
        # above a block are reached by resizing the block.
        monkeypatch.setattr(gfspace, "BLOCK", block)
        f = random_density(GroupParams(p, n), rng)
        want = one_call_draws(f.params.size, 31).astype(np.float64) < f.values * 2.0**64
        assert np.array_equal(randomize(f, 31).values, want)

    def test_mean_within_six_sigma(self):
        params = GroupParams(3, 10)
        ones = randomize(DensityFunction.constant(params, 0.3), 8).values.sum()
        assert abs(ones - 0.3 * params.size) <= 6 * (params.size * 0.3 * 0.7) ** 0.5

    def test_unseeded_draws_differ(self):
        f = DensityFunction.constant(GroupParams(3, 5), 0.5)
        assert not np.array_equal(randomize(f, None).values, randomize(f, None).values)

    def test_rejects_negative_seed(self):
        # random.Random(-5) draws the stream of random.Random(5).
        f = DensityFunction.constant(GroupParams(3, 2), 0.5)
        with pytest.raises(ValueError, match="seed -5"):
            randomize(f, -5)

    def test_memory_is_bounded_by_its_blocks(self, rng):
        # Each block is compared as it is drawn, so the peak is the bool
        # and float64 outputs and their checks: about 1.3 times the draws'
        # bytes, where a full-size array of draws would add 2 times more.
        f = random_density(GroupParams(3, 10), rng)
        tracemalloc.start()
        try:
            randomize(f, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * f.params.size


class TestRepair:
    def test_noop_when_met(self):
        params = GroupParams(3, 1)
        f = DensityFunction(params, np.array([1.0, 0.0, 1.0]))
        out = repair(f, 2 / 3)
        assert np.array_equal(out.values, f.values)

    def test_flips_lowest_indices(self):
        params = GroupParams(3, 2)
        f = DensityFunction(params, np.zeros(9))
        out = repair(f, 3 / 9)
        assert list(np.nonzero(out.values)[0]) == [0, 1, 2]

    def test_never_removes(self):
        params = GroupParams(3, 1)
        f = DensityFunction(params, np.array([1.0, 1.0, 1.0]))
        out = repair(f, 1 / 3)
        assert out.values.sum() == 3.0

    def test_rejects_a_target_above_1(self):
        f = DensityFunction(GroupParams(3, 1), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError) as info:
            repair(f, 1.5)
        assert str(info.value) == "target_mean 1.5 exceeds 1"

    def test_rejects_nonindicator(self):
        f = DensityFunction(GroupParams(3, 1), np.array([0.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match="0/1"):
            repair(f, 0.5)


class TestRoundToIndicator:
    def test_mean_never_below_target(self, rng):
        params = GroupParams(3, 3)
        f = DensityFunction.constant(params, 0.5)
        for seed in range(50):
            j2, rep = round_to_indicator(f, seed)
            assert rep.mean_after >= rep.mean_before - 1e-12
            assert rep.mean_after == j2.expectation()

    def test_replay_bit_identical(self, rng):
        f = random_density(GroupParams(3, 3), rng)
        a, ra = round_to_indicator(f, 7)
        b, rb = round_to_indicator(f, 7)
        assert np.array_equal(a.values, b.values)
        assert ra == rb

    def test_monitored_cosets(self, rng):
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        w = sub.span(params, [[1, 0, 0], [0, 1, 0]])
        _, rep = round_to_indicator(f, 1, monitored=[w])
        assert 0.0 <= rep.max_coset_deviation <= 1.0
        assert 0.0 < rep.hoeffding_bound <= 1.0


class TestHoeffding:
    def test_monotone(self):
        # The bound falls as |W| grows and as n shrinks, below the clamp.
        assert hoeffding_bound(200, 7) < hoeffding_bound(100, 7) < 1.0
        assert hoeffding_bound(100, 5) < hoeffding_bound(100, 7)

    def test_clamped(self):
        assert hoeffding_bound(1, 10**6) == 1.0

    def test_value(self):
        import math

        assert hoeffding_bound(8, 2) == pytest.approx(2 * math.exp(-1.0))
