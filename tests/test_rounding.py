import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ap3 import gfspace
from ap3.gfspace import BLOCK, DensityFunction, GroupParams
from ap3.improve import construct_g
from ap3.rounding import (
    hoeffding_bound,
    randomize,
    repair,
    round_to_indicator,
)
from ap3 import subspace as sub

from conftest import planted_density, random_density


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
            assert np.array_equal(randomize(f, seed), vals == 1.0)

    def test_reproducible(self, rng):
        f = random_density(GroupParams(3, 3), rng)
        a = randomize(f, 42)
        b = randomize(f, 42)
        assert np.array_equal(a, b)
        c = randomize(f, 43)
        assert not np.array_equal(a, c)

    def test_is_indicator(self, rng):
        f = random_density(GroupParams(3, 3), rng)
        out = randomize(f, 0)
        assert out.dtype == bool and out.shape == (f.params.size,)

    def test_empirical_mean(self):
        # law of large numbers across seeds at a fixed point
        params = GroupParams(3, 1)
        f = DensityFunction(params, np.array([0.3, 0.3, 0.3]))
        hits = sum(int(randomize(f, s).sum()) for s in range(2000))
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
        assert np.array_equal(randomize(f, 31), want)

    def test_mean_within_six_sigma(self):
        params = GroupParams(3, 10)
        ones = int(randomize(DensityFunction.constant(params, 0.3), 8).sum())
        assert abs(ones - 0.3 * params.size) <= 6 * (params.size * 0.3 * 0.7) ** 0.5

    def test_unseeded_draws_differ(self):
        f = DensityFunction.constant(GroupParams(3, 5), 0.5)
        assert not np.array_equal(randomize(f, None), randomize(f, None))

    def test_rejects_negative_seed(self):
        # random.Random(-5) draws the stream of random.Random(5).
        f = DensityFunction.constant(GroupParams(3, 2), 0.5)
        with pytest.raises(ValueError, match="seed -5"):
            randomize(f, -5)

    def test_memory_is_bounded_by_its_blocks(self, rng):
        # Each block is compared as it is drawn, so the peak is the bool
        # output and one block's draws and checks, where a full-size array
        # of draws alone would take 8 bytes a point.
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
        mask = np.array([True, False, True])
        assert repair(mask, 2 / 3) == 0
        assert mask.tolist() == [True, False, True]

    def test_flips_lowest_indices(self):
        mask = np.zeros(9, dtype=bool)
        assert repair(mask, 3 / 9) == 3
        assert list(np.nonzero(mask)[0]) == [0, 1, 2]

    def test_never_removes(self):
        mask = np.ones(3, dtype=bool)
        assert repair(mask, 1 / 3) == 0
        assert mask.all()

    def test_rejects_a_target_above_1(self):
        # with no slack: one ulp above 1 is refused too
        mask = np.array([True, False, False])
        for target in [1.5, np.nextafter(1.0, 2.0)]:
            with pytest.raises(ValueError) as info:
                repair(mask, target)
            assert str(info.value) == f"target_mean {target} exceeds 1"
        assert mask.tolist() == [True, False, False]

    @pytest.mark.parametrize("k, size", [(3, 9), (40, 81), (129, 243)])
    def test_one_ulp_above_sets_one_point(self, rng, k, size):
        # A target one ulp above k / N is met by k + 1 points, not by k.
        mask = np.zeros(size, dtype=bool)
        mask[rng.choice(size, k, replace=False)] = True
        assert repair(mask.copy(), k / size) == 0
        topped = mask.copy()
        assert repair(topped, np.nextafter(k / size, 1.0)) == 1
        assert np.count_nonzero(topped) == k + 1
        assert np.count_nonzero(topped & ~mask) == 1

    @given(
        size=st.integers(3, 2187),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["k/N", "below", "above", "uniform"]),
        frac=st.floats(0.0, 1.0),
    )
    def test_contract(self, size, density, seed, kind, frac):
        # After repair the count is the least whose float mean reaches the
        # target, reached by setting the lowest-index zeros only.
        before = np.random.default_rng(seed).random(size) < density
        k = round(frac * size)
        target = {
            "k/N": k / size,
            "below": np.nextafter(k / size, 0.0),
            "above": np.nextafter(k / size, 2.0),
            "uniform": frac,
        }[kind]
        assume(target <= 1.0)
        mask = before.copy()
        set_ = repair(mask, float(target))
        count = int(np.count_nonzero(mask))
        assert count / size >= target
        assert set_ == 0 or (count - 1) / size < target
        assert set_ == count - int(np.count_nonzero(before))
        assert np.array_equal(np.flatnonzero(mask & ~before), np.flatnonzero(~before)[:set_])
        assert not (before & ~mask).any()


class TestRoundToIndicator:
    def test_mean_never_below_target(self, rng):
        params = GroupParams(3, 3)
        f = DensityFunction.constant(params, 0.5)
        for seed in range(50):
            j2, rep = round_to_indicator(f, seed)
            assert rep.mean_after >= rep.mean_before
            assert rep.mean_after == j2.expectation()

    def test_set_input_keeps_the_mean(self):
        # g improved from a set has a mean that k / N for the k it rounds
        # to can miss by an ulp; the rounded set's mean must still reach it.
        f = planted_density(3, 5, 2, 1)
        s = np.random.default_rng(1).random(f.params.size) < f.values
        g, report = construct_g(DensityFunction(f.params, s.astype(np.float64)), 0.5, 0.1)
        for seed in range(4):
            j2, rep = round_to_indicator(g, seed, monitored=[report.W])
            assert rep.mean_after >= rep.mean_before
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
