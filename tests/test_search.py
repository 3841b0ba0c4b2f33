import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ap3 import fourier, search
from ap3.cli import main
from ap3.fourier import count_raw
from ap3.gfspace import GroupParams, PointSet, combine
from ap3.search import (
    _best_move,
    _participation,
    exhaustive_min,
    local_min,
    size_floor,
)
from conftest import chunked_t3


# (p, n, alpha, restarts, iters, seed, best_set, count, iterations), recorded
# with a search that recounted every candidate set from scratch.
LOCAL_GOLDEN = [
    (3, 3, 0.4, 2, 10, 1, (0, 2, 3, 8, 12, 14, 15, 17, 18, 20, 24), 29, 4),
    (3, 3, 0.3, 3, 5, 7, (0, 1, 6, 8, 16, 18, 19, 21, 25), 9, 7),
    (3, 3, 0.5, 1, 20, 11, (0, 1, 6, 7, 13, 14, 16, 17, 18, 20, 21, 23, 24, 26), 74, 2),
    (3, 4, 0.3, 2, 4, 2, (1, 7, 10, 13, 20, 21, 23, 24, 27, 29, 32, 33, 39, 46, 47, 50, 55, 56, 62, 65, 70, 71, 72, 73, 79), 109, 8),
    (3, 4, 0.25, 1, 6, 5, (1, 3, 6, 7, 11, 14, 20, 26, 31, 32, 34, 37, 45, 48, 57, 59, 64, 67, 68, 74, 79), 45, 5),
    (5, 2, 0.3, 3, 10, 3, (0, 4, 6, 7, 8, 15, 17, 19), 16, 4),
    (5, 2, 0.5, 2, 10, 8, (1, 2, 4, 5, 6, 7, 12, 14, 15, 17, 20, 21, 24), 73, 6),
    (5, 3, 0.3, 1, 6, 4, (2, 3, 4, 7, 8, 11, 13, 19, 21, 24, 27, 28, 30, 33, 34, 35, 38, 39, 47, 50, 51, 53, 61, 68, 70, 77, 80, 82, 87, 95, 97, 99, 100, 102, 110, 112, 121, 122), 348, 6),
    (7, 2, 0.3, 2, 8, 6, (1, 5, 7, 11, 17, 18, 20, 21, 23, 26, 30, 31, 36, 37, 46), 47, 8),
    (7, 2, 0.45, 1, 10, 9, (0, 2, 3, 4, 8, 10, 13, 15, 21, 23, 27, 28, 29, 31, 32, 35, 38, 39, 41, 43, 44, 46, 48), 211, 6),
]

# (p, n, alpha, best_set, count)
EXHAUSTIVE_GOLDEN = [
    (3, 2, 0.1, (0,), 1),
    (3, 2, 0.2, (0, 1), 2),
    (3, 2, 0.3, (0, 1, 3), 3),
    (3, 2, 0.45, (0, 1, 2, 3, 4), 11),
    (3, 2, 0.5, (0, 1, 2, 3, 4), 11),
    (3, 2, 0.6, (0, 1, 2, 3, 4, 5), 18),
    (3, 2, 0.75, (0, 1, 2, 3, 4, 5, 6), 37),
    (3, 2, 1.0, (0, 1, 2, 3, 4, 5, 6, 7, 8), 81),
    (5, 1, 0.1, (0,), 1),
    (5, 1, 0.2, (0,), 1),
    (5, 1, 0.3, (0, 1), 2),
    (5, 1, 0.45, (0, 1, 2), 5),
    (5, 1, 0.5, (0, 1, 2), 5),
    (5, 1, 0.6, (0, 1, 2), 5),
    (5, 1, 0.75, (0, 1, 2, 3), 12),
    (5, 1, 1.0, (0, 1, 2, 3, 4), 25),
]


def brute_count(params, members):
    mask = np.zeros(params.size, dtype=np.int64)
    mask[list(members)] = 1
    return chunked_t3(mask, params.p, params.n)


class TestSizeFloor:
    def test_values(self):
        assert size_floor(4 / 9, 9) == 4
        assert size_floor(1.0, 9) == 9
        assert size_floor(0.01, 9) == 1

    def test_exact_fraction_no_overshoot(self):
        # 3/9 * 9 must give exactly 3 despite float representation
        assert size_floor(3 / 9, 9) == 3
        assert size_floor(1 / 3, 27) == 9

    def test_rejects(self):
        with pytest.raises(ValueError):
            size_floor(0.0, 9)
        with pytest.raises(ValueError):
            size_floor(1.5, 9)


class TestExhaustive:
    def test_single_point(self):
        r = exhaustive_min(GroupParams(3, 1), 0.1)
        assert r.best_set.members == (0,)
        assert r.count == 1
        assert r.lambda3 == Fraction(1, 9)

    def test_cap_witness_f3_2(self):
        # alpha = 4/9: the 4-point cap has only trivial triples
        r = exhaustive_min(GroupParams(3, 2), 4 / 9)
        assert r.count == 4
        assert r.lambda3 == Fraction(4, 81)
        assert count_raw(r.best_set) == len(r.best_set)  # no nontrivial triple
        assert len(r.best_set) == 4

    @pytest.mark.parametrize("n,size,count", [(1, 2, 2), (2, 4, 4), (2, 5, 11)])
    def test_cap_set_sizes(self, n, size, count):
        # The largest caps in F_3^1 and F_3^2 have 2 and 4 points, so only
        # trivial progressions; any 5 points of F_3^2 hold a line (6 more).
        params = GroupParams(3, n)
        r = exhaustive_min(params, size / params.size)
        assert (len(r.best_set), r.count) == (size, count)

    def test_lex_tiebreak(self):
        r = exhaustive_min(GroupParams(3, 1), 1 / 3)
        assert r.best_set.members == (0,)

    def test_full_domain(self):
        r = exhaustive_min(GroupParams(3, 2), 1.0)
        assert r.count == 81
        assert r.lambda3 == 1

    @pytest.mark.parametrize("p,n,alpha,members,count", EXHAUSTIVE_GOLDEN)
    def test_golden(self, p, n, alpha, members, count):
        r = exhaustive_min(GroupParams(p, n), alpha)
        assert (r.best_set.members, r.count) == (members, count)

    def test_domain_too_big(self):
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_min(GroupParams(3, 3), 0.5)

    @staticmethod
    def miscount_complements(monkeypatch):
        real = fourier.count_raw
        monkeypatch.setattr(fourier, "count_raw", lambda s: real(s) + 1)

    def test_complementation_check_fires(self, monkeypatch):
        self.miscount_complements(monkeypatch)
        with pytest.raises(RuntimeError, match="^complementation identity failed in exhaustive_min$"):
            exhaustive_min(GroupParams(3, 2), 4 / 9)

    def test_complementation_check_fails_the_job(self, monkeypatch, tmp_path, capsys):
        self.miscount_complements(monkeypatch)
        argv = ["search", "--p", "3", "--n", "2", "--alpha", "0.4", "--exhaustive"]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ap3: error: complementation identity failed in exhaustive_min\n"


class TestLocal:
    def test_reproducible(self):
        params = GroupParams(3, 2)
        a = local_min(params, 4 / 9, restarts=5, iters=20, seed=3)
        b = local_min(params, 4 / 9, restarts=5, iters=20, seed=3)
        assert a.best_set.members == b.best_set.members
        assert a.count == b.count

    def test_matches_exhaustive_count(self):
        params = GroupParams(3, 2)
        ex = exhaustive_min(params, 4 / 9)
        lo = local_min(params, 4 / 9, restarts=30, iters=50, seed=0)
        assert lo.count == ex.count

    def test_rejects_negative_seed(self):
        # random.Random(-3) draws the stream of random.Random(3).
        with pytest.raises(ValueError, match="seed -3"):
            local_min(GroupParams(3, 2), 4 / 9, restarts=5, iters=20, seed=-3)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="restarts=0"):
            local_min(GroupParams(3, 2), 4 / 9, restarts=0, iters=20, seed=3)

    def test_respects_floor(self):
        params = GroupParams(3, 2)
        r = local_min(params, 5 / 9, restarts=3, iters=10, seed=1)
        assert len(r.best_set) >= 5

    def test_recount_check_fires(self, monkeypatch):
        # From its second call, after the first move, M is one too high at
        # every point, so the recount exceeds the move's score by |S| = 11.
        real, calls = search._participation, []

        def inflated(x, params):
            m, e = real(x, params)
            calls.append(x)
            return (m + 1, e) if len(calls) > 1 else (m, e)

        monkeypatch.setattr(search, "_participation", inflated)
        with pytest.raises(RuntimeError) as info:
            local_min(GroupParams(3, 3), 0.4, 2, 10, 1)
        found = re.fullmatch(r"move scored (\d+) but recounts to (\d+)", str(info.value))
        scored, recounted = map(int, found.groups())
        assert recounted - scored == 11 and len(calls) == 2

    @pytest.mark.parametrize("p,n,alpha,restarts,iters,seed,members,count,moves", LOCAL_GOLDEN)
    def test_golden(self, p, n, alpha, restarts, iters, seed, members, count, moves):
        r = local_min(GroupParams(p, n), alpha, restarts, iters, seed)
        assert (r.best_set.members, r.count, r.iterations) == (members, count, moves)

    @pytest.mark.parametrize("p,n,alpha,seed", [(3, 3, 0.3, 7), (5, 2, 0.5, 8), (7, 2, 0.3, 6)])
    def test_each_move_recounts(self, p, n, alpha, seed):
        # Stopping after k moves exposes the k-th accepted set and its score.
        params = GroupParams(p, n)
        prev = None
        for k in range(12):
            r = local_min(params, alpha, 1, k, seed)
            assert r.count == brute_count(params, r.best_set.members)
            if prev is not None and r.iterations > prev.iterations:
                assert r.count < prev.count
            prev = r


def swap_table(x, count, m, e, params):
    """(inside, outside, swap) with swap[i, j] the count after moving
    inside[i] to outside[j]: every pair of the full |S| x |S^c| table."""
    inside, outside = np.flatnonzero(x), np.flatnonzero(~x)
    add = count + 2 * e[outside] + m[outside] + 1
    remove = count - 2 * e[inside] - m[inside] + 2
    h = (params.p + 1) // 2
    u, v = inside[:, None], outside[None, :]
    xi = x.astype(np.int64)
    pairs = (
        xi[combine(2, u, -1, v, params)]
        + xi[combine(h, u, h, v, params)]
        + xi[combine(-1, u, 2, v, params)]
    )
    return inside, outside, remove[:, None] + add[None, :] - count - 2 * pairs


def full_table_best_move(x, count, m, e, params):
    """The move search made before it scored candidates only: the first
    minimum of the whole swap table, in (removed, added) order."""
    if x.all():
        return None, count
    inside, outside, swap = swap_table(x, count, m, e, params)
    i, j = np.unravel_index(int(np.argmin(swap)), swap.shape)
    if swap[i, j] >= count:
        return None, count
    best = x.copy()
    best[inside[i]], best[outside[j]] = False, True
    return best, int(swap[i, j])


def move_masks(params, rng):
    """Random masks at densities 0.1-0.9, the same masks closed under
    negation, whose swaps u -> v and -u -> -v score alike so that the
    minimum is tied, and the one-point and one-hole masks."""
    neg = combine(-1, np.arange(params.size), 0, 0, params)
    for _ in range(12):
        x = rng.random(params.size) < rng.uniform(0.1, 0.9)
        yield x
        yield x | x[neg]
    for i in (0, params.size - 1):
        x = np.zeros(params.size, dtype=bool)
        x[i] = True
        yield x
        yield ~x


class TestCandidateMoves:
    @pytest.mark.parametrize(
        "p, n", [(3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (101, 1)]
    )
    def test_matches_full_table(self, p, n, rng):
        params = GroupParams(p, n)
        tied = 0
        for x in move_masks(params, rng):
            if not x.any():
                continue
            m, e = _participation(x, params)
            count = int(m[x].sum())
            got = _best_move(x, count, m, e, params)
            want = full_table_best_move(x, count, m, e, params)
            assert got[1] == want[1]
            if want[0] is None:
                assert got[0] is None
            else:
                assert np.array_equal(got[0], want[0])
            if not x.all():
                swap = swap_table(x, count, m, e, params)[2]
                tied += np.count_nonzero(swap == swap.min()) > 1
        assert tied >= 10  # the tie-break is exercised

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_lifted_cap_builds_no_table(self, n):
        # The cap {z = x^2 + y^2} of F_3^3 lifted to F_3^n: every swap
        # scores alike, so every pair would be a candidate (the full table
        # took 251 MB of RSS at 3^8), but (min add - count) + (min remove -
        # count) >= 6 shows that no swap lowers the count.
        params = GroupParams(3, n)
        cap = [x + 3 * y + 9 * ((x * x + y * y) % 3) for x in range(3) for y in range(3)]
        x = np.isin(np.arange(params.size) % 27, cap)
        m, e = _participation(x, params)
        count = int(m[x].sum())
        assert count == 9 * 3 ** (2 * (n - 3))  # T3(S x F_p^j) = p^2j T3(S)
        tracemalloc.start()
        try:
            move = _best_move(x, count, m, e, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert move == (None, count)
        assert peak < 8 * 8 * params.size  # a few int64 arrays of p^n entries
        if n < 8:
            assert full_table_best_move(x, count, m, e, params) == (None, count)

    @pytest.mark.parametrize("p, n", [(3, 8), (4001, 1)])
    def test_step_memory(self, p, n):
        # The full table traces 217 MB at 3^8 and 81 MB on Z_4001.
        params = GroupParams(p, n)
        x = np.random.default_rng(1).random(params.size) < 0.3
        m, e = _participation(x, params)
        count = int(m[x].sum())
        tracemalloc.start()
        try:
            move, move_count = _best_move(x, count, m, e, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert move is not None and move_count < count
