from fractions import Fraction

import numpy as np
import pytest

from ap3.gfspace import GroupParams, PointSet, digits_to_index
from ap3.search import exhaustive_min, local_min, size_floor, structure_report
from ap3 import subspace as sub

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
        from ap3.apcount import t3_nontrivial

        assert t3_nontrivial(r.best_set) == 0
        assert len(r.best_set) == 4

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

    def test_respects_floor(self):
        params = GroupParams(3, 2)
        r = local_min(params, 5 / 9, restarts=3, iters=10, seed=1)
        assert len(r.best_set) >= 5

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


class TestStructure:
    def test_subspace_itself(self):
        params = GroupParams(3, 3)
        w = sub.span(params, [[1, 0, 0], [0, 1, 0]])
        s = PointSet(params, tuple(int(i) for i in w.elements()))
        rep = structure_report(s, max_codim=1)
        assert rep.best_positive_dim.symmetric_difference == 0
        assert rep.best_positive_dim.W == w
        assert rep.best_positive_dim.A_reps == (0,)

    def test_coset_union(self):
        # two cosets of a line in F_3^2 are matched exactly at codim 1
        params = GroupParams(3, 2)
        w = sub.span(params, [[0, 1]])
        dec = sub.coset_decomposition(w)
        members = []
        for rep in dec.transversal[:2]:
            members.extend(int(i) for i in dec.coset_members(rep))
        rep = structure_report(PointSet(params, tuple(sorted(members))), max_codim=1)
        assert rep.best_positive_dim.symmetric_difference == 0
        assert rep.best_positive_dim.W == w

    def test_trivial_w_is_perfect(self):
        params = GroupParams(3, 2)
        s = PointSet(params, (0, 1, 5))
        rep = structure_report(s, max_codim=2)
        assert rep.symmetric_difference == 0
        assert rep.W.dim == 0

    def test_budget(self):
        with pytest.raises(ValueError, match="budget"):
            structure_report(PointSet(GroupParams(3, 3), (0,)), 2, max_subspaces=3)

    def test_normalization(self):
        params = GroupParams(3, 2)
        s = PointSet(params, (0, 1))
        rep = structure_report(s, max_codim=1)
        assert rep.best_positive_dim.normalized == pytest.approx(
            rep.best_positive_dim.symmetric_difference / 9
        )
