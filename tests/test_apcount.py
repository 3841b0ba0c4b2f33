"""The 3-AP counts of `fourier`, the Varnavides estimator
`subspace.varnavides_estimate`, and `selfcheck.t3_restricted`, the
pair-enumeration oracle that the counts are checked against."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ap3.fourier import count_raw, triple_counts
from ap3.gfspace import DensityFunction, GroupParams, PointSet, combine
from ap3 import fourier, gfspace, search, subspace as sub
from ap3.selfcheck import t3_restricted
from ap3.subspace import varnavides_estimate

from conftest import (
    all_subspaces,
    brute_count,
    brute_lambda3,
    canonical_codim_subspace,
    chunked_t3,
    digit_table,
    digits_to_index,
    full_space,
    lambda3,
    random_density,
    random_indicator,
    spectral_lambda3,
)

CAP4 = ((0, 0), (0, 1), (1, 0), (1, 1))


def pointset(params, digit_tuples):
    return PointSet(params, tuple(digits_to_index(d, params) for d in digit_tuples))


class TestLambda3Direct:
    """Known values of the float count and the direct double-loop oracle."""

    def test_constant_one(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        assert lambda3(f) == spectral_lambda3(f) == 1.0

    def test_subspace_indicator(self):
        # dim-k subspace indicator gives p^(2(k-n))
        params = GroupParams(3, 3)
        w = sub.span(params, [[1, 0, 0], [0, 1, 0]])
        f = PointSet(params, tuple(int(i) for i in w.elements())).density()
        assert lambda3(f) == pytest.approx(3.0 ** (2 * (2 - 3)))
        assert spectral_lambda3(f) == pytest.approx(3.0 ** (2 * (2 - 3)))

    def test_two_points_f3(self):
        f = PointSet(GroupParams(3, 1), (0, 1)).density()
        assert lambda3(f) == pytest.approx(2 / 9)
        assert spectral_lambda3(f) == pytest.approx(2 / 9)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_matches_brute_oracle(self, p, n, rng):
        params = GroupParams(p, n)
        f = random_density(params, rng)
        assert lambda3(f) == pytest.approx(brute_lambda3(f), abs=1e-12)
        assert spectral_lambda3(f) == pytest.approx(brute_lambda3(f), abs=1e-12)


LADDER = [(3, n) for n in range(4, 11)] + [(5, n) for n in range(3, 7)] + [(7, n) for n in range(3, 6)]


class TestExactKernel:
    @pytest.mark.parametrize("p,n", [(3, 6), (5, 4), (7, 3), (1009, 1)])
    def test_matches_chunked_oracle(self, p, n, rng):
        params = GroupParams(p, n)
        for density in (0.1, 0.5, 0.9):
            mask = rng.random(params.size) < density
            assert count_raw(PointSet.from_mask(params, mask)) == chunked_t3(
                mask.astype(np.int64), p, n
            )

    @pytest.mark.parametrize("p,n", [(3, 10), (5, 6), (7, 5), (3, 12), (4001, 1), (100003, 1)])
    def test_full_space(self, p, n):
        params = GroupParams(p, n)
        assert count_raw(PointSet(params, tuple(range(params.size)))) == params.size**2

    @pytest.mark.parametrize("p,n,k", [(3, 9, 4), (3, 10, 7), (5, 6, 3), (7, 5, 2)])
    def test_subspace(self, p, n, k):
        params = GroupParams(p, n)
        gens = [[int(i == j or i == j + 1) for i in range(n)] for j in range(k)]
        w = sub.span(params, gens)
        assert w.dim == k
        s = PointSet(params, tuple(int(i) for i in w.elements()))
        assert count_raw(s) == p ** (2 * k)

    def test_lifted_cap_set(self):
        # CAP4 in the first two coordinates of F_3^4 stays progression-free
        params = GroupParams(3, 4)
        s = pointset(params, [d + (0, 0) for d in CAP4])
        assert count_raw(s) == len(s)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_binary_cube_is_cap_set(self, n):
        # {0,1}^n in F_3^n: x + z = 2y with digits in {0,1} forces x = y = z,
        # so only the 2^n trivial progressions remain.
        params = GroupParams(3, n)
        cube = digit_table(3, n).max(axis=1) <= 1
        assert count_raw(PointSet.from_mask(params, cube)) == 2**n

    def test_batch_matches_single(self, rng):
        # Each row of a batch is counted on its own.
        params = GroupParams(5, 2)
        masks = rng.random((7, params.size)) < 0.4
        batch = triple_counts(masks, params)
        assert batch.dtype == np.int64
        assert [int(c) for c in batch] == [
            count_raw(PointSet.from_mask(params, m)) for m in masks
        ]
        assert [int(c) for c in batch] == [int(triple_counts(m, params)[0]) for m in masks]
        assert [int(c) for c in batch] == [
            brute_count(m, m, m, params.p, params.n) for m in masks
        ]

    @pytest.mark.parametrize("p,n", LADDER)
    def test_float_matches_exact(self, p, n, rng):
        # The one count on an indicator's float values, and the spectral
        # identity, against the same count on its boolean mask.
        params = GroupParams(p, n)
        for _ in range(2):
            f = random_indicator(params, rng)
            exact = int(triple_counts(f.values > 0.0, params)[0]) / params.size**2
            assert abs(lambda3(f) - exact) <= 1e-14 * params.size * exact
            assert abs(spectral_lambda3(f) - exact) <= 1e-14 * params.size * exact

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 4), (5, 3), (7, 2)])
    def test_density_rows_are_not_rounded(self, p, n, rng):
        # A point of weight 1/2 is one trivial triple of weight 1/8, which
        # rounding would make 0; a batch of float rows is summed row by row.
        params = GroupParams(p, n)
        point = np.zeros(params.size)
        point[1] = 0.5
        assert triple_counts(point, params).tolist() == [0.125]
        rows = rng.random((3, params.size)) * 0.3
        got = triple_counts(rows, params)
        assert got.dtype == np.float64
        for row, t3 in zip(rows, got):
            assert t3 == pytest.approx(chunked_t3(row, p, n), rel=1e-14)
            assert t3 != round(t3)


class TestRestricted:
    def test_subspace_closure(self):
        params = GroupParams(3, 2)
        w = sub.span(params, [[0, 1]])
        ws = PointSet(params, tuple(int(i) for i in w.elements())).mask()
        assert triple_counts(ws, params)[0] == 9

    def test_empty(self):
        params = GroupParams(3, 2)
        e = PointSet(params, ())
        assert triple_counts(e.mask(), params)[0] == 0
        f = DensityFunction.constant(params, 1.0)
        assert t3_restricted(f, e, e, e) == 0.0

    def test_translated_complement_cosets(self):
        # b_i + T for coset-AP triples: (2 beta^2 - beta)|W|^2
        params = GroupParams(3, 3)
        w = full_space(params)
        s_sp = canonical_codim_subspace(w, 1)
        s_members = set(int(i) for i in s_sp.elements())
        t = PointSet(params, tuple(i for i in range(params.size) if i not in s_members))
        w_size = params.size
        beta = Fraction(len(t), w_size)
        expected = (2 * beta**2 - beta) * w_size**2
        assert triple_counts(t.mask(), params)[0] == expected

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
    def test_count_matches_float_oracle(self, p, n, rng):
        # On the all-ones density t3_restricted sums 0/1 terms, exact below 2^53.
        # One batch of 4 rows; the oracle also counts three different masks.
        params = GroupParams(p, n)
        ones = DensityFunction.constant(params, 1.0)
        masks = rng.random((4, params.size)) < 0.5
        batch = triple_counts(masks, params)
        for i, x in enumerate(masks):
            s = PointSet.from_mask(params, x)
            assert batch[i] == t3_restricted(ones, s, s, s) == brute_count(x, x, x, p, n)
        u, v, w = rng.random((3, 4, params.size)) < 0.5
        for i in range(4):
            sets = (PointSet.from_mask(params, x[i]) for x in (u, v, w))
            assert t3_restricted(ones, *sets) == brute_count(u[i], v[i], w[i], p, n)

    def test_rejects_mixed_groups(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        u, other = PointSet(f.params, (0,)), PointSet(GroupParams(3, 1), (0,))
        with pytest.raises(ValueError) as info:
            t3_restricted(f, u, u, other)
        assert str(info.value) == "mismatched group parameters"

    def test_matches_unrestricted(self, rng):
        params = GroupParams(3, 2)
        f = random_density(params, rng)
        full = PointSet(params, tuple(range(9)))
        t3 = triple_counts(f.values, params)[0]
        assert t3_restricted(f, full, full, full) == pytest.approx(t3, abs=1e-9)


def t3_nontrivial(s: PointSet) -> int:
    """T3'(S): the raw count less its |S| trivial triples."""
    return count_raw(s) - len(s)


class TestNontrivial:
    def test_two_points(self):
        assert t3_nontrivial(PointSet(GroupParams(5, 1), (0, 3))) == 0

    def test_full_f3(self):
        assert t3_nontrivial(PointSet(GroupParams(3, 1), (0, 1, 2))) == 6

    def test_cap_set(self):
        params = GroupParams(3, 2)
        assert t3_nontrivial(pointset(params, CAP4)) == 0

    def test_raw_equals_nontrivial_plus_size(self, rng):
        for _ in range(20):
            params = GroupParams(3, 2)
            x = rng.random(9) < 0.5
            nontrivial = brute_count(x, x, x, 3, 2, trivial=False)
            assert count_raw(PointSet.from_mask(params, x)) == nontrivial + np.count_nonzero(x)

    def test_even_count(self, rng):
        # d and -d (or d and 2d at p=3) pair up, so T3' is even
        for p, n in [(3, 2), (5, 1), (7, 1)]:
            params = GroupParams(p, n)
            for _ in range(10):
                s = PointSet.from_mask(params, rng.random(params.size) < 0.6)
                assert t3_nontrivial(s) % 2 == 0


def complement_lambda3(h1: DensityFunction) -> tuple[float, float, float]:
    """(Lambda3(h1), Lambda3(1 - h1), E(h1)): the sum of the first two is
    1 - 3b + 3b^2 with b the third."""
    h2 = DensityFunction(h1.params, 1.0 - h1.values)
    return lambda3(h1), lambda3(h2), h1.expectation()


class TestComplementation:
    def test_empty_full(self):
        f = DensityFunction.constant(GroupParams(3, 1), 0.0)
        l1, l2, beta = complement_lambda3(f)
        assert (l1, l2, beta) == (0.0, 1.0, 0.0)

    def test_single_point(self):
        f = PointSet(GroupParams(3, 1), (0,)).density()
        l1, l2, beta = complement_lambda3(f)
        assert l1 == pytest.approx(1 / 9)
        assert l2 == pytest.approx(2 / 9)
        assert beta == pytest.approx(1 / 3)
        assert l1 + l2 == pytest.approx(1 - 3 * beta + 3 * beta**2)

    def test_constant_half(self):
        f = DensityFunction.constant(GroupParams(3, 2), 0.5)
        l1, l2, beta = complement_lambda3(f)
        assert l1 == pytest.approx(1 / 8)
        assert l2 == pytest.approx(1 / 8)
        assert l1 + l2 == pytest.approx(1 - 3 / 2 + 3 / 4)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_identity_random(self, p, n, rng):
        params = GroupParams(p, n)
        f = random_density(params, rng)
        l1, l2, beta = complement_lambda3(f)
        assert l1 + l2 == pytest.approx(1 - 3 * beta + 3 * beta**2, abs=1e-9)

    def test_identity_exact(self, rng):
        params = GroupParams(3, 3)
        for _ in range(20):
            s = PointSet.from_mask(params, rng.random(27) < 0.5)
            e1 = Fraction(count_raw(s), 27**2)
            e2 = Fraction(count_raw(s.complement()), 27**2)
            eb = Fraction(len(s), 27)
            assert e1 + e2 == 1 - 3 * eb + 3 * eb**2


class TestCosetDecompositionOfCounts:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_indicator_exact(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(5):
            h = random_indicator(params, rng)
            gens = [list(rng.integers(0, p, size=n))]
            w = sub.span(params, gens)
            rows = sub.coset_decomposition(w)
            transversal = rows[:, 0].tolist()
            cosets = {int(row[0]): PointSet(params, tuple(row.tolist())) for row in rows}
            total = 0.0
            for u1 in transversal:
                for u2 in transversal:
                    u3 = int(combine(-1, u1, 2, u2, params))
                    total += t3_restricted(h, cosets[u1], cosets[u2], cosets[u3])
            exact = count_raw(PointSet.from_mask(params, h.values > 0))
            assert total == pytest.approx(exact, abs=1e-9)


class TestVarnavides:
    def test_full_set_dense(self):
        params = GroupParams(3, 2)
        s = PointSet(params, tuple(range(9)))
        rep = varnavides_estimate(s, 1, exhaustive=True)
        assert rep.dense_coset_fraction == 1.0
        assert rep.certified_lower_bound <= t3_nontrivial(s)
        assert rep.certified_lower_bound > 0

    def test_empty(self):
        params = GroupParams(3, 2)
        rep = varnavides_estimate(PointSet(params, ()), 1, exhaustive=True)
        assert rep.certified_lower_bound == 0.0
        # alpha = 0 makes the density threshold vacuous
        assert rep.dense_coset_fraction == 1.0

    def test_cap_set_bound_zero(self):
        params = GroupParams(3, 2)
        rep = varnavides_estimate(pointset(params, CAP4), 1, exhaustive=True)
        assert rep.certified_lower_bound == 0.0

    def test_exhaustive_bound_exact(self, rng):
        params = GroupParams(3, 2)
        for _ in range(20):
            s = PointSet.from_mask(params, rng.random(9) < 0.5)
            rep = varnavides_estimate(s, 1, exhaustive=True)
            assert rep.certified_lower_bound_exact <= t3_nontrivial(s)

    @pytest.mark.parametrize("p,n,m_dim", [(3, 3, 1), (3, 3, 2), (5, 2, 1), (3, 4, 2)])
    def test_exhaustive_bound_closed_form(self, p, n, m_dim, rng):
        # Each nontrivial AP with common difference d lies in a coset of
        # every m-dim subgroup containing d, and those are the fraction
        # (p^m - 1) / (p^n - 1) of all m-dim subgroups.
        params = GroupParams(p, n)
        for _ in range(3):
            s = PointSet.from_mask(params, rng.random(params.size) < 0.5)
            rep = varnavides_estimate(s, m_dim, exhaustive=True)
            expected = Fraction(
                t3_nontrivial(s) * p ** (n - m_dim) * (p**m_dim - 1), p**n - 1
            )
            assert rep.certified_lower_bound_exact == expected

    @pytest.mark.parametrize(
        "p,n,m_dim", [(3, 4, 1), (3, 4, 2), (3, 4, 3), (5, 3, 2), (7, 2, 1)]
    )
    def test_sampled_bound_is_closed_form(self, p, n, m_dim, rng):
        # A uniform subgroup holds each d != 0 with probability
        # (p^m - 1) / (p^n - 1), so the sampled mode reports the expected
        # average: the exhaustive bound, whatever subgroups it draws.
        params = GroupParams(p, n)
        sets = [PointSet.from_mask(params, rng.random(params.size) < 0.4) for _ in range(2)]
        if (p, n, m_dim) == (3, 4, 1):
            # T3'(S) = 114.  One drawn subgroup's coset counts, scaled by
            # p^(n-m), exceed it for 96 of seeds 0..199 (1, 2 and 8 too).
            r = random.Random(0)
            sets.append(PointSet.from_mask(params, np.array([r.random() < 0.4 for _ in range(81)])))
            assert t3_nontrivial(sets[-1]) == 114
        for s in sets:
            expected = Fraction(
                t3_nontrivial(s) * p ** (n - m_dim) * (p**m_dim - 1), p**n - 1
            )
            rep = varnavides_estimate(s, m_dim, exhaustive=True)
            assert rep.certified_lower_bound_exact == expected
            assert expected <= t3_nontrivial(s)
            for seed in (0, 1, 2, 8):
                for samples in (1, 3):
                    rep = varnavides_estimate(s, m_dim, samples=samples, seed=seed)
                    assert rep.certified_lower_bound_exact == expected
                    assert rep.certified_lower_bound == float(expected)

    def test_sampling_reproducible(self, rng):
        params = GroupParams(3, 3)
        s = PointSet.from_mask(params, rng.random(27) < 0.5)
        a = varnavides_estimate(s, 2, samples=10, seed=7)
        b = varnavides_estimate(s, 2, samples=10, seed=7)
        assert a == b

    def test_rejects_negative_seed(self):
        # random.Random(-7) draws the stream of random.Random(7).
        s = pointset(GroupParams(3, 2), CAP4)
        with pytest.raises(ValueError, match="seed -7"):
            varnavides_estimate(s, 1, samples=3, seed=-7)

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_refuses_cyclic_group(self, exhaustive):
        s = PointSet(GroupParams(7, 1), (0, 1, 3))
        with pytest.raises(ValueError, match=r"F_7\^1 = Z_7 has no subspaces except 0 and Z_7"):
            varnavides_estimate(s, 1, samples=1, exhaustive=exhaustive)

    def test_rejects_bad_m(self):
        params = GroupParams(3, 2)
        with pytest.raises(ValueError):
            varnavides_estimate(PointSet(params, (0,)), 3, samples=1)

    def test_sampled_needs_samples(self):
        with pytest.raises(ValueError) as info:
            varnavides_estimate(PointSet(GroupParams(3, 2), (0,)), 1)
        assert str(info.value) == "samples must be >= 1 unless exhaustive"

    def test_exhaustive_budget(self, monkeypatch):
        # F_3^3 has 13 planes: the budget bounds the exhaustive scan only.
        monkeypatch.setattr(sub, "DEFAULT_MAX_SUBSPACES", 12)
        s = PointSet(GroupParams(3, 3), (0, 1, 5))
        with pytest.raises(ValueError, match="^13 subspaces to enumerate exceeds budget 12$"):
            varnavides_estimate(s, 2, exhaustive=True)
        assert varnavides_estimate(s, 2, samples=20, seed=1).sampled_subgroups == 20

    def test_errors_in_order(self, monkeypatch):
        # F_p^1 before the range of m_dim, and the range before the budget.
        monkeypatch.setattr(sub, "DEFAULT_MAX_SUBSPACES", 0)
        with pytest.raises(ValueError, match="^n = 1: "):
            varnavides_estimate(PointSet(GroupParams(7, 1), (0,)), 2, exhaustive=True)
        with pytest.raises(ValueError, match=r"^m_dim=4 out of range \[1, 3\]$"):
            varnavides_estimate(PointSet(GroupParams(3, 3), (0,)), 4, exhaustive=True)


class TestTransformCount:
    """Every mask is transformed forward once: a count takes one forward
    and one inverse transform per row, and the participation counts of a
    search step one forward and two inverse."""

    @staticmethod
    def counted_rows(monkeypatch):
        # The rows of each call, in order: forward transforms are numpy's
        # ifftn and inverse ones its fftn.
        calls = []
        for name in ("ifftn", "fftn"):
            fft = getattr(fourier, name)

            def counting(arr, *args, fft=fft, name=name, **kwargs):
                calls.append((name, arr.shape[0]))
                return fft(arr, *args, **kwargs)

            monkeypatch.setattr(fourier, name, counting)
        return calls

    @pytest.mark.parametrize("batch", [1, 5])
    def test_count(self, monkeypatch, rng, batch):
        params = GroupParams(3, 3)
        rows = self.counted_rows(monkeypatch)
        masks = rng.random((batch, params.size)) < 0.5
        counts = triple_counts(masks, params)
        assert rows == [("ifftn", batch), ("fftn", batch)]
        assert counts.tolist() == [brute_count(x, x, x, 3, 3) for x in masks]
        del rows[:]
        densities = rng.random((batch, params.size))
        triple_counts(densities, params)
        assert rows == [("ifftn", batch), ("fftn", batch)]

    @pytest.mark.parametrize("p, n", [(3, 3), (5, 2), (7, 2)])
    def test_participation(self, monkeypatch, rng, p, n):
        params = GroupParams(p, n)
        rows = self.counted_rows(monkeypatch)
        x = rng.random(params.size) < 0.4
        m, e = search._participation(x, params)
        assert rows == [("ifftn", 1), ("fftn", 2)]
        # M(v) = #{(y, z) in S^2: y + z = 2v}, E(v) = sum_y x(y) x(2y - v).
        y = np.arange(params.size)
        for v in range(params.size):
            assert m[v] == np.count_nonzero(x & x[combine(2, v, -1, y, params)])
            assert e[v] == np.count_nonzero(x & x[combine(2, y, -1, v, params)])


def old_varnavides_estimate(s, m_dim, samples=0, seed=None, exhaustive=False):
    """The per-subgroup loop that the batched estimator replaced: one coset
    decomposition and one batched count per subgroup."""
    params = s.params
    s_mask = s.mask()
    if exhaustive:
        subgroups = list(all_subspaces(params, m_dim))
    else:
        rng = random.Random(seed)
        subgroups = []
        for _ in range(samples):
            while True:
                gens = [rng.randrange(params.size) for _ in range(m_dim)]
                cand = sub.span(params, gens)
                if cand.dim == m_dim:
                    subgroups.append(cand)
                    break
    coset_params = GroupParams(params.p, m_dim)
    total = dense = cosets = 0
    for a in subgroups:
        rows = sub.coset_decomposition(a)
        in_s = s_mask[rows]
        sizes = in_s.sum(axis=1)
        raw = triple_counts(in_s, coset_params)
        dense += int(np.count_nonzero(2 * sizes * s_mask.size >= len(s) * rows.shape[1]))
        total += int(raw.sum() - sizes.sum())
        cosets += len(rows)
    bound = Fraction(total, len(subgroups)) * params.p ** (params.n - m_dim)
    return SimpleNamespace(
        m_dim=m_dim,
        sampled_subgroups=len(subgroups),
        dense_coset_fraction=dense / cosets if cosets else 0.0,
        certified_lower_bound=float(bound),
        certified_lower_bound_exact=bound,
        alpha=len(s) / params.size,
        exhaustive=exhaustive,
    )


class TestBatchedVarnavides:
    """varnavides_estimate against the per-subgroup loop, across block sizes."""

    @pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
    @pytest.mark.parametrize("per_block", [1, 2, None])
    def test_matches_per_subgroup_loop(self, p, n, per_block, rng, monkeypatch):
        params = GroupParams(p, n)
        sets = [PointSet(params, ()), PointSet(params, tuple(range(params.size)))]
        sets += [PointSet.from_mask(params, rng.random(params.size) < d) for d in (0.3, 0.6)]
        for s in sets:
            for m_dim in range(1, n + 1):
                if per_block is not None:
                    # per_block annihilators A^⊥, of dim n - m, a block.
                    monkeypatch.setattr(gfspace, "BLOCK", per_block * p ** (n - m_dim))
                got = varnavides_estimate(s, m_dim, exhaustive=True)
                assert got == old_varnavides_estimate(s, m_dim, exhaustive=True)
                # The sampled scan draws the loop's subgroups; its bound is
                # the exhaustive closed form, not the loop's sampled average.
                got = varnavides_estimate(s, m_dim, samples=5, seed=m_dim)
                old = old_varnavides_estimate(s, m_dim, samples=5, seed=m_dim)
                exact = Fraction(t3_nontrivial(s) * p ** (n - m_dim) * (p**m_dim - 1), p**n - 1)
                old.certified_lower_bound_exact = exact
                old.certified_lower_bound = float(exact)
                assert got == old

    @pytest.mark.parametrize("m_dim", [1, 2, 3])
    def test_exhaustive_matches_per_subgroup_loop_5_4(self, m_dim):
        # One 40% set: the loop takes about 0.3 s per call at m = 2.
        params = GroupParams(5, 4)
        s = PointSet.from_mask(params, np.random.default_rng(m_dim).random(params.size) < 0.4)
        got = varnavides_estimate(s, m_dim, exhaustive=True)
        assert got == old_varnavides_estimate(s, m_dim, exhaustive=True)

    @pytest.mark.parametrize("p, n, m_dim", [(3, 4, 1), (3, 4, 3), (5, 3, 2), (7, 2, 2)])
    def test_exhaustive_counts_once(self, p, n, m_dim, rng, monkeypatch):
        # The bound is arithmetic on T3'(S) in both modes: one count of
        # one mask, however many subgroups and cosets there are.
        calls = []
        pair_counts = fourier.pair_counts

        def counting(x, *args, **kwargs):
            calls.append(len(x))
            return pair_counts(x, *args, **kwargs)

        monkeypatch.setattr(fourier, "pair_counts", counting)
        params = GroupParams(p, n)
        s = PointSet.from_mask(params, rng.random(params.size) < 0.4)
        varnavides_estimate(s, m_dim, exhaustive=True)
        assert calls == [1]
        del calls[:]
        varnavides_estimate(s, m_dim, samples=4, seed=3)
        assert calls == [1]
