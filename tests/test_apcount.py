from fractions import Fraction

import numpy as np
import pytest

from ap3.apcount import (
    complement_lambda3,
    complement_lambda3_exact,
    count_raw,
    count_raw_masks,
    lambda3_exact,
    t3_nontrivial,
    t3_raw,
    t3_restricted,
    t3_restricted_count,
    varnavides_estimate,
)
from ap3.fourier import lambda3_spectral
from ap3.gfspace import DensityFunction, GroupParams, PointSet, digits_to_index
from ap3 import subspace as sub

from conftest import brute_lambda3, chunked_t3, random_density, random_indicator

CAP4 = ((0, 0), (0, 1), (1, 0), (1, 1))


def pointset(params, digit_tuples):
    return PointSet(params, tuple(digits_to_index(d, params) for d in digit_tuples))


class TestLambda3Direct:
    """Known values of the float count and the direct double-loop oracle."""

    def test_constant_one(self):
        assert lambda3_spectral(DensityFunction.constant(GroupParams(3, 2), 1.0)) == 1.0

    def test_subspace_indicator(self):
        # dim-k subspace indicator gives p^(2(k-n))
        params = GroupParams(3, 3)
        w = sub.span(params, [[1, 0, 0], [0, 1, 0]])
        f = PointSet(params, tuple(int(i) for i in w.elements())).density()
        assert lambda3_spectral(f) == pytest.approx(3.0 ** (2 * (2 - 3)))

    def test_two_points_f3(self):
        f = PointSet(GroupParams(3, 1), (0, 1)).density()
        assert lambda3_spectral(f) == pytest.approx(2 / 9)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_matches_brute_oracle(self, p, n, rng):
        params = GroupParams(p, n)
        f = random_density(params, rng)
        assert lambda3_spectral(f) == pytest.approx(brute_lambda3(f), abs=1e-12)


LADDER = [(3, n) for n in range(4, 11)] + [(5, n) for n in range(3, 7)] + [(7, n) for n in range(3, 6)]


class TestExactKernel:
    @pytest.mark.parametrize("p,n", [(3, 6), (5, 4), (7, 3)])
    def test_matches_chunked_oracle(self, p, n, rng):
        params = GroupParams(p, n)
        for density in (0.1, 0.5, 0.9):
            mask = rng.random(params.size) < density
            assert count_raw(PointSet.from_mask(params, mask)) == chunked_t3(
                mask.astype(np.int64), p, n
            )

    @pytest.mark.parametrize("p,n", [(3, 10), (5, 6), (7, 5)])
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
        assert t3_nontrivial(s) == 0

    def test_batch_matches_single(self, rng):
        params = GroupParams(5, 2)
        masks = rng.random((7, params.size)) < 0.4
        batch = count_raw_masks(masks, params)
        assert [int(c) for c in batch] == [
            count_raw(PointSet.from_mask(params, m)) for m in masks
        ]

    @pytest.mark.parametrize("p,n", LADDER)
    def test_float_matches_exact(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(2):
            f = random_indicator(params, rng)
            exact = count_raw(f.support()) / params.size**2
            assert abs(lambda3_spectral(f) - exact) <= 1e-14 * params.size * exact


class TestRestricted:
    def test_subspace_closure(self):
        params = GroupParams(3, 2)
        w = sub.span(params, [[0, 1]])
        ws = PointSet(params, tuple(int(i) for i in w.elements()))
        assert t3_restricted_count(ws, ws, ws) == 9

    def test_empty(self):
        params = GroupParams(3, 2)
        e = PointSet(params, ())
        assert t3_restricted_count(e, e, e) == 0
        f = DensityFunction.constant(params, 1.0)
        assert t3_restricted(f, e, e, e) == 0.0

    def test_translated_complement_cosets(self):
        # b_i + T for coset-AP triples: (2 beta^2 - beta)|W|^2
        params = GroupParams(3, 3)
        w = sub.full_space(params)
        s_sp = sub.canonical_codim_subspace(w, 1)
        s_members = set(int(i) for i in s_sp.elements())
        t = PointSet(params, tuple(i for i in range(params.size) if i not in s_members))
        w_size = params.size
        beta = Fraction(len(t), w_size)
        expected = (2 * beta**2 - beta) * w_size**2
        assert t3_restricted_count(t, t, t) == expected

    def test_matches_unrestricted(self, rng):
        params = GroupParams(3, 2)
        f = random_density(params, rng)
        full = PointSet(params, tuple(range(9)))
        assert t3_restricted(f, full, full, full) == pytest.approx(t3_raw(f), abs=1e-9)


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
            s = PointSet.from_mask(params, rng.random(9) < 0.5)
            assert count_raw(s) == t3_nontrivial(s) + len(s)

    def test_even_count(self, rng):
        # d and -d (or d and 2d at p=3) pair up, so T3' is even
        for p, n in [(3, 2), (5, 1), (7, 1)]:
            params = GroupParams(p, n)
            for _ in range(10):
                s = PointSet.from_mask(params, rng.random(params.size) < 0.6)
                assert t3_nontrivial(s) % 2 == 0


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
            e1, e2, eb = complement_lambda3_exact(s)
            assert e1 + e2 == 1 - 3 * eb + 3 * eb**2


class TestCosetDecompositionOfCounts:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_indicator_exact(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(5):
            h = random_indicator(params, rng)
            gens = [list(rng.integers(0, p, size=n))]
            w = sub.span(params, gens)
            dec = sub.coset_decomposition(w)
            cosets = {
                rep: PointSet(params, tuple(int(i) for i in dec.coset_members(rep)))
                for rep in dec.transversal
            }
            total = 0.0
            for u1 in dec.transversal:
                for u2 in dec.transversal:
                    from ap3.gfspace import add_indices, scale_indices

                    u3 = int(
                        add_indices(
                            int(add_indices(u2, u2, params)),
                            int(scale_indices(u1, p - 1, params)),
                            params,
                        )
                    )
                    total += t3_restricted(h, cosets[u1], cosets[u2], cosets[u3])
            assert total == pytest.approx(t3_raw(h), abs=1e-9)


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

    def test_sampling_reproducible(self, rng):
        params = GroupParams(3, 3)
        s = PointSet.from_mask(params, rng.random(27) < 0.5)
        a = varnavides_estimate(s, 2, samples=10, seed=7)
        b = varnavides_estimate(s, 2, samples=10, seed=7)
        assert a == b

    def test_rejects_bad_m(self):
        params = GroupParams(3, 2)
        with pytest.raises(ValueError):
            varnavides_estimate(PointSet(params, (0,)), 3, samples=1)
