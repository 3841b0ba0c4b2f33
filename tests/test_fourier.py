import numpy as np
import pytest

from ap3 import fourier
from ap3.fourier import (
    INT64_LIMIT,
    Spectrum,
    convolve_indicators,
    dft_forward,
    dft_inverse,
    lambda3_spectral,
    large_spectrum,
    ntt_prime,
    spectrum_export_lines,
)
from ap3.gfspace import DensityFunction, GroupParams, PointSet, is_prime, scale_map, sub_indices
from ap3 import subspace as sub

from conftest import brute_lambda3, naive_dft, random_density


class TestForward:
    def test_constant(self):
        params = GroupParams(3, 2)
        c = dft_forward(DensityFunction.constant(params, 1.0)).coeffs
        assert c[0] == pytest.approx(9.0)
        assert np.abs(c[1:]).max() < 1e-12

    def test_delta(self):
        params = GroupParams(3, 2)
        vals = np.zeros(9)
        vals[0] = 1.0
        c = dft_forward(DensityFunction(params, vals)).coeffs
        assert np.abs(c - 1.0).max() < 1e-12

    def test_against_naive(self, rng):
        params = GroupParams(5, 2)
        f = random_density(params, rng)
        assert np.abs(dft_forward(f).coeffs - naive_dft(f)).max() < 1e-9

    def test_against_naive_p3_n3(self, rng):
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        assert np.abs(dft_forward(f).coeffs - naive_dft(f)).max() < 1e-9

    def test_dc_coefficient(self, rng):
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        c0 = dft_forward(f).coeffs[0]
        assert abs(c0 - f.values.sum()) < 1e-9 * params.size
        assert abs(c0.imag) < 1e-12

    def test_conjugate_symmetry(self, rng):
        params = GroupParams(5, 2)
        c = dft_forward(random_density(params, rng)).coeffs
        assert np.abs(c[scale_map(5, 2, 4)] - np.conj(c)).max() < 1e-10


class TestInverse:
    def test_roundtrip(self, rng):
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        back = dft_inverse(dft_forward(f))
        assert np.abs(back.values - f.values).max() < 1e-10

    def test_dc_only(self):
        params = GroupParams(3, 2)
        c = np.zeros(9, dtype=complex)
        c[0] = 9.0
        f = dft_inverse(Spectrum(params, c))
        assert np.allclose(f.values, 1.0)

    def test_rejects_asymmetric(self):
        params = GroupParams(3, 1)
        c = np.array([1.0, 2.0j, 5.0], dtype=complex)
        with pytest.raises(ValueError, match="conjugate symmetry"):
            dft_inverse(Spectrum(params, c))


class TestParseval:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (5, 3), (7, 2)])
    def test_parseval(self, p, n, rng):
        params = GroupParams(p, n)
        f = random_density(params, rng)
        lhs = float(np.sum(np.abs(dft_forward(f).coeffs) ** 2)) / params.size
        rhs = float(np.sum(f.values**2))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLambda3Spectral:
    def test_constant_one(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        assert lambda3_spectral(f) == pytest.approx(1.0)

    def test_single_point(self):
        params = GroupParams(3, 2)
        vals = np.zeros(9)
        vals[0] = 1.0
        assert lambda3_spectral(DensityFunction(params, vals)) == pytest.approx(1 / 81)

    def test_two_point_set(self):
        # {0, 1} in F_3: only d=0 progressions survive -> 2/9
        params = GroupParams(3, 1)
        f = PointSet(params, (0, 1)).density()
        assert lambda3_spectral(f) == pytest.approx(2 / 9, abs=1e-12)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_matches_direct(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(5):
            f = random_density(params, rng)
            assert abs(lambda3_spectral(f) - brute_lambda3(f)) < 1e-9


class TestLargeSpectrum:
    def test_constant(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        assert large_spectrum(f, 0.5).members == (0,)

    def test_subspace_indicator(self):
        # indicator of span{(0,1)} in F_3^2: fhat is |W| on the annihilator
        params = GroupParams(3, 2)
        w = sub.span(params, [[0, 1]])
        f = PointSet(params, tuple(int(i) for i in w.elements())).density()
        a = large_spectrum(f, 0.2)
        annihilator = set(int(i) for i in sub.orthogonal_complement(w).elements())
        assert set(a.members) == annihilator
        assert len(a) == 3

    def test_above_max_is_empty(self, rng):
        f = random_density(GroupParams(3, 2), rng)
        assert large_spectrum(f, 1.01).members == ()

    def test_parseval_violation_raises(self, monkeypatch, rng):
        # No f in [0,1] breaks Parseval, so inflate the spectrum instead.
        orig = fourier.dft_forward

        def inflated(f):
            spec = orig(f)
            return Spectrum(spec.params, spec.coeffs * 100.0)

        monkeypatch.setattr(fourier, "dft_forward", inflated)
        f = random_density(GroupParams(3, 2), rng)
        with pytest.raises(ValueError, match="Parseval"):
            large_spectrum(f, 0.5)

    def test_parseval_bound(self, rng):
        params = GroupParams(3, 3)
        for delta in [0.05, 0.1, 0.3]:
            for _ in range(5):
                f = random_density(params, rng)
                assert len(large_spectrum(f, delta)) <= delta**-2


class TestExport:
    def test_sorted_by_magnitude(self, rng):
        params = GroupParams(3, 2)
        f = random_density(params, rng)
        lines = spectrum_export_lines(dft_forward(f), 0.01)
        mags = []
        for line in lines:
            idx, re, im = line.split()
            mags.append(abs(complex(float(re), float(im))))
        assert mags == sorted(mags, reverse=True)


class TestExactTransform:
    @pytest.mark.parametrize("p,n", [(3, 1), (3, 7), (5, 4), (7, 3), (11, 2), (3, 19)])
    def test_prime_chooser(self, p, n):
        q = ntt_prime(p, n)
        assert is_prime(q)
        assert q % p == 1
        assert q > p**n
        assert p * (q - 1) ** 2 < INT64_LIMIT
        # smallest such prime
        assert not any(is_prime(c) for c in range(p**n + 1, q, p))

    @pytest.mark.parametrize("p,n", [(3, 20), (3, 40), (5, 14), (7, 11)])
    def test_prime_chooser_rejects_oversize(self, p, n):
        assert p * (p**n) ** 2 >= INT64_LIMIT
        with pytest.raises(ValueError, match="2\\^63"):
            ntt_prime(p, n)

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
    def test_convolution_matches_definition(self, p, n, rng):
        params = GroupParams(p, n)
        a = rng.random((3, params.size)) < 0.5
        b = rng.random((3, params.size)) < 0.3
        got = convolve_indicators(a, b, params)
        t = np.arange(params.size)
        for row in range(3):
            want = [
                int(np.count_nonzero(a[row] & b[row][sub_indices(ti, t, params)]))
                for ti in t
            ]
            assert got[row].tolist() == want
