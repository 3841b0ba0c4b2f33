import math
import re
import tracemalloc

import numpy as np
import pytest

from ap3 import fourier, gfspace
from ap3.cli import main
from ap3.fourier import (
    dft_forward,
    large_spectrum,
    pair_counts,
    spectrum_export_lines,
)
from ap3.gfspace import DensityFunction, GroupParams, PointSet, combine, save_density, scale_map
from ap3 import subspace as sub

from conftest import brute_lambda3, lambda3, naive_dft, random_density, spectral_lambda3


class TestForward:
    def test_constant(self):
        params = GroupParams(3, 2)
        c = dft_forward(DensityFunction.constant(params, 1.0))
        assert c.dtype == np.complex128 and not c.flags.writeable
        assert c[0] == pytest.approx(9.0)
        assert np.abs(c[1:]).max() < 1e-12

    def test_delta(self):
        params = GroupParams(3, 2)
        vals = np.zeros(9)
        vals[0] = 1.0
        c = dft_forward(DensityFunction(params, vals))
        assert np.abs(c - 1.0).max() < 1e-12

    def test_against_naive(self, rng):
        params = GroupParams(5, 2)
        f = random_density(params, rng)
        assert np.abs(dft_forward(f) - naive_dft(f)).max() < 1e-9

    def test_against_naive_p3_n3(self, rng):
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        assert np.abs(dft_forward(f) - naive_dft(f)).max() < 1e-9

    def test_dc_coefficient(self, rng):
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        c0 = dft_forward(f)[0]
        assert abs(c0 - f.values.sum()) < 1e-9 * params.size
        assert abs(c0.imag) < 1e-12

    def test_conjugate_symmetry(self, rng):
        params = GroupParams(5, 2)
        c = dft_forward(random_density(params, rng))
        assert np.abs(c[scale_map(5, 2, 4)] - np.conj(c)).max() < 1e-10


class TestInverse:
    def test_roundtrip(self, rng):
        f = random_density(GroupParams(3, 3), rng)
        back = fourier.inverse(np.array(dft_forward(f)), 3, 3)[0]
        assert np.abs(back - f.values).max() < 1e-10

    def test_dc_only(self):
        c = np.zeros(9, dtype=complex)
        c[0] = 9.0
        assert np.allclose(fourier.inverse(c, 3, 2)[0], 1.0)


class TestTransformContract:
    """`forward` and `inverse` on (batch, p^k) rows: each inverts the
    other, a complex128 argument is transformed in place, and any other
    argument is copied and left as it was."""

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 4), (5, 3), (7, 2), (101, 1)])
    def test_inverse_of_forward(self, p, k, rng):
        x = rng.random((3, p**k))
        back = fourier.inverse(fourier.forward(x, p, k), p, k)
        assert back.shape == x.shape
        assert np.abs(back - x).max() < 1e-12

    @pytest.mark.parametrize("transform", [fourier.forward, fourier.inverse])
    def test_complex_argument_transformed_in_place(self, transform, rng):
        x = rng.random((2, 27)).astype(np.complex128)
        assert np.shares_memory(transform(x, 3, 3), x)

    @pytest.mark.parametrize("transform", [fourier.forward, fourier.inverse])
    def test_float_argument_left_unchanged(self, transform, rng):
        x = rng.random((2, 27))
        before = x.copy()
        out = transform(x, 3, 3)
        assert np.array_equal(x, before) and not np.shares_memory(out, x)


class TestParseval:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (5, 3), (7, 2)])
    def test_parseval(self, p, n, rng):
        params = GroupParams(p, n)
        f = random_density(params, rng)
        lhs = float(np.sum(np.abs(dft_forward(f)) ** 2)) / params.size
        rhs = float(np.sum(f.values**2))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLambda3Spectral:
    """The paper's spectral identity, a test oracle, and the one count on
    float rows, against known values and the direct double loop."""

    def test_constant_one(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        assert spectral_lambda3(f) == pytest.approx(1.0)
        assert lambda3(f) == pytest.approx(1.0)

    def test_single_point(self):
        params = GroupParams(3, 2)
        vals = np.zeros(9)
        vals[0] = 1.0
        f = DensityFunction(params, vals)
        assert spectral_lambda3(f) == pytest.approx(1 / 81)
        assert lambda3(f) == pytest.approx(1 / 81)

    def test_two_point_set(self):
        # {0, 1} in F_3: only d=0 progressions survive -> 2/9
        params = GroupParams(3, 1)
        f = PointSet(params, (0, 1)).density()
        assert spectral_lambda3(f) == pytest.approx(2 / 9, abs=1e-12)
        assert lambda3(f) == pytest.approx(2 / 9, abs=1e-12)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_matches_direct(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(5):
            f = random_density(params, rng)
            assert abs(spectral_lambda3(f) - brute_lambda3(f)) < 1e-9
            assert abs(lambda3(f) - brute_lambda3(f)) < 1e-9


def spectrum_of(f, delta):
    return large_spectrum(dft_forward(f), delta, f.params)


class TestLargeSpectrum:
    def test_constant(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        assert spectrum_of(f, 0.5).members == (0,)

    def test_subspace_indicator(self):
        # indicator of span{(0,1)} in F_3^2: fhat is |W| on the annihilator
        params = GroupParams(3, 2)
        w = sub.span(params, [[0, 1]])
        f = PointSet(params, tuple(int(i) for i in w.elements())).density()
        a = spectrum_of(f, 0.2)
        annihilator = set(int(i) for i in sub.orthogonal_complement(w).elements())
        assert set(a.members) == annihilator
        assert len(a) == 3

    def test_above_max_is_empty(self, rng):
        f = random_density(GroupParams(3, 2), rng)
        assert spectrum_of(f, 1.01).members == ()

    def test_parseval_violation_raises(self, rng):
        # No f in [0,1] breaks Parseval, so inflate its coefficients instead.
        f = random_density(GroupParams(3, 2), rng)
        with pytest.raises(ValueError, match="Parseval"):
            large_spectrum(dft_forward(f) * 100.0, 0.5, f.params)

    def test_parseval_bound(self, rng):
        params = GroupParams(3, 3)
        for delta in [0.05, 0.1, 0.3]:
            for _ in range(5):
                f = random_density(params, rng)
                assert len(spectrum_of(f, delta)) <= delta**-2

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.25])
    def test_rejects_a_delta_outside_0_inf(self, delta):
        f = DensityFunction.constant(GroupParams(3, 3), 0.5)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            spectrum_of(f, delta)


class TestLargeSpectrumBlocks:
    """The block-at-a-time comparison against the whole-array rule."""

    DELTA = 0.01

    @staticmethod
    def coefficients(params, cutoff, rng):
        # About 2% of the magnitudes lie above the cutoff; a few entries sit
        # exactly at it (not in A: the rule is strict) or one ulp above it.
        c = cutoff * 0.35 * (rng.normal(size=params.size) + 1j * rng.normal(size=params.size))
        at = rng.choice(params.size, 40, replace=False)
        c[at[:10]] = cutoff
        c[at[10:20]] = -1j * cutoff
        c[at[20:30]] = np.nextafter(cutoff, np.inf)
        c[at[30:]] = -np.nextafter(cutoff, np.inf) * 1j
        return c

    @pytest.mark.parametrize("p, n", [(3, 10), (5, 6), (100003, 1)])
    @pytest.mark.parametrize("block", [7, gfspace.BLOCK])
    def test_matches_the_whole_array_rule(self, p, n, block, monkeypatch, rng):
        params = GroupParams(p, n)
        c = self.coefficients(params, self.DELTA * p**n, rng)
        want = np.flatnonzero(np.abs(c) > self.DELTA * p**n).tolist()
        assert params.size % block and 100 < len(want) < self.DELTA**-2
        monkeypatch.setattr(gfspace, "BLOCK", block)
        assert list(large_spectrum(c, self.DELTA, params).members) == want

    @pytest.mark.parametrize("p, n", [(3, 10), (100003, 1)])
    def test_parseval_refusal_counts_every_block(self, p, n, monkeypatch, rng):
        params = GroupParams(p, n)
        delta = 0.1  # delta^-2 = 100
        c = self.coefficients(params, self.DELTA * p**n, rng) * (delta / self.DELTA)
        want = np.count_nonzero(np.abs(c) > delta * p**n)
        assert want > 5 * delta**-2
        monkeypatch.setattr(gfspace, "BLOCK", 7)
        with pytest.raises(ValueError, match=re.escape(f"|A| = {want} exceeds delta^-2 = 100:")):
            large_spectrum(c, delta, params)

    def test_traces_a_block_not_the_array(self, rng):
        # A whole-array |fhat| at 3^10 is 0.47 MB; a block of magnitudes,
        # its mask and its hits stay far below 4 * BLOCK * 16 bytes.
        params = GroupParams(3, 10)
        c = rng.normal(size=params.size) + 1j * rng.normal(size=params.size)
        c[[0, 5, params.size - 1]] = params.size
        tracemalloc.start()
        try:
            a = large_spectrum(c, 0.5, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.members == (0, 5, params.size - 1)
        assert peak < 4 * gfspace.BLOCK * 16, peak


class TestExport:
    def test_sorted_by_magnitude(self, rng):
        params = GroupParams(3, 2)
        f = random_density(params, rng)
        coeffs = dft_forward(f)
        lines = spectrum_export_lines(coeffs, large_spectrum(coeffs, 0.01, params))
        mags = []
        for line in lines:
            idx, re, im = line.split()
            mags.append(abs(complex(float(re), float(im))))
        assert mags == sorted(mags, reverse=True)

    def test_pairs_stable_under_last_bit_noise(self, rng):
        # A conjugate pair's magnitudes differ only by rounding, so a
        # one-ulp move of either member must not reorder the lines; moving
        # the higher-index member must not change them at all.
        params = GroupParams(7, 3)
        coeffs = dft_forward(random_density(params, rng))
        a = large_spectrum(coeffs, 0.01, params)
        lines = spectrum_export_lines(coeffs, a)
        order = [line.split()[0] for line in lines]
        members = np.array(a.members)
        negs = combine(-1, members, 0, 0, params)
        pairs = [(b, c) for b, c in zip(members.tolist(), negs.tolist()) if b < c]
        assert len(pairs) > 100
        for low, high in pairs:
            for member in (low, high):
                for toward in (-np.inf, np.inf):
                    moved = coeffs.copy()
                    moved.real[member] = np.nextafter(moved.real[member], toward)
                    got = spectrum_export_lines(moved, a)
                    assert [line.split()[0] for line in got] == order, (member, toward)
                    if member == high:
                        assert got == lines


def lexsort_export_lines(coeffs, a):
    """The numpy formulation that the Python sort replaced: the oracle."""
    members = np.array(a.members, dtype=np.int64)
    lower = np.minimum(members, combine(-1, members, 0, 0, a.params))
    vals = coeffs[lower]
    vals = np.where(lower == members, vals, np.conj(vals))
    order = np.lexsort((members, -np.abs(vals)))
    return [
        f"{i} {v.real:.17g} {v.imag:.17g}"
        for i, v in zip(members[order].tolist(), vals[order].tolist())
    ]


class TestExportOracle:
    """spectrum_export_lines against the lexsort formulation, line for line."""

    def test_empty(self):
        params = GroupParams(3, 4)
        coeffs = np.arange(params.size, dtype=np.complex128)
        assert spectrum_export_lines(coeffs, PointSet(params, ())) == []
        assert lexsort_export_lines(coeffs, PointSet(params, ())) == []

    @pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
    def test_pairs_and_equal_magnitudes(self, p, n, rng):
        # Few distinct magnitudes, so ties span many pairs; real and signed
        # zero parts exercise the conjugate's -0.0.
        params = GroupParams(p, n)
        pool = np.array([1, -1, 1j, -1j, 0.6 + 0.8j, 0.8 - 0.6j, 0.5, -0.0, 0j, 2 - 0.0j])
        coeffs = pool[rng.integers(0, len(pool), params.size)]
        everything = PointSet(params, tuple(range(params.size)))
        half = PointSet.from_mask(params, rng.random(params.size) < 0.5)
        for a in (everything, half):
            assert spectrum_export_lines(coeffs, a) == lexsort_export_lines(coeffs, a)

    def test_thousands_of_members(self, rng):
        params = GroupParams(3, 9)
        coeffs = rng.normal(size=params.size) + 1j * rng.normal(size=params.size)
        coeffs[rng.integers(0, params.size, 500)] = 0.25 - 0.5j  # equal magnitudes
        a = PointSet.from_mask(params, rng.random(params.size) < 0.3)
        assert len(a) > 5000
        assert spectrum_export_lines(coeffs, a) == lexsort_export_lines(coeffs, a)

    def test_large_spectrum_of_a_density(self, rng):
        params = GroupParams(7, 3)
        coeffs = dft_forward(random_density(params, rng))
        a = large_spectrum(coeffs, 0.005, params)
        assert len(a) > 100
        assert spectrum_export_lines(coeffs, a) == lexsort_export_lines(coeffs, a)


class TestExactTransform:
    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
    def test_convolution_matches_definition(self, p, n, rng):
        # R(v) = #{(y, z) in S^2: a y + b z = v}, counted pair by pair; and
        # for density rows sum x(y) x(z) over those pairs, by math.fsum.
        params = GroupParams(p, n)
        x = rng.random((3, params.size)) < 0.5
        forms = ((1, 1), (2, -1), (1, p - 1))
        got = pair_counts(x, params, forms)
        assert got.dtype == np.int64 and got.shape == (len(forms) * 3, params.size)
        assert np.array_equal(pair_counts(x, params), got[:3])
        for i, (a, b) in enumerate(forms):
            for row in range(3):
                members = np.flatnonzero(x[row])
                sums = combine(a, members[:, None], b, members[None, :], params)
                want = np.bincount(sums.ravel(), minlength=params.size)
                assert got[i * 3 + row].tolist() == want.tolist()
        d = rng.random((3, params.size))
        got = pair_counts(d, params, forms)
        assert got.dtype == np.float64 and got.shape == (len(forms) * 3, params.size)
        assert np.array_equal(pair_counts(d, params), got[:3])
        y = np.arange(params.size)
        for i, (a, b) in enumerate(forms):
            sums = combine(a, y[:, None], b, y[None, :], params).ravel()
            for row in range(3):
                terms = (d[row][:, None] * d[row][None, :]).ravel()
                want = [math.fsum(terms[sums == v]) for v in range(params.size)]
                assert np.abs(got[i * 3 + row] - want).max() <= 1e-14 * max(want)

    @staticmethod
    def perturb(monkeypatch):
        # A forward transform whose every axis pass is off by 0.01 in every
        # output.
        ifftn = fourier.ifftn

        def offset(a, axes=None, norm=None, out=None):
            for axis in range(a.ndim) if axes is None else axes:
                a = ifftn(a, axes=(axis,), norm=norm, out=out)
                a += 0.01
            return a

        monkeypatch.setattr(fourier, "ifftn", offset)

    def test_residue_check_raises(self, monkeypatch, rng):
        params = GroupParams(3, 4)
        x = rng.random((2, params.size)) < 0.5
        self.perturb(monkeypatch)
        with pytest.raises(RuntimeError, match="from an integer"):
            pair_counts(x, params)

    def test_count_job_exits_on_a_failed_residue_check(self, monkeypatch, rng, tmp_path, capsys):
        params = GroupParams(3, 4)
        path = str(tmp_path / "set.apf")
        save_density(PointSet.from_mask(params, rng.random(params.size) < 0.5).density(), path)
        self.perturb(monkeypatch)
        assert main(["count", "--input", path, "--output-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ap3: error: exact count failed")


class TestAxisPassKernel:
    """The forward transform at sizes of tens of thousands of points,
    against an oracle that does not use it."""

    @pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (7, 5)])
    def test_forward_matches_numpy_fft(self, p, n, rng):
        params = GroupParams(p, n)
        f = random_density(params, rng)
        # The explicit character matrix M[a, m] = omega^(a m), applied along
        # each digit axis in turn; a.m treats every digit alike, so the axis
        # order of the grid does not matter.
        k = np.arange(p)
        matrix = np.exp(2j * np.pi * (np.outer(k, k) % p) / p)
        grid = f.values.reshape((p,) * n)
        for axis in range(n):
            grid = np.moveaxis(np.tensordot(matrix, grid, axes=(1, axis)), 0, axis)
        assert np.abs(dft_forward(f) - grid.reshape(-1)).max() < 1e-12 * params.size
