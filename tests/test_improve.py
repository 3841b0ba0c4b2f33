import io
import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from ap3.gfspace import DensityFunction, GroupParams, PointSet, combine
from ap3.improve import (
    CaseTable,
    build_W,
    choose_ell,
    construct_g,
    delta_from_epsilon,
    s_columns,
    select_v_prime,
)
from ap3 import fourier, subspace as sub
from ap3.selfcheck import t3_restricted
from ap3.cli import _write_json

from conftest import (
    canonical_codim_subspace,
    case_columns,
    digit_table,
    planted_density,
    random_density,
)

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "ap3", "schemas", "reports.schema.json"
)
with open(SCHEMA_PATH) as fh:
    REPORT_SCHEMA = json.load(fh)


def audit_inputs(f, g, report):
    """(Q, reps, f_W's row values, g's row values on T, V' mask, |W|, |T|)
    as construct_g passes them to CaseTable, rebuilt from the report."""
    rows = sub.coset_decomposition(report.W)
    in_vp = np.isin(rows[:, 0], report.V_prime)
    s_cols = np.isin(rows[0], canonical_codim_subspace(report.W, report.ell).elements())
    quotient = GroupParams(f.params.p, max(1, f.params.n - report.W.dim))
    a = g.values[rows[:, np.flatnonzero(~s_cols)[0]]]
    w_size, t_size = rows.shape[1], int(np.count_nonzero(~s_cols))
    return quotient, rows[:, 0], sub.coset_means(f, rows), a, in_vp, w_size, t_size


def coset_sets(params, rows):
    """Each coset row of the layout as a PointSet, keyed by its
    representative."""
    return {int(row[0]): PointSet(params, tuple(row.tolist())) for row in rows}


def planted_set(p, n, k, seed):
    """A set drawn point by point with planted_density(p, n, k, seed) as
    its probabilities, from a seeded stream."""
    f = planted_density(p, n, k, seed)
    draws = np.random.default_rng(seed + 1).random(f.params.size)
    return PointSet.from_mask(f.params, draws < f.values)


# The improve inputs whose layout, quotient counts and cases are checked.
LAYOUT_INPUTS = pytest.mark.parametrize(
    "make, eps, delta",
    [
        (lambda: planted_density(3, 8, 5, 0), 1.0, 0.004),
        (lambda: planted_density(5, 5, 3, 0), 1.0, 0.004),
        (lambda: planted_density(7, 4, 2, 0), 1.0, 0.004),
        (lambda: planted_set(3, 8, 2, 0).density(), 0.3, 0.03),
        (lambda: DensityFunction.constant(GroupParams(3, 2), 0.5), 1.0, None),
    ],
    ids=["planted-3-8", "planted-5-5", "planted-7-4", "set-3-8", "constant-on-W-everything"],
)

class TestConfig:
    F = DensityFunction.constant(GroupParams(3, 2), 0.5)

    def test_rejects_epsilon(self):
        for eps in [0.0, -0.5, 1.5]:
            for delta in [None, 0.1]:
                with pytest.raises(ValueError, match="epsilon must be in"):
                    construct_g(self.F, eps, delta)

    def test_rejects_bad_overrides(self):
        # A NaN delta once passed and gave A = {}, so W = F_p^n.
        for delta in [0.0, -1.0, math.nan, math.inf]:
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                construct_g(self.F, 0.5, delta=delta)


class TestDelta:
    def test_value_eps1_p3(self):
        # eps=1, p=3 (c_p = 1): (1 / (2^13 * 9)) * 3^-16
        expected = 3.0**-16 / (2**13 * 9)
        assert delta_from_epsilon(1.0, 3) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_epsilon(self):
        deltas = [delta_from_epsilon(e, 3) for e in (0.25, 0.5, 1.0)]
        assert deltas == sorted(deltas)

    def test_underflow_raises_at_the_source(self):
        # exp(-16 log(3) / eps) leaves the float range for eps <= 0.024.
        for eps in (0.024, 0.02, 1e-3):
            with pytest.raises(ValueError, match=f"epsilon = {eps}, p = 3: pass --delta"):
                delta_from_epsilon(eps, 3)
        with pytest.raises(ValueError, match="pass --delta"):
            construct_g(TestConfig.F, 0.02)

    def test_subnormal_default_is_kept(self):
        delta = delta_from_epsilon(0.025, 3)
        assert 0.0 < delta < sys.float_info.min

    def test_rejects_bad_args(self):
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="epsilon must be in"):
                delta_from_epsilon(eps, 3)


class TestChooseEll:
    @pytest.mark.parametrize(
        "eps,p,expected",
        [
            (1.0, 3, 2),
            (0.5, 3, 2),
            (1.0, 5, 1),
            (0.5, 5, 2),
            (0.05, 3, 4),
            # Just above 4/9 and 4/7: eps * p^ell in floats rounds up to
            # 4.0 one ell too early.
            (0.4444444444444444, 3, 3),
            (0.5714285714285714, 7, 2),
        ],
    )
    def test_values(self, eps, p, expected):
        ell = choose_ell(eps, p)
        assert ell == expected
        assert 4 / Fraction(eps) <= p**ell < 4 * p / Fraction(eps)

    @pytest.mark.parametrize("eps", [3e-308, 1e-310, 5e-324])
    @pytest.mark.parametrize("p", [3, 7, 101])
    def test_past_the_float_range(self, eps, p):
        # eps * p^ell no longer fits a float; ell is still exact.
        ell = choose_ell(eps, p)
        assert 4 / Fraction(eps) <= p**ell < 4 * p / Fraction(eps)


class TestBuildW:
    def test_constant_gives_full_W(self):
        f = DensityFunction.constant(GroupParams(3, 2), 0.5)
        a, v, w = build_W(fourier.dft_forward(f), 0.1, f.params)
        assert a.members == (0,)
        assert v.dim == 0
        assert w.dim == 2

    def test_tiny_delta_random(self, rng):
        f = random_density(GroupParams(3, 2), rng)
        a, v, w = build_W(fourier.dft_forward(f), 1e-15, f.params)
        assert v.dim == 2 and w.dim == 0

    @pytest.mark.parametrize("delta", [1e-200, 5e-324])
    def test_parseval_bound_past_the_float_range(self, rng, delta):
        # Below 1e-154 delta^-2 overflows a float; no |A| can exceed it.
        f = random_density(GroupParams(3, 2), rng)
        a, v, w = build_W(fourier.dft_forward(f), delta, f.params)
        assert len(a) == 9 and v.dim == 2 and w.dim == 0


class TestSelectVPrime:
    def test_endpoints_inclusive(self):
        mask = select_v_prime(np.array([0.25, 0.75, 0.1]), 1.0)
        assert mask.tolist() == [True, True, False]


class TestSColumns:
    @pytest.mark.parametrize("p, n", [(3, 3), (5, 2), (3, 4)])
    def test_is_the_canonical_codim_subspace(self, p, n, rng):
        # The rule construct_g and selfcheck build S by, against the
        # subspace it stands for: W without its first ell echelon rows.
        params = GroupParams(p, n)
        for _ in range(6):
            w = sub.span(params, rng.integers(0, p, size=(n - 1, n)).tolist())
            rows = sub.coset_decomposition(w)
            for ell in range(w.dim + 1):
                oracle = np.isin(rows[0], canonical_codim_subspace(w, ell).elements())
                assert np.array_equal(s_columns(rows.shape[1], p, ell), oracle)


class TestConstructG:
    def test_worked_example(self):
        # constant 1/2 on F_3^2 at eps=1: W is everything, the canonical
        # codim-2 subgroup is {0}, beta = 8/9, g = 9/16 off a single zero
        f = DensityFunction.constant(GroupParams(3, 2), 0.5)
        g, report = construct_g(f, 1.0)
        assert report.ell == 2
        assert report.beta == pytest.approx(8 / 9)
        assert g.values[0] == 0.0
        assert np.allclose(g.values[1:], 9 / 16)
        assert abs(g.expectation() - 0.5) < 1e-12
        assert abs(report.lambda3_g - 63 / 512) < 1e-12
        assert report.per_case_checks.all_passed
        assert report.aggregate_ok

    def test_mean_preserved_and_cases(self, rng):
        params = GroupParams(3, 3)
        for _ in range(5):
            f = random_density(params, rng)
            # pick delta so span(A) has codim >= ell: keep only the DC term
            from ap3.fourier import dft_forward

            mags = np.abs(dft_forward(f)) / params.size
            delta = float(np.sort(mags)[-2]) + 1e-9
            g, report = construct_g(f, 1.0, delta)
            assert abs(g.expectation() - f.expectation()) < 1e-12
            assert report.per_case_checks.all_passed
            assert report.aggregate_ok
            assert g.values.min() >= 0.0 and g.values.max() <= 1.0

    def test_transforms_f_once(self, monkeypatch):
        # `build_W` reads the large spectrum from f's one forward transform,
        # and the count of f squares that transform in place; the other
        # transforms are of rows on the quotient, smaller than p^n.
        sizes = []
        ifftn = fourier.ifftn

        def counting(arr, *args, **kwargs):
            sizes.append(arr.size)
            return ifftn(arr, *args, **kwargs)

        monkeypatch.setattr(fourier, "ifftn", counting)
        f = planted_density(3, 6, 2, 0)
        g, report = construct_g(f, 1.0, 0.004)
        assert report.W.dim == 4
        assert sizes.count(f.params.size) == 1 and max(sizes) == f.params.size
        t3_f = float(fourier.triple_counts(f.values, f.params)[0])
        assert report.lambda3_f == t3_f / f.params.size**2

    def test_ell_too_deep_raises(self, rng):
        f = random_density(GroupParams(3, 2), rng)
        with pytest.raises(ValueError, match="raise delta"):
            construct_g(f, 1.0, 1e-15)

    @pytest.mark.parametrize("p, n, eps, ell", [(3, 1, 1.0, 2), (5, 1, 0.5, 2), (3, 2, 0.25, 3)])
    def test_ell_above_n_raises_before_any_transform(self, monkeypatch, p, n, eps, ell):
        # No W in F_p^n has dimension ell > n, whatever the spectrum: even a
        # constant, whose spectrum is {0}, is refused before it is transformed.
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed")

        monkeypatch.setattr(fourier, "ifftn", no_transform)
        f = DensityFunction.constant(GroupParams(p, n), 0.5)
        with pytest.raises(ValueError, match=f"n = {n} < ell = {ell}"):
            construct_g(f, eps)

    def test_v_cap_w_dim_is_the_overlap(self, rng):
        # f = 1/2 + (0.4/k) sum_i cos(2 pi a_i.x / p) has large spectrum
        # {0, +-a_i}, so V = span(a_i) and W = V^perp.
        cases = [
            (GroupParams(5, 2), [[1, 2]]),  # self-orthogonal: V = W
            (GroupParams(5, 3), [[1, 2, 0], [0, 0, 1]]),  # V cap W = span{(1,2,0)}
        ]
        for p, n in [(3, 4), (5, 3), (5, 4), (7, 3)]:
            ell = choose_ell(1.0, p)
            for k in range(1, n - ell + 1):
                for _ in range(3):
                    cases.append((GroupParams(p, n), rng.integers(0, p, size=(k, n)).tolist()))
        dims = []
        for params, gens in cases:
            p = params.p
            phase = 2 * np.pi * (digit_table(p, params.n) @ np.array(gens).T % p) / p
            f = DensityFunction(params, 0.5 + 0.4 / len(gens) * np.cos(phase).sum(axis=1))
            _, report = construct_g(f, 1.0, 0.01)
            assert report.V == sub.span(params, gens)
            both = np.intersect1d(report.V.elements(), report.W.elements())
            assert len(both) == p**report.V_cap_W_dim
            dims.append(report.V_cap_W_dim)
        assert dims[:2] == [1, 1]

    def test_g_untouched_off_v_prime(self):
        # a near-one constant has no cosets in [eps/4, 1-eps/4], so g = f_W
        params = GroupParams(3, 2)
        f = DensityFunction.constant(params, 0.95)
        g, report = construct_g(f, 1.0)
        assert report.V_prime == ()
        fw = sub.average_over_cosets(f, report.W)
        assert np.array_equal(g.values, fw.values)
        assert report.lambda3_g == pytest.approx(report.lambda3_fW)

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2)])
    def test_closed_form_is_restricted_count(self, p, n, rng):
        # f_W and g laid out as construct_g lays them out, on random W, S
        # and V' with random row constants, some of them 0: every case is
        # the fsum of the products t3_restricted enumerates, and the inside
        # cases are the progressions of V'.
        params = GroupParams(p, n)
        for _ in range(8):
            w = sub.span(params, [list(rng.integers(0, p, size=n)) for _ in range(n - 1)])
            if w.dim == 0:
                continue
            rows = sub.coset_decomposition(w)
            ell = int(rng.integers(1, w.dim + 1))
            s_cols = np.isin(rows[0], canonical_codim_subspace(w, ell).elements())
            c = rng.uniform(0.05, 1.0, size=len(rows)) * (rng.random(len(rows)) < 0.8)
            in_vp = rng.random(len(rows)) < 0.6
            a = np.array(c)
            a[in_vp] = rng.uniform(0.05, 1.0, size=int(in_vp.sum()))
            fw_vals = np.empty(params.size)
            fw_vals[rows] = c[:, None]
            g_vals = np.array(fw_vals)
            g_vals[rows[in_vp]] = np.where(s_cols, 0.0, a[in_vp, None])
            fw, g = DensityFunction(params, fw_vals), DensityFunction(params, g_vals)
            quotient = GroupParams(p, n - w.dim)
            t_size = int(np.count_nonzero(~s_cols))
            table = CaseTable(quotient, rows[:, 0], c, a, in_vp, rows.shape[1], t_size, 1.0)
            cases = case_columns(table)
            cosets = coset_sets(params, rows)
            for reps, base, lhs in zip(cases.reps.tolist(), cases.base.tolist(), cases.lhs.tolist()):
                u1, u2, u3 = (cosets[r] for r in reps)
                assert base == t3_restricted(fw, u1, u2, u3)
                assert lhs == t3_restricted(g, u1, u2, u3)
            v_prime = PointSet(params, tuple(rows[in_vp, 0].tolist()))
            inside = np.count_nonzero(cases.all_in_v_prime)
            assert inside == fourier.count_raw(v_prime)
            assert table.all_passed == cases.passed.all()

    @LAYOUT_INPUTS
    def test_layout_and_quotient_counts(self, make, eps, delta):
        # construct_g never builds f_W: rebuild it at full size and check
        # (a) the layout g is built from, (b) the quotient counts against
        # full-size counts of f_W and g, (c) E|f - f_W| exactly and (d)
        # aggregate_ok against those counts.
        f = make()
        g, report = construct_g(f, eps, delta)
        fw = sub.average_over_cosets(f, report.W)
        rows = sub.coset_decomposition(report.W)
        in_vp = np.isin(rows[:, 0], report.V_prime)
        s_cols = np.isin(rows[0], canonical_codim_subspace(report.W, report.ell).elements())
        built = np.array(fw.values)
        built[rows[in_vp]] = np.where(s_cols, 0.0, fw.values[rows[in_vp]] / report.beta)
        assert np.array_equal(g.values, DensityFunction(f.params, built).values)
        norm = float(f.params.size) ** 2
        raw_fw, raw_g = fourier.triple_counts(np.stack([fw.values, g.values]), f.params)
        assert report.lambda3_fW == pytest.approx(raw_fw / norm, rel=1e-14, abs=0)
        assert report.lambda3_g == pytest.approx(raw_g / norm, rel=1e-14, abs=0)
        # (d) the aggregate verdict is the paper's decrement, read at full size
        p, w_size = f.params.p, rows.shape[1]
        bound = (eps**5 / (1024 * p**2)) * w_size**2 * report.t3_v_prime_reps
        assert report.aggregate_ok == (raw_fw - raw_g >= bound)
        assert report.hypothesis_value == math.fsum(np.abs(f.values - fw.values)) / f.params.size
        assert report.per_case_checks.all_passed and report.aggregate_ok
        if report.W.dim == f.params.n:
            assert report.lambda3_g == pytest.approx(63 / 512, rel=1e-14, abs=0)

    @LAYOUT_INPUTS
    def test_case_floats_are_finite(self, make, eps, delta):
        # The listing writes each float with %r, which is json's text only
        # for finite values.
        _, report = construct_g(make(), eps, delta)
        for b in report.per_case_checks.blocks():
            assert all(np.isfinite(col).all() for col in (b.base, b.lhs, b.rhs))

    def test_too_deep_ell_fails_both_verdicts(self, monkeypatch):
        # With ell forced from 3 to 7, g's decrement |W|^2/(p^ell - 1)^2
        # T3_Q(c 1_V') is about 0.23 times the bound's, and each inside
        # case keeps 1 - 1/(3^7 - 1)^2 of its count, above the bound's
        # 1 - eps^2/16p^2.  A tolerance of 1e-6 |T3(f_W)| on the aggregate
        # exceeded the whole gap here and passed it.
        monkeypatch.setattr("ap3.improve.choose_ell", lambda eps, p: choose_ell(eps, p) + 4)
        g, report = construct_g(planted_density(3, 10, 2, 0), 0.25, 0.004)
        assert report.ell == 7 and report.W.dim == 8
        assert report.aggregate_lhs > report.aggregate_rhs
        assert not report.aggregate_ok
        assert not report.per_case_checks.all_passed

    @pytest.mark.parametrize("p,n,eps", [(3, 4, 1.0), (3, 4, 0.5), (5, 3, 1.0), (7, 3, 0.3)])
    def test_cases_equal_restricted_counts(self, p, n, eps, rng):
        # A density planted on the first coordinate plus noise: W is the
        # hyperplane x_0 = 0, and V' holds some of its cosets.
        from ap3.fourier import dft_forward

        params = GroupParams(p, n)
        h = rng.permutation(np.linspace(0.2, 0.8, p))
        noise = rng.uniform(-0.02, 0.02, size=params.size)
        f = DensityFunction(params, h[digit_table(p, n)[:, 0]] + noise)
        mags = np.sort(np.abs(dft_forward(f))) / params.size
        delta = float(mags[-p] + mags[-p - 1]) / 2
        g, report = construct_g(f, eps, delta)
        assert report.W.dim == n - 1
        cases = case_columns(report.per_case_checks)
        assert cases.all_in_v_prime.any()
        fw = sub.average_over_cosets(f, report.W)
        rows = sub.coset_decomposition(report.W)
        cosets = coset_sets(params, rows)
        assert len(cases.reps) == len(rows) ** 2
        for reps, base, lhs in zip(cases.reps.tolist(), cases.base.tolist(), cases.lhs.tolist()):
            u1, u2, u3 = (cosets[r] for r in reps)
            assert base == t3_restricted(fw, u1, u2, u3)
            assert lhs == t3_restricted(g, u1, u2, u3)


class TestAuditAtScale:
    DELTA = 0.004

    def test_planted_3_10_passes(self):
        # Off V', T3(g) and T3(f_W) agree only up to the rounding of c/beta:
        # several cases here differ by more than 1e-9 on sums of about 1.7e7,
        # which the tolerance scaled by the case sum accepts.
        g, report = construct_g(planted_density(3, 10, 2, 2), 1.0, self.DELTA)
        assert report.W.dim == 8
        cases = case_columns(report.per_case_checks)
        outside = ~cases.all_in_v_prime
        assert np.any(np.abs(cases.lhs - cases.base)[outside] > 1e-9)
        assert report.per_case_checks.all_passed and cases.passed.all()

    def test_construct_g_holds_no_full_size_f_w(self):
        # Only f is counted at full size, before g and the coset layout
        # exist; f_W and g are counted on the quotient F_3^2.  Traced peaks
        # 1.9 MB, or 3.3 MB on the first call, which also builds the cached
        # scale map of F_3^10, against 8.5 and 9.0 MB when f_W was laid out
        # at full size and f, f_W and g were counted as one batch.
        f = planted_density(3, 10, 2, 2)
        tracemalloc.start()
        try:
            construct_g(f, 1.0, self.DELTA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak

    @pytest.mark.parametrize(
        "p,n,k,eps",
        [
            (3, 4, 2, 1.0),
            (3, 6, 3, 1.0),
            (3, 6, 4, 1.0),
            (3, 6, 3, 0.25),
            (3, 7, 3, 1.0),
            (5, 4, 2, 1.0),
            (5, 5, 3, 0.5),
            (7, 3, 1, 0.3),
            (7, 4, 2, 0.3),
            (3, 8, 4, 1.0),
            (3, 9, 6, 1.0),
        ],
    )
    def test_inside_cases_are_v_prime_progressions(self, p, n, k, eps):
        # The count of cases inside V' is the exact triple count of V'.
        f = planted_density(p, n, k, 0)
        g, report = construct_g(f, eps, self.DELTA)
        assert report.W.dim == n - k
        v_prime = PointSet(f.params, report.V_prime)
        assert report.t3_v_prime_reps == fourier.count_raw(v_prime) > 0
        assert report.per_case_checks.all_passed

    def test_raised_value_off_v_prime_fails(self):
        f = planted_density(3, 6, 2, 0)
        g, report = construct_g(f, 1.0, self.DELTA)
        assert report.per_case_checks.all_passed
        quotient, t, c, a, in_vp, w_size, t_size = audit_inputs(f, g, report)
        i = int(np.flatnonzero(~in_vp)[0])
        raised = np.array(a)
        raised[i] *= 1.0 + 1e-6
        table = CaseTable(quotient, t, c, raised, in_vp, w_size, t_size, 1.0)
        assert not table.all_passed
        checks = case_columns(table)
        rep = t[i]
        touched = (checks.reps == rep).any(axis=1)
        assert touched.any() and not checks.passed[touched].any()
        assert checks.passed[~touched].all()

    def test_planted_3_8_cases_equal_restricted_counts(self, rng):
        # At a size where enumerating every case is too slow for the suite:
        # each V' case and a seeded sample of the others match t3_restricted.
        f = planted_density(3, 8, 2, 0)
        g, report = construct_g(f, 1.0, self.DELTA)
        assert report.W.dim == 6
        fw = sub.average_over_cosets(f, report.W)
        rows = sub.coset_decomposition(report.W)
        cosets = coset_sets(f.params, rows)
        cases = case_columns(report.per_case_checks)
        inside = np.flatnonzero(cases.all_in_v_prime)
        others = np.flatnonzero(~cases.all_in_v_prime)
        assert len(inside) and len(others)
        picks = rng.choice(len(others), size=min(8, len(others)), replace=False)
        for k in np.concatenate([inside, others[picks]]):
            u1, u2, u3 = (cosets[r] for r in cases.reps[k].tolist())
            assert cases.base[k] == t3_restricted(fw, u1, u2, u3)
            assert cases.lhs[k] == t3_restricted(g, u1, u2, u3)

    def test_table_memory_is_per_block(self):
        # 59049 cases: the audit and the report writer each hold one block
        # of whole u1 rows at a time.  Traced peaks were 0.16 and 0.20 MB
        # (the writer 0.31 MB while it deduped each block's values with
        # np.unique), against 4.2 and 8.0 MB when the table held every case
        # as arrays and the writer formatted whole columns.
        f = planted_density(3, 8, 5, 0)
        g, report = construct_g(f, 1.0, self.DELTA)
        inputs = audit_inputs(f, g, report)
        tracemalloc.start()
        try:
            table = CaseTable(*inputs, 1.0)
            audit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with open(os.devnull, "w") as fh:
                table.write_json(fh)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        inside = np.count_nonzero(case_columns(table).all_in_v_prime)
        assert table.all_passed and inside == report.t3_v_prime_reps
        assert max(audit_peak, write_peak) <= 2**20, (audit_peak, write_peak)

    def test_listing_write_sorts_nothing(self, monkeypatch):
        # Each case fills one text template, so writing the 3^8 cases calls
        # none of numpy's sorts, whose code pages cost an improve job about
        # 0.4 MB of peak RSS.
        _, report = construct_g(planted_density(3, 6, 4, 0), 1.0, self.DELTA)

        def refuse(*args, **kwargs):
            raise AssertionError("the listing write sorted")

        for name in ("unique", "sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, refuse)
        out = io.StringIO()
        report.per_case_checks.write_json(out)
        assert len(json.loads(out.getvalue())) == 3**8

    def test_case_table_order_and_report_types(self, tmp_path):
        # Row k is (u1, u2) = (t[k // |T|], t[k % |T|]) with u3 = 2 u2 - u1,
        # and the written report holds only plain JSON values.
        f = planted_density(3, 4, 2, 0)
        g, report = construct_g(f, 1.0, self.DELTA)
        t = sub.coset_decomposition(report.W)[:, 0].tolist()
        cases = case_columns(report.per_case_checks)
        assert len(cases.reps) == len(t) ** 2
        for k, (u1, u2, u3) in enumerate(cases.reps.tolist()):
            assert (u1, u2) == (t[k // len(t)], t[k % len(t)])
            assert u3 == combine(-1, u1, 2, u2, f.params)
        path = tmp_path / "improve_report.json"
        _write_json(report, str(path))
        with open(path) as fh:
            payload = json.load(fh)
        for case in payload["per_case_checks"]:
            assert all(type(r) is int for r in case["reps"])
            assert {k: type(v) for k, v in case.items() if k != "reps"} == {
                "all_in_v_prime": bool,
                "lhs": float,
                "rhs": float,
                "base": float,
                "passed": bool,
            }
        jsonschema.validate(payload, {**REPORT_SCHEMA, "$ref": "#/$defs/improve_report"})
