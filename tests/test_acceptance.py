"""End-to-end acceptance gates: each test enforces one shipping criterion
at its stated tolerance and prints a one-line verdict.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ap3 import fourier, improve, rounding, search
from ap3 import subspace as sub
from ap3.gfspace import DensityFunction, GroupParams, PointSet, combine
from ap3.selfcheck import t3_restricted

from conftest import (
    all_subspaces,
    canonical_codim_subspace,
    chunked_t3,
    lambda3,
    row_of,
    spectral_lambda3,
    subprocess_env,
)

GRIDS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def fresh_rng(salt: int = 0):
    return np.random.Generator(np.random.PCG64(987654321 + salt))


def test_criterion_01_spectral_vs_direct():
    # The float count and the spectral identity against two independent
    # counts: the chunked direct sum on densities and the exact count on
    # indicators.
    start = time.monotonic()
    rng = fresh_rng(1)
    worst = 0.0
    for p, n in GRIDS:
        params = GroupParams(p, n)
        norm = params.size**2
        for _ in range(100):
            f = DensityFunction(params, rng.random(params.size))
            direct = chunked_t3(f.values, p, n) / norm
            worst = max(worst, abs(lambda3(f) - direct), abs(spectral_lambda3(f) - direct))
            s = PointSet.from_mask(params, rng.random(params.size) < 0.5)
            exact = fourier.count_raw(s) / norm
            worst = max(
                worst,
                abs(lambda3(s.density()) - exact),
                abs(spectral_lambda3(s.density()) - exact),
            )
    elapsed = time.monotonic() - start
    verdict(
        1,
        f"spectral vs direct and exact, 100 f x {len(GRIDS)} grids, worst={worst:.2e}, {elapsed:.1f}s",
        worst < 1e-9 and elapsed < 30.0,
    )


def test_criterion_02_parseval_and_averaging_support():
    rng = fresh_rng(2)
    ok = True
    for p, n in GRIDS:
        params = GroupParams(p, n)
        for _ in range(20):
            f = DensityFunction(params, rng.random(params.size))
            fhat = fourier.dft_forward(f)
            lhs = float(np.sum(np.abs(fhat) ** 2)) / params.size
            rhs = float(np.sum(f.values**2))
            ok &= abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            gens = [list(rng.integers(0, p, size=n)) for _ in range(rng.integers(0, n + 1))]
            w = sub.span(params, gens)
            fw = sub.average_over_cosets(f, w)
            fwhat = fourier.dft_forward(fw)
            wperp = set(int(i) for i in sub.orthogonal_complement(w).elements())
            for a in range(params.size):
                target = fhat[a] if a in wperp else 0.0
                ok &= abs(fwhat[a] - target) < 1e-9
    verdict(2, "Parseval and averaged-spectrum support, 20 pairs per grid", ok)


def test_criterion_03_complementation():
    rng = fresh_rng(3)
    ok = True
    for _ in range(100):
        p, n = GRIDS[rng.integers(0, len(GRIDS))]
        params = GroupParams(p, n)
        h1 = DensityFunction(params, rng.random(params.size))
        h2 = DensityFunction(params, 1.0 - h1.values)
        l1, l2 = lambda3(h1), lambda3(h2)
        beta = h1.expectation()
        ok &= abs(l1 + l2 - (1 - 3 * beta + 3 * beta**2)) < 1e-9
    for _ in range(100):
        n = int(rng.integers(1, 4))
        params = GroupParams(3, n)
        s = PointSet.from_mask(params, rng.random(params.size) < rng.random())
        e1 = Fraction(fourier.count_raw(s), params.size**2)
        e2 = Fraction(fourier.count_raw(s.complement()), params.size**2)
        eb = Fraction(len(s), params.size)
        ok &= e1 + e2 == 1 - 3 * eb + 3 * eb**2
    verdict(3, "complementation identity, 100 float + 100 exact-rational", ok)


def test_criterion_04_subspace_closed_forms():
    start = time.monotonic()
    params = GroupParams(3, 3)
    ok = True
    for dim in range(4):
        for w in all_subspaces(params, dim):
            w_mask = np.zeros(params.size, dtype=bool)
            w_mask[w.elements()] = True
            w_size = int(w_mask.sum())
            for ell in range(1, dim + 1):
                s_mask = np.zeros(params.size, dtype=bool)
                s_mask[canonical_codim_subspace(w, ell).elements()] = True
                t_mask = w_mask & ~s_mask
                beta = Fraction(int(t_mask.sum()), w_size)
                ok &= fourier.triple_counts(s_mask, params)[0] == (1 - beta) ** 2 * w_size**2
                ok &= fourier.triple_counts(t_mask, params)[0] == (2 * beta**2 - beta) * w_size**2
    elapsed = time.monotonic() - start
    verdict(
        4,
        f"closed forms over every subspace of F_3^3, {elapsed:.1f}s",
        ok and elapsed < 10.0,
    )


def test_criterion_05_coset_decomposition_sum():
    rng = fresh_rng(5)
    cases = []
    for _ in range(49):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 4)) if p == 3 else int(rng.integers(1, 3))
        params = GroupParams(p, n)
        gens = [list(rng.integers(0, p, size=n)) for _ in range(rng.integers(0, n + 1))]
        cases.append((params, sub.span(params, gens)))
    # self-orthogonal case: W from span{(1,2)} in F_5^2, where V = W-perp
    # meets W nontrivially and a naive rep choice from V would fail
    p52 = GroupParams(5, 2)
    w_self = sub.orthogonal_complement(sub.span(p52, [[1, 2]]))
    assert len(np.intersect1d(w_self.elements(), sub.orthogonal_complement(w_self).elements())) > 1
    cases.append((p52, w_self))

    ok = True
    for params, w in cases:
        h_mask = rng.random(params.size) < 0.5
        total_direct = fourier.count_raw(PointSet.from_mask(params, h_mask))
        rows = sub.coset_decomposition(w)
        pos = row_of(rows)
        # parts[i] is h restricted to coset i.
        parts = [PointSet(params, tuple(row[h_mask[row]].tolist())) for row in rows]
        # Every coset triple (u1, u2, 2u2 - u1), counted on the all-ones
        # density, whose restricted sums of 0/1 terms are exact.
        ones = DensityFunction.constant(params, 1.0)
        u1, u2 = rows[:, 0, None], rows[None, :, 0]
        u3 = combine(-1, u1, 2, u2, params)
        first, middle = np.indices(u3.shape)
        triples = zip(first.ravel(), middle.ravel(), pos[u3].ravel())
        total = sum(t3_restricted(ones, *(parts[i] for i in t)) for t in triples)
        ok &= total == total_direct
    verdict(5, "coset-decomposition count, 50 cases incl. self-orthogonal W", ok)


def test_criterion_06_pipeline_worked_example():
    start = time.monotonic()
    f = DensityFunction.constant(GroupParams(3, 2), 0.5)
    g, report = improve.construct_g(f, 1.0)
    elapsed = time.monotonic() - start
    ok = (
        abs(report.beta - 8 / 9) < 1e-12
        and g.values[0] == 0.0
        and np.allclose(g.values[1:], 9 / 16, atol=1e-12)
        and abs(g.expectation() - 0.5) < 1e-12
        and abs(report.lambda3_g - 63 / 512) < 1e-12
        and report.lambda3_g < report.lambda3_f
        and report.per_case_checks.all_passed
        and elapsed < 1.0
    )
    verdict(6, f"worked example beta=8/9, lambda3(g)=63/512, {elapsed:.2f}s", ok)


def _delta_keeping_codim(f: DensityFunction, ell: int) -> float:
    """Smallest delta whose large spectrum spans codim >= ell (binary climb
    over the sorted normalized magnitudes)."""
    coeffs = fourier.dft_forward(f)
    mags = np.abs(coeffs) / f.params.size
    for cut in sorted(set(mags)):
        delta = float(cut)
        a = fourier.large_spectrum(coeffs, delta, f.params)
        v = sub.span(f.params, list(a.members))
        if v.dim <= f.params.n - ell:
            return delta + 1e-15
    return float(mags.max()) + 1e-9


def test_criterion_07_pipeline_general_properties():
    rng = fresh_rng(7)
    params = GroupParams(3, 3)
    ok = True
    for _ in range(50):
        f = DensityFunction(params, rng.random(params.size))
        for eps in (0.25, 0.5, 1.0):
            ell = improve.choose_ell(eps, 3)
            delta = _delta_keeping_codim(f, ell)
            g, report = improve.construct_g(f, eps, delta)
            ok &= abs(g.expectation() - f.expectation()) < 1e-12
            ok &= report.lambda3_fW <= report.lambda3_f + report.delta_used + 1e-9
            ok &= bool(report.per_case_checks.all_passed)
            if report.hypothesis_holds:
                ok &= 2 * len(report.V_prime) > eps * report.transversal_size
    verdict(7, "pipeline invariants, 50 f x eps in {1/4,1/2,1}", ok)


def test_criterion_08_rounding_statistics():
    params = GroupParams(3, 3)
    j = DensityFunction.constant(params, 0.5)
    lam_j = lambda3(j)
    mean_ok = True
    replay_ok = True
    within = 0
    seeds = range(200)
    for seed in seeds:
        j2, rep = rounding.round_to_indicator(j, seed)
        j2b, repb = rounding.round_to_indicator(j, seed)
        replay_ok &= bool(np.array_equal(j2.values, j2b.values)) and rep == repb
        mean_ok &= rep.mean_after >= 0.5
        if abs(rep.lambda3_after - lam_j) <= 10 / 3:
            within += 1
    frac = within / len(seeds)
    verdict(
        8,
        f"rounding: mean floor always, drift ok for {frac:.0%}, bit-identical replay",
        mean_ok and replay_ok and frac >= 0.95,
    )


def test_criterion_09_search_oracle_equivalence():
    start = time.monotonic()
    params = GroupParams(3, 2)
    ok = True
    for k in range(1, 10):
        alpha = k / 9
        ex = search.exhaustive_min(params, alpha)
        lo = search.local_min(params, alpha, restarts=50, iters=100, seed=2024)
        ok &= lo.count == ex.count
        if k == 4:
            ok &= ex.count == 4 and ex.lambda3 == Fraction(4, 81)
            ok &= len(ex.best_set) == 4
            ok &= fourier.count_raw(ex.best_set) == len(ex.best_set)  # T3' = 0
    elapsed = time.monotonic() - start
    verdict(
        9,
        f"exhaustive vs local over alpha=k/9, cap witness at 4/9, {elapsed:.1f}s",
        ok and elapsed < 60.0,
    )


def test_criterion_10_varnavides_bound():
    rng = fresh_rng(10)
    params = GroupParams(3, 2)
    ok = True
    for seed in range(100):
        s = PointSet.from_mask(params, rng.random(9) < rng.random())
        t3 = fourier.count_raw(s) - len(s)
        rep = sub.varnavides_estimate(s, 1, exhaustive=True)
        ok &= rep.certified_lower_bound_exact <= t3
        rep = sub.varnavides_estimate(s, 1, samples=1, seed=seed)
        ok &= rep.certified_lower_bound_exact <= t3
    full = sub.varnavides_estimate(
        PointSet(params, tuple(range(9))), 1, exhaustive=True
    )
    ok &= full.dense_coset_fraction == 1.0
    verdict(10, "exhaustive and one-sample subgroup-average bounds <= T3' for 100 sets", ok)


def test_criterion_11_selfcheck_gate(monkeypatch):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ap3.cli", "selfcheck"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - start
    clean_ok = proc.returncode == 0 and elapsed < 10.0

    # a single sign flip in the transform (conjugation) must be caught
    from ap3 import fourier as fr, selfcheck

    orig = fr.dft_forward

    def conjugated(f):
        return np.conj(orig(f))

    monkeypatch.setattr(fr, "dft_forward", conjugated)
    monkeypatch.setattr(selfcheck.fourier, "dft_forward", conjugated)
    mutated = selfcheck.selfcheck_checks()
    mutation_caught = not all(c["passed"] for c in mutated)
    verdict(
        11,
        f"selfcheck exit 0 in {elapsed:.1f}s; sign mutation detected",
        clean_ok and mutation_caught,
    )
