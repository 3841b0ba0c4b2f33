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

from ap3 import apcount, fourier, improve, rounding, search
from ap3 import subspace as sub
from ap3.gfspace import DensityFunction, GroupParams, PointSet, add_indices, scale_indices

from conftest import chunked_t3

GRIDS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def fresh_rng(salt: int = 0):
    return np.random.Generator(np.random.PCG64(987654321 + salt))


def test_criterion_01_spectral_vs_direct():
    # The float kernel against two independent counts: the chunked direct
    # sum on densities and the exact F_q count on indicators.
    start = time.monotonic()
    rng = fresh_rng(1)
    worst = 0.0
    for p, n in GRIDS:
        params = GroupParams(p, n)
        norm = params.size**2
        for _ in range(100):
            f = DensityFunction(params, rng.random(params.size))
            worst = max(worst, abs(fourier.lambda3_spectral(f) - chunked_t3(f.values, p, n) / norm))
            s = PointSet.from_mask(params, rng.random(params.size) < 0.5)
            worst = max(
                worst, abs(fourier.lambda3_spectral(s.density()) - apcount.count_raw(s) / norm)
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
            fhat = fourier.dft_forward(f).coeffs
            lhs = float(np.sum(np.abs(fhat) ** 2)) / params.size
            rhs = float(np.sum(f.values**2))
            ok &= abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            gens = [list(rng.integers(0, p, size=n)) for _ in range(rng.integers(0, n + 1))]
            w = sub.span(params, gens)
            fw = sub.average_over_cosets(f, w)
            fwhat = fourier.dft_forward(fw).coeffs
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
        l1, l2, beta = apcount.complement_lambda3(h1)
        ok &= abs(l1 + l2 - (1 - 3 * beta + 3 * beta**2)) < 1e-9
    for _ in range(100):
        n = int(rng.integers(1, 4))
        params = GroupParams(3, n)
        s = PointSet.from_mask(params, rng.random(params.size) < rng.random())
        e1, e2, eb = apcount.complement_lambda3_exact(s)
        ok &= e1 + e2 == 1 - 3 * eb + 3 * eb**2
    verdict(3, "complementation identity, 100 float + 100 exact-rational", ok)


def test_criterion_04_subspace_closed_forms():
    start = time.monotonic()
    params = GroupParams(3, 3)
    ok = True
    for dim in range(4):
        for w in sub.all_subspaces(params, dim):
            w_elems = [int(i) for i in w.elements()]
            w_size = len(w_elems)
            for ell in range(1, dim + 1):
                s_sp = sub.canonical_codim_subspace(w, ell)
                s_members = set(int(i) for i in s_sp.elements())
                s_set = PointSet(params, tuple(sorted(s_members)))
                t_set = PointSet(
                    params, tuple(i for i in w_elems if i not in s_members)
                )
                beta = Fraction(len(t_set), w_size)
                ok &= apcount.t3_restricted_count(s_set, s_set, s_set) == (
                    (1 - beta) ** 2 * w_size**2
                )
                ok &= apcount.t3_restricted_count(t_set, t_set, t_set) == (
                    (2 * beta**2 - beta) * w_size**2
                )
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
    assert sub.intersect(w_self, sub.orthogonal_complement(w_self)).dim > 0
    cases.append((p52, w_self))

    ok = True
    for params, w in cases:
        h = PointSet.from_mask(params, rng.random(params.size) < 0.5)
        total_direct = apcount.count_raw(h)
        dec = sub.coset_decomposition(w)
        h_members = set(h.members)
        coset_parts = {
            rep: PointSet(
                params,
                tuple(
                    sorted(
                        int(i) for i in dec.coset_members(rep) if int(i) in h_members
                    )
                ),
            )
            for rep in dec.transversal
        }
        total = 0
        for u1 in dec.transversal:
            for u2 in dec.transversal:
                two_u2 = int(add_indices(u2, u2, params))
                u3 = int(
                    add_indices(
                        two_u2, int(scale_indices(u1, params.p - 1, params)), params
                    )
                )
                u3 = dec.rep_of(u3)
                total += apcount.t3_restricted_count(
                    coset_parts[u1], coset_parts[u2], coset_parts[u3]
                )
        ok &= total == total_direct
    verdict(5, "coset-decomposition count, 50 cases incl. self-orthogonal W", ok)


def test_criterion_06_pipeline_worked_example():
    start = time.monotonic()
    f = DensityFunction.constant(GroupParams(3, 2), 0.5)
    g, report = improve.construct_g(f, improve.ImprovePipelineConfig(epsilon=1.0))
    elapsed = time.monotonic() - start
    ok = (
        abs(report.beta - 8 / 9) < 1e-12
        and g.values[0] == 0.0
        and np.allclose(g.values[1:], 9 / 16, atol=1e-12)
        and abs(g.expectation() - 0.5) < 1e-12
        and abs(report.lambda3_g - 63 / 512) < 1e-12
        and report.lambda3_g < report.lambda3_f
        and report.all_cases_pass()
        and elapsed < 1.0
    )
    verdict(6, f"worked example beta=8/9, lambda3(g)=63/512, {elapsed:.2f}s", ok)


def _delta_keeping_codim(f: DensityFunction, ell: int) -> float:
    """Smallest delta whose large spectrum spans codim >= ell (binary climb
    over the sorted normalized magnitudes)."""
    mags = np.abs(fourier.dft_forward(f).coeffs) / f.params.size
    for cut in sorted(set(mags)):
        delta = float(cut)
        a = fourier.large_spectrum(f, delta)
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
            g, report = improve.construct_g(
                f, improve.ImprovePipelineConfig(epsilon=eps, delta_override=delta)
            )
            ok &= abs(g.expectation() - f.expectation()) < 1e-12
            ok &= report.lambda3_fW <= report.lambda3_f + report.delta_used + 1e-9
            ok &= report.all_cases_pass()
            if report.hypothesis_holds:
                ok &= 2 * len(report.V_prime) > eps * report.transversal_size
    verdict(7, "pipeline invariants, 50 f x eps in {1/4,1/2,1}", ok)


def test_criterion_08_rounding_statistics():
    params = GroupParams(3, 3)
    j = DensityFunction.constant(params, 0.5)
    lam_j = fourier.lambda3_spectral(j)
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
            ok &= apcount.t3_nontrivial(ex.best_set) == 0
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
    for _ in range(100):
        s = PointSet.from_mask(params, rng.random(9) < rng.random())
        rep = apcount.varnavides_estimate(s, 1, exhaustive=True)
        ok &= rep.certified_lower_bound_exact <= apcount.t3_nontrivial(s)
    full = apcount.varnavides_estimate(
        PointSet(params, tuple(range(9))), 1, exhaustive=True
    )
    ok &= full.dense_coset_fraction == 1.0
    verdict(10, "exhaustive subgroup-average bound <= T3' for 100 sets", ok)


def test_criterion_11_selfcheck_gate(monkeypatch):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ap3.cli", "selfcheck"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - start
    clean_ok = proc.returncode == 0 and elapsed < 10.0

    # a single sign flip in the transform (conjugation) must be caught
    from ap3 import cli, fourier as fr

    orig = fr.dft_forward

    def conjugated(f):
        spec = orig(f)
        return fr.Spectrum(spec.params, np.conj(spec.coeffs))

    monkeypatch.setattr(fr, "dft_forward", conjugated)
    monkeypatch.setattr(cli.fourier, "dft_forward", conjugated)
    mutated = cli.selfcheck_checks()
    mutation_caught = not all(c["passed"] for c in mutated)
    verdict(
        11,
        f"selfcheck exit 0 in {elapsed:.1f}s; sign mutation detected",
        clean_ok and mutation_caught,
    )
