"""Selfcheck: the built-in identity suite on small instances, run by
`ap3 selfcheck`, and `t3_restricted`, the pair-enumeration oracle that the
suite and the tests check counts against.  No other ap3 module imports
this one."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from . import fourier, improve
from . import subspace as sub
from .gfspace import DensityFunction, GroupParams, PointSet, combine, scale_map


def t3_restricted(f: DensityFunction, u: PointSet, v: PointSet, w: PointSet) -> float:
    """T3(f|U,V,W) = sum over m in U, m+d in V, m+2d in W of the product.

    Computed over the free pair (y, z) = (m+d, m+2d) with m = 2y - z.
    """
    params = f.params
    if u.params != params or v.params != params or w.params != params:
        raise ValueError("mismatched group parameters")
    if not u.members or not v.members or not w.members:
        return 0.0
    y = np.array(v.members, dtype=np.int64)
    z = np.array(w.members, dtype=np.int64)
    x = combine(2, y[:, None], -1, z[None, :], params)
    keep = u.mask()[x]
    vals = f.values
    terms = vals[x] * vals[y][:, None] * vals[z][None, :] * keep
    return math.fsum(terms.ravel())


def _random_density(params: GroupParams, rng: random.Random) -> DensityFunction:
    return DensityFunction(params, np.array([rng.random() for _ in range(params.size)]))


def selfcheck_checks() -> list[dict]:
    """Run every check; each entry holds its name, verdict and detail."""
    checks = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    rng = random.Random(20240901)

    # Phase convention: the transform of the delta at index 1 in F_3 must
    # carry omega^(+a), which a conjugation bug flips.
    p3 = GroupParams(3, 1)
    delta1 = DensityFunction(p3, np.array([0.0, 1.0, 0.0]))
    coeff = fourier.dft_forward(delta1)[1]
    expected = np.exp(2j * np.pi / 3)
    record("transform_phase", abs(coeff - expected) < 1e-12, f"fhat(1)={coeff:.6f}")

    for p, n in [(3, 2), (5, 2), (3, 3)]:
        params = GroupParams(p, n)
        f = _random_density(params, rng)
        coeffs = fourier.dft_forward(f)
        # The complex difference, so that an imaginary residue fails too.
        back = fourier.inverse(np.array(coeffs), p, n)[0]
        record(f"roundtrip_p{p}_n{n}", float(np.abs(back - f.values).max()) < 1e-10)
        lhs = float(np.sum(np.abs(coeffs) ** 2)) / params.size
        rhs = float(np.sum(f.values**2))
        record(f"parseval_p{p}_n{n}", abs(lhs - rhs) <= 1e-9 * max(1.0, rhs))
        # The paper's spectral identity
        # p^(-3n) sum_a fhat(a)^2 fhat(-2a) = Lambda3(f) against the pair
        # enumeration `t3_restricted`, the one independent oracle, on a
        # density; and the one count on an indicator's float values against
        # its exact count of the mask.
        full = PointSet(params, tuple(range(params.size)))
        direct = t3_restricted(f, full, full, full) / params.size**2
        spectral = np.sum(coeffs**2 * coeffs[scale_map(p, n, p - 2)]) / params.size**3
        diff = abs(spectral - direct)
        record(f"lambda3_identity_p{p}_n{n}", diff < 1e-9, f"diff={diff:.3g}")
        s = PointSet.from_mask(params, _random_density(params, rng).values < 0.5)
        approx = fourier.triple_counts(s.density().values, params)[0]
        diff = abs(approx - fourier.count_raw(s)) / params.size**2
        record(f"lambda3_exact_p{p}_n{n}", diff < 1e-9, f"diff={diff:.3g}")

    # Complementation: Lambda3(h) + Lambda3(1 - h) = 1 - 3b + 3b^2, b = E(h).
    params = GroupParams(3, 2)
    h1 = _random_density(params, rng)
    h2 = DensityFunction(params, 1.0 - h1.values)
    beta = h1.expectation()
    l1, l2 = fourier.triple_counts(np.stack([h1.values, h2.values]), params) / params.size**2
    record(
        "complementation_float",
        abs(l1 + l2 - (1 - 3 * beta + 3 * beta**2)) < 1e-9,
    )
    s = PointSet(params, (0, 1, 3, 4))
    size = params.size
    e1 = Fraction(fourier.count_raw(s), size**2)
    e2 = Fraction(fourier.count_raw(s.complement()), size**2)
    eb = Fraction(len(s), size)
    record("complementation_exact", e1 + e2 == 1 - 3 * eb + 3 * eb**2)

    # Subspace closed forms at p in {3, 5}, with S built as the improve
    # pipeline builds it, on W = F_p^n, whose one coset row is 0..p^n - 1.
    for p, n in [(3, 3), (5, 2)]:
        params = GroupParams(p, n)
        ones = DensityFunction.constant(params, 1.0)
        w_set = PointSet(params, tuple(range(params.size)))
        ok = True
        for ell in range(1, n + 1):
            s_mask = improve.s_columns(params.size, p, ell)
            t_set = PointSet.from_mask(params, ~s_mask)
            s_size = int(s_mask.sum())
            ok &= fourier.triple_counts(s_mask, params)[0] == s_size**2
            # The improve audit's count for j rows on T and the rest on W, in
            # every placement: |W|^2, |T||W|, |T|^2 and (2*beta^2 - beta) |W|^2
            # with beta = |T|/|W|.  On the all-ones density the restricted
            # count sums 0/1 terms, which is exact.
            counts = improve.case_counts(params.size, params.size - s_size)
            for rows in itertools.product((w_set, t_set), repeat=3):
                j = sum(r is t_set for r in rows)
                ok &= t3_restricted(ones, *rows) == counts[j]
        record(f"closed_forms_p{p}_n{n}", ok)

    # Coset-averaging spectrum support.
    params = GroupParams(3, 2)
    f = _random_density(params, rng)
    w = sub.span(params, [[0, 1]])
    fw = sub.average_over_cosets(f, w)
    fhat = fourier.dft_forward(f)
    fwhat = fourier.dft_forward(fw)
    wperp = set(int(i) for i in sub.orthogonal_complement(w).elements())
    ok = all(
        abs(fwhat[a] - (fhat[a] if a in wperp else 0.0)) < 1e-9
        for a in range(params.size)
    )
    record("coset_average_support", ok)

    # Worked pipeline example: constant 1/2 on F_3^2.
    params = GroupParams(3, 2)
    f = DensityFunction.constant(params, 0.5)
    g, report = improve.construct_g(f, 1.0)
    ok = (
        abs(report.beta - 8 / 9) < 1e-12
        and abs(g.values[0]) < 1e-12
        and np.allclose(g.values[1:], 9 / 16, atol=1e-12)
        and abs(g.expectation() - 0.5) < 1e-12
        and abs(report.lambda3_g - 63 / 512) < 1e-12
        and report.per_case_checks.all_passed
    )
    record("pipeline_worked_example", ok)

    return checks
