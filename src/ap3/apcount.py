"""Progression counting: one exact integer count of sets by the transform
kernel, float counts of densities by the spectral identity, the float
restricted count by pair enumeration, and the subgroup-averaging
lower-bound estimator.

A triple is (m, m+d, m+2d); it is trivial when d = 0.  Raw counts T3
include trivial triples, the primed count T3' = T3 - |S| excludes them.
Since m + (m+2d) = 2(m+d), a set's count is
T3(S) = sum_y 1_S(y) (1_S * 1_S)(2y), and the self-convolution is the
rounded square of one complex transform, `fourier.pair_counts`.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, combine, scale_map, seeded_rng
from . import fourier


def t3_masks(x: np.ndarray, params: GroupParams) -> np.ndarray:
    """Exact T3(S) = sum_y x(y) (x * x)(2y) for each row of the (batch, p^n)
    boolean masks x, as int64: one forward and one inverse transform per
    row.

    It counts the (m, d) with m, m+d and m+2d in S, trivial triples
    included.
    """
    p, n = params.p, params.n
    x = np.asarray(x, dtype=bool).reshape(-1, params.size)
    conv = fourier.pair_counts(x, params)
    # sum_y x(y) conv(2y) = sum_w x(w/2) conv(w), summed in place
    conv[~x[:, scale_map(p, n, (p + 1) // 2)]] = 0
    return conv.sum(axis=1)


def count_raw(s: PointSet) -> int:
    """Exact integer T3(1|S,S,S), trivial triples included."""
    return int(t3_masks(s.mask(), s.params)[0])


def t3_raw(f: DensityFunction) -> int | float:
    """Unnormalized sum over (m, d) of f(m) f(m+d) f(m+2d): the exact
    integer for an indicator, the spectral float otherwise."""
    if f.is_indicator:
        return int(t3_masks(f.values > 0.0, f.params)[0])
    return fourier.lambda3_spectral(f) * float(f.params.size) ** 2


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


def _coset_stats(
    s_mask: np.ndarray, rows: np.ndarray, coset_params: GroupParams, s_size: int
) -> tuple[int, int, int]:
    """(sum of per-coset nontrivial counts, dense cosets, cosets) for the
    (..., |A|) coset rows of subgroups A, with coset_params = F_p^(dim A).

    Each coset row is an affine copy of F_p^m, and affine maps preserve
    3-APs, so one batched count on F_p^m covers every coset.
    """
    in_s = s_mask[rows].reshape(-1, rows.shape[-1])
    sizes = in_s.sum(axis=1)
    raw = t3_masks(in_s, coset_params)
    # density threshold |X| >= alpha |A| / 2 with alpha = |S| / p^n
    dense = int(np.count_nonzero(2 * sizes * s_mask.size >= s_size * in_s.shape[1]))
    return int(raw.sum() - sizes.sum()), dense, len(in_s)


def varnavides_estimate(
    s: PointSet,
    m_dim: int,
    samples: int = 0,
    seed: int | None = None,
    exhaustive: bool = False,
) -> SimpleNamespace:
    """Lower-bound T3'(S) by averaging exhaustive per-coset counts over
    subgroups of dimension m_dim, as a `varnavides_report` of
    reports.schema.json.

    With exhaustive=True every subgroup is visited once and the bound
    p^(n-m) * (average coset sum) <= T3'(S) is exact; otherwise subgroups
    are sampled uniformly (via uniform ordered independent generator
    tuples, resampled on dependence) and the bound is empirical.
    """
    from fractions import Fraction

    from . import subspace as sub

    params = s.params
    if not 1 <= m_dim <= params.n:
        raise ValueError(f"m_dim={m_dim} out of range [1, {params.n}]")
    if not exhaustive and samples < 1:
        raise ValueError("samples must be >= 1 unless exhaustive")
    s_mask = s.mask()

    if exhaustive:
        blocks = sub.subspace_blocks(params, m_dim)
    else:
        rng = seeded_rng(seed)
        blocks = []
        for _ in range(samples):
            while True:
                gens = [rng.randrange(params.size) for _ in range(m_dim)]
                cand = sub.span(params, gens)
                if cand.dim == m_dim:
                    blocks.append((cand.pivots, cand.basis[None]))
                    break

    coset_params = GroupParams(params.p, m_dim)
    subgroups = 0
    total = 0
    dense = 0
    cosets = 0
    for pivots, bases in blocks:
        rows = sub.coset_rows(bases, pivots, params)
        cs, dn, nc = _coset_stats(s_mask, rows, coset_params, len(s))
        subgroups += len(bases)
        total += cs
        dense += dn
        cosets += nc
    bound = Fraction(total, subgroups) * params.p ** (params.n - m_dim)
    return SimpleNamespace(
        m_dim=m_dim,
        sampled_subgroups=subgroups,
        dense_coset_fraction=dense / cosets if cosets else 0.0,
        certified_lower_bound=float(bound),
        certified_lower_bound_exact=bound,
        alpha=len(s) / params.size,
        exhaustive=exhaustive,
    )
