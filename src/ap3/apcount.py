"""Progression counting: exact integer counts of sets by one transform
kernel, float counts of densities by the spectral identity, restricted
counts, nontrivial counts, the complementation identity, and the
subgroup-averaging lower-bound estimator.

A triple is (m, m+d, m+2d); it is trivial when d = 0.  Raw counts T3
include trivial triples, the primed count T3' excludes them.  Since
m + (m+2d) = 2(m+d), T3(S) = sum_v 1_S(v) (1_S * 1_S)(2v), and the
self-convolution is computed exactly by the mod-q transform in
`fourier.convolve_indicators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, add_indices, scale_indices, scale_map
from . import fourier
from . import subspace as sub


def count_raw_masks(masks: np.ndarray, params: GroupParams) -> np.ndarray:
    """Exact T3 of each row of a (batch, p^n) boolean array, as int64."""
    x = np.asarray(masks, dtype=bool).reshape(-1, params.size)
    conv = fourier.convolve_indicators(x, x, params)
    return (x * conv[:, scale_map(params.p, params.n, 2)]).sum(axis=1)


def count_raw(s: PointSet) -> int:
    """Exact integer T3(1|S,S,S), trivial triples included."""
    return int(count_raw_masks(s.mask(), s.params)[0])


def t3_raw(f: DensityFunction) -> int | float:
    """Unnormalized sum over (m, d) of f(m) f(m+d) f(m+2d): the exact
    integer for an indicator, the spectral float otherwise."""
    if f.is_indicator:
        return int(count_raw_masks(f.values > 0.0, f.params)[0])
    return fourier.lambda3_spectral(f) * float(f.params.size) ** 2


def lambda3_exact(s: PointSet) -> Fraction:
    return Fraction(count_raw(s), s.params.size**2)


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
    y2 = scale_indices(y, 2, params)
    x = (
        np.array(add_indices(y2[:, None], scale_indices(z, params.p - 1, params)[None, :], params))
    )
    keep = u.mask()[x]
    vals = f.values
    terms = vals[x] * vals[y][:, None] * vals[z][None, :] * keep
    return math.fsum(terms.ravel())


def t3_restricted_count(u: PointSet, v: PointSet, w: PointSet) -> int:
    """Exact integer T3(1|U,V,W)."""
    params = u.params
    if not u.members or not v.members or not w.members:
        return 0
    y = np.array(v.members, dtype=np.int64)
    z = np.array(w.members, dtype=np.int64)
    y2 = scale_indices(y, 2, params)
    x = np.array(add_indices(y2[:, None], scale_indices(z, params.p - 1, params)[None, :], params))
    return int(np.count_nonzero(u.mask()[x]))


def t3_nontrivial(s: PointSet) -> int:
    """Count of (m, d) with d != 0 and m, m+d, m+2d all in S."""
    return count_raw(s) - len(s)


def complement_lambda3(h1: DensityFunction) -> tuple[float, float, float]:
    """(Lambda3(h1), Lambda3(1-h1), beta): the sum equals 1 - 3b + 3b^2."""
    beta = h1.expectation()
    h2 = DensityFunction(h1.params, 1.0 - h1.values)
    return fourier.lambda3_spectral(h1), fourier.lambda3_spectral(h2), beta


def complement_lambda3_exact(s: PointSet) -> tuple[Fraction, Fraction, Fraction]:
    """Exact-rational complementation data for an indicator set."""
    beta = s.fraction()
    return lambda3_exact(s), lambda3_exact(s.complement()), beta


@dataclass(frozen=True)
class VarnavidesReport:
    """Result of subgroup-averaged lower-bounding of the nontrivial count."""

    m_dim: int
    sampled_subgroups: int
    dense_coset_fraction: float
    certified_lower_bound: float
    certified_lower_bound_exact: Fraction
    alpha: float
    exhaustive: bool

    def to_dict(self) -> dict:
        return {
            "m_dim": self.m_dim,
            "sampled_subgroups": self.sampled_subgroups,
            "dense_coset_fraction": self.dense_coset_fraction,
            "certified_lower_bound": self.certified_lower_bound,
            "certified_lower_bound_exact": str(self.certified_lower_bound_exact),
            "alpha": self.alpha,
            "exhaustive": self.exhaustive,
        }


def _coset_stats(s_mask: np.ndarray, a: "sub.Subspace", s_size: int) -> tuple[int, int, int]:
    """(sum of per-coset nontrivial counts, dense cosets, cosets) for one subgroup."""
    params = a.params
    dec = sub.coset_decomposition(a)
    a_elems = a.elements()
    a_size = len(a_elems)
    nonzero_d = [int(d) for d in a_elems if d != 0]
    coset_sum = 0
    dense = 0
    for rep in dec.transversal:
        members = np.array(add_indices(rep, a_elems, params))
        inter = members[s_mask[members]]
        # density threshold |X| >= alpha |A| / 2 with alpha = |S| / p^n
        if 2 * len(inter) * params.size >= s_size * a_size:
            dense += 1
        if len(inter) >= 3 and nonzero_d:
            in_x = np.zeros(params.size, dtype=bool)
            in_x[inter] = True
            for d in nonzero_d:
                md = add_indices(inter, d, params)
                m2d = add_indices(md, d, params)
                coset_sum += int(np.count_nonzero(in_x[md] & in_x[m2d]))
    return coset_sum, dense, len(dec.transversal)


def varnavides_estimate(
    s: PointSet,
    m_dim: int,
    samples: int = 0,
    seed: int | None = None,
    exhaustive: bool = False,
) -> VarnavidesReport:
    """Lower-bound T3'(S) by averaging exhaustive per-coset counts over
    subgroups of dimension m_dim.

    With exhaustive=True every subgroup is visited once and the bound
    p^(n-m) * (average coset sum) <= T3'(S) is exact; otherwise subgroups
    are sampled uniformly (via uniform ordered independent generator
    tuples, resampled on dependence) and the bound is empirical.
    """
    params = s.params
    if not 1 <= m_dim <= params.n:
        raise ValueError(f"m_dim={m_dim} out of range [1, {params.n}]")
    if not exhaustive and samples < 1:
        raise ValueError("samples must be >= 1 unless exhaustive")
    s_mask = s.mask()

    if exhaustive:
        subgroups = list(sub.all_subspaces(params, m_dim))
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        subgroups = []
        for _ in range(samples):
            while True:
                gens = [int(g) for g in rng.integers(0, params.size, size=m_dim)]
                cand = sub.span(params, gens)
                if cand.dim == m_dim:
                    subgroups.append(cand)
                    break

    total = 0
    dense = 0
    cosets = 0
    for a in subgroups:
        cs, dn, nc = _coset_stats(s_mask, a, len(s))
        total += cs
        dense += dn
        cosets += nc
    bound = Fraction(total, len(subgroups)) * params.p ** (params.n - m_dim)
    return VarnavidesReport(
        m_dim=m_dim,
        sampled_subgroups=len(subgroups),
        dense_coset_fraction=dense / cosets if cosets else 0.0,
        certified_lower_bound=float(bound),
        certified_lower_bound_exact=bound,
        alpha=len(s) / params.size,
        exhaustive=exhaustive,
    )
