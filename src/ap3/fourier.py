"""Character transform over F_p^n, Parseval, large-spectrum extraction
and its export, and the convolutions `pair_counts` behind every triple
count.

Convention: fhat(a) = sum_m f(m) * omega^(a.m) with omega = exp(2*pi*i/p)
and a.m the standard dot product mod p.  The inverse carries the p^-n
factor and omega^(-a.m).  Tests pin this convention through the spectral
identity p^(-3n) sum_a fhat(a)^2 fhat(-2a) = Lambda3(f) and an explicit
phase check.

A triple is (m, m+d, m+2d); it is trivial when d = 0.  Raw counts T3
include trivial triples, the primed count T3' = T3 - |S| excludes them.
`triple_counts` is the one count of sets and densities alike.

Exact counts use the same complex transform: a convolution of two masks is
an integer, so its float value rounds to it whenever the float error is
below 1/2 (Percival, "Rapid multiplication modulo the sum and difference
of highly composite numbers", Math. Comp. 2003).  `pair_counts` states the
a priori bound, and checks at run time that every float lies within 1/4 of
its integer.

Every transform is numpy's FFT, in O(p^n log p^n) for any p (Bluestein's
algorithm, 1970, for a large prime length), run in place with `out=` on a
private complex128 copy of its input.  `ifftn` with norm="forward" is the
unscaled sum with omega^(+a.m), so it is the forward transform, and
`fftn` with norm="forward" the inverse.  An index's digits are the axes of
a (p,)*n grid, and a.m treats every digit alike, so the grid needs no
transpose.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fftn, ifftn

from .gfspace import DensityFunction, GroupParams, PointSet, combine, scale_map

IMAG_TOL = 1e-9
ROUNDTRIP_IMAG_TOL = 1e-10


def pair_counts(
    x: np.ndarray, params: GroupParams, forms: tuple[tuple[int, int], ...] = ((1, 1),)
) -> np.ndarray:
    """R(v) = sum of x(y) x(z) over the (y, z) with a y + b z = v, for each
    (a, b) in forms and each row of the (batch, p^n) array x, form by form:
    row i * batch + r is form i of row r.  The default form (1, 1) gives
    the self-convolution x * x.

    x's dtype decides the result.  Boolean masks give int64 rows of counts
    #{(y, z) in S^2: a y + b z = v}; float64 density rows give the float64
    convolutions, never rounded.

    R's transform is t(a k) t(b k), t the transform of x, so a row takes
    one forward transform and each output row one inverse.  The floats of
    a mask are then rounded to the nearest integer.

    Rounding is exact while every float error stays below 1/2.  Percival's
    bound for an FFT convolution is of the order u log2(p^n) ||x||_2^2
    (u = 2^-53), and ||x||_2^2 = |S| <= p^n: 1e-10 at 3^10, 5e-12 on
    Z_4001 and 2e-10 on Z_100003.  Measured, it is 0 at 3^10, 3^12 and
    3^13, at most 1.2e-12 at 5^6 and 7^5 on 30% masks, and on full sets
    6.8e-12 on Z_4001 and 2.6e-10 on Z_100003.  It nears 1/4 only far
    beyond the memory of any job.  As a run-time check, a float more than
    1/4 from its integer raises RuntimeError.
    """
    p, n = params.p, params.n
    grid, axes = (-1,) + (p,) * n, tuple(range(1, n + 1))
    t = x.reshape(grid).astype(np.complex128)
    t = ifftn(t, axes=axes, norm="forward", out=t).reshape(-1, params.size)
    if forms == ((1, 1),):
        t *= t  # in place: a count holds only t and its result full-size
    else:
        t = np.stack([t[:, scale_map(p, n, a)] * t[:, scale_map(p, n, b)] for a, b in forms])
    t = t.reshape(grid)
    conv = fftn(t, axes=axes, norm="forward", out=t).reshape(-1, params.size).real
    if x.dtype != bool:
        return conv
    counts = np.rint(conv, out=np.empty(conv.shape, dtype=np.int64), casting="unsafe")
    conv -= counts
    residue = max(conv.max(initial=0.0), -conv.min(initial=0.0))
    if residue > 0.25:
        raise RuntimeError(f"exact count failed: a convolution lies {residue:.3g} from an integer")
    return counts


def triple_counts(x: np.ndarray, params: GroupParams) -> np.ndarray:
    """T3 = sum over (m, d) of x(m) x(m+d) x(m+2d), trivial triples
    included, for each row of the (batch, p^n) array x.  Since
    m + (m+2d) = 2(m+d), it is sum_y x(y) (x * x)(2y): one forward and one
    inverse transform per row.

    As in `pair_counts`, x's dtype decides: boolean masks give exact int64
    counts, float64 density rows float64 sums, within a few ulp of the
    exact sum (at most 5 in Lambda3 on random densities at 3^2-3^4, 5^2 and
    7^2, as the spectral identity).
    """
    p, n = params.p, params.n
    x = x.reshape(-1, params.size)
    conv = pair_counts(x, params)
    # sum_y x(y) conv(2y) = sum_w x(w/2) conv(w)
    return (conv * x[:, scale_map(p, n, (p + 1) // 2)]).sum(axis=1)


def count_raw(s: PointSet) -> int:
    """Exact integer T3(1|S,S,S), trivial triples included."""
    return int(triple_counts(s.mask(), s.params)[0])


def dft_forward(f: DensityFunction) -> np.ndarray:
    """The coefficients fhat(a) in canonical order, as a read-only complex128
    array: one in-place FFT of a copy of f's values, O(p^n log p^n)."""
    arr = f.values.astype(np.complex128).reshape((f.params.p,) * f.params.n)
    coeffs = ifftn(arr, norm="forward", out=arr).reshape(-1)
    coeffs.setflags(write=False)
    return coeffs


def dft_inverse(c: np.ndarray, params: GroupParams) -> DensityFunction:
    """Inverse transform of the coefficients c; requires conjugate symmetry
    (a real preimage)."""
    p, n = params.p, params.n
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c[scale_map(p, n, p - 1)] - np.conj(c)).max() > IMAG_TOL * scale:
        raise ValueError("spectrum violates conjugate symmetry; no real preimage")
    arr = np.array(c, dtype=np.complex128).reshape((p,) * n)
    flat = fftn(arr, norm="forward", out=arr).reshape(-1)
    if np.abs(flat.imag).max() > ROUNDTRIP_IMAG_TOL * scale:
        raise ValueError("imaginary residue above tolerance in inverse transform")
    return DensityFunction(params, flat.real)


def large_spectrum(coeffs: np.ndarray, delta: float, params: GroupParams) -> PointSet:
    """All frequencies a with |fhat(a)| strictly above delta * p^n, for the
    coefficients of an f mapping into [0, 1]."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a = np.nonzero(np.abs(coeffs) > float(delta) * params.size)[0]
    # Parseval: at most delta^-2 survivors for f mapping into [0,1].  Below
    # delta = 1e-154, delta^-2 overflows a float, and no |A| <= p^n exceeds it.
    limit = delta**-2 if delta >= 1e-154 else np.inf
    if len(a) > limit + 1e-9:
        raise ValueError(f"|A| = {len(a)} exceeds delta^-2 = {limit:.6g}: Parseval violated")
    return PointSet(params, tuple(int(i) for i in a))


def spectrum_export_lines(coeffs: np.ndarray, a: PointSet) -> list[str]:
    """CLI export: 'index re im' for each frequency in a, by descending
    magnitude and then ascending index.

    Both members of a conjugate pair b, -b print the lower-index
    coefficient, conjugated for the other member (fhat(-b) = conj fhat(b)
    for a real f).  Their magnitudes are then bit-equal, so the index, not
    last-bit noise, orders the pair.  A holds at most delta^-2 frequencies
    (Parseval), so Python orders them: no step of a spectrum job runs
    numpy's sort, np.minimum, np.where or np.conj.
    """
    members = a.members
    negs = combine(-1, members, 0, 0, a.params).tolist()
    lower = [b if b < c else c for b, c in zip(members, negs)]
    vals = coeffs[lower]
    # The upper member of a pair prints the conjugate: its imaginary part negated.
    ims = [x if b == c else -x for b, c, x in zip(members, lower, vals.imag.tolist())]
    lines = list(map("%d %.17g %.17g".__mod__, zip(members, vals.real.tolist(), ims)))
    # The sort is stable, so equal magnitudes keep ascending index.
    mags = np.abs(vals).tolist()
    return [lines[i] for i in sorted(range(len(lines)), key=mags.__getitem__, reverse=True)]
