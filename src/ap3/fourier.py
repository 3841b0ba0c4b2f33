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

Exact counts, of pairs in S^2 (`pair_counts`) and of points per coset
(`subspace.coset_sizes`), are the floats of a transform rounded by the
one rule `exact_counts`, which states Percival's a priori bound and checks
at run time that every float lies within 1/4 of its integer.

Every transform, of F_p^n or of the p^k coset sizes of a subspace, is
`forward` or `inverse`: numpy's FFT, in O(p^k log p^k) for any p
(Bluestein's algorithm, 1970, for a large prime length), run in place
with `out=` on a private complex128 array.  `ifftn` with norm="forward"
is the unscaled sum with omega^(+a.m), so it is the forward transform,
and `fftn` with norm="forward" the inverse.  An index's digits are the
axes of a (p,)*k grid, and a.m treats every digit alike, so the grid
needs no transpose.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fftn, ifftn

from . import gfspace
from .gfspace import DensityFunction, GroupParams, PointSet, combine, scale_map

def forward(x: np.ndarray, p: int, k: int) -> np.ndarray:
    """The transforms over F_p^k of the rows of x, a (batch, p^k) array or
    one row, as a (batch, p^k) complex128 array: x itself, transformed in
    place, if it is a complex128 array, which its caller gives up, and
    otherwise a complex128 copy of x."""
    return _transform(ifftn, x, p, k)


def inverse(x: np.ndarray, p: int, k: int) -> np.ndarray:
    """The inverse transforms of the rows of x, as `forward` takes them."""
    return _transform(fftn, x, p, k)


def _transform(fft, x: np.ndarray, p: int, k: int) -> np.ndarray:
    grid = np.asarray(x, dtype=np.complex128).reshape((-1,) + (p,) * k)
    return fft(grid, axes=tuple(range(1, k + 1)), norm="forward", out=grid).reshape(-1, p**k)


def exact_counts(floats: np.ndarray) -> np.ndarray:
    """The int64 integers nearest the floats of a transform that are exact
    counts; `floats` is left holding each one's residue.

    Rounding is exact while every float error stays below 1/2.  Percival's
    bound ("Rapid multiplication modulo the sum and difference of highly
    composite numbers", Math. Comp. 2003) for an FFT convolution of a mask
    S on F_p^n is of the order u log2(p^n) |S| (u = 2^-53), and for S's
    coefficients u log2(p^n) sqrt(p^n |S|), whose errors a p^k inverse
    transform averages.  Both are at most u log2(p^n) p^n: 1e-10 at 3^10,
    5e-12 on Z_4001 and 2e-10 on Z_100003, nearing 1/4 only beyond
    p^n = 10^13, far beyond the memory of any job.  Measured on 30% masks,
    the convolutions' error is 0 at 3^10, 3^12 and 3^13 and at most
    1.2e-12 at 5^6 and 7^5 (6.8e-12 on Z_4001 and 2.6e-10 on Z_100003 on
    full sets), and the coset sizes' 0 at 3^10 and 3^12 and at most
    2.3e-13 at 5^6 and 7^5.  As a run-time check, a float more than 1/4
    from its integer raises RuntimeError.
    """
    counts = np.rint(floats, out=np.empty(floats.shape, dtype=np.int64), casting="unsafe")
    floats -= counts
    residue = max(floats.max(initial=0.0), -floats.min(initial=0.0))
    if residue > 0.25:
        raise RuntimeError(f"exact count failed: a value lies {residue:.3g} from an integer")
    return counts


def pair_counts(
    x: np.ndarray, params: GroupParams, forms: tuple[tuple[int, int], ...] = ((1, 1),)
) -> np.ndarray:
    """R(v) = sum of x(y) x(z) over the (y, z) with a y + b z = v, for each
    (a, b) in forms and each row of the (batch, p^n) array x, form by form:
    row i * batch + r is form i of row r.  The default form (1, 1) gives
    the self-convolution x * x.

    x's dtype decides the result.  Boolean masks give int64 rows of counts
    #{(y, z) in S^2: a y + b z = v}, rounded by `exact_counts`; float64
    density rows give the float64 convolutions, never rounded.

    R's transform is t(a k) t(b k), t the transform of x, so a row takes
    one forward transform and each output row one inverse.
    """
    p, n = params.p, params.n
    t = forward(x, p, n)
    if forms == ((1, 1),):
        t *= t  # in place: a count holds only t and its result full-size
    else:
        t = np.stack([t[:, scale_map(p, n, a)] * t[:, scale_map(p, n, b)] for a, b in forms])
    conv = inverse(t, p, n).real
    return exact_counts(conv) if x.dtype == bool else conv


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
    coeffs = forward(f.values, f.params.p, f.params.n)[0]
    coeffs.setflags(write=False)
    return coeffs


def large_spectrum(coeffs: np.ndarray, delta: float, params: GroupParams) -> PointSet:
    """All frequencies a with |fhat(a)| strictly above delta * p^n, for the
    coefficients of an f mapping into [0, 1]; delta must lie in (0, inf).

    The comparison runs `gfspace.BLOCK` coefficients at a time, so beside
    its input and the members of A it holds one block of magnitudes."""
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    cutoff = float(delta) * params.size
    # Parseval: at most delta^-2 survivors for f mapping into [0,1].  Below
    # delta = 1e-154, delta^-2 overflows a float, and no |A| <= p^n exceeds it.
    limit = delta**-2 if delta >= 1e-154 else np.inf
    block, members = gfspace.BLOCK, []
    for start in range(0, len(coeffs), block):
        hits = np.flatnonzero(np.abs(coeffs[start : start + block]) > cutoff)
        members += (hits + start).tolist()
    if len(members) > limit + 1e-9:
        raise ValueError(f"|A| = {len(members)} exceeds delta^-2 = {limit:.6g}: Parseval violated")
    return PointSet(params, tuple(members))


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
