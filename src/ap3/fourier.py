"""Character transform over F_p^n, Parseval, the spectral triple-count
identity, large-spectrum extraction, and the exact integer convolutions
`pair_counts` behind every integer count.

Convention: fhat(a) = sum_m f(m) * omega^(a.m) with omega = exp(2*pi*i/p)
and a.m the standard dot product mod p.  The inverse carries the p^-n
factor and omega^(-a.m).  Tests pin this convention through the spectral
identity and an explicit phase check.

Exact counts use the same complex transform: a convolution of two masks is
an integer, so its float value rounds to it whenever the float error is
below 1/2 (Percival, "Rapid multiplication modulo the sum and difference
of highly composite numbers", Math. Comp. 2003).  `pair_counts` states the
a priori bound, and checks at run time that every float lies within 1/4 of
its integer.

Every transform runs one kernel, `_axis_passes`, in place on a private
copy of its input: each digit axis is swept a block of at most
`PASS_BLOCK` elements at a time, so a transform holds its input, its
output and one block, with no full-size temporary or transposed copy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, combine, scale_map

IMAG_TOL = 1e-9
ROUNDTRIP_IMAG_TOL = 1e-10

# Most elements, p times the columns, one block of an axis pass holds: 64 KiB
# of complex128 (see `_axis_passes`).
PASS_BLOCK = 2**12


@lru_cache(maxsize=None)
def _char_matrix(p: int) -> np.ndarray:
    """p x p matrix M[a, m] = omega^(a*m)."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    m = roots[np.outer(np.arange(p), np.arange(p)) % p]
    m.setflags(write=False)
    return m


def _axis_passes(arr: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply the p x p complex `matrix` in place along each of the n digit
    axes of the C-contiguous complex128 `arr`, and return `arr`.

    `arr` has shape (batch, p, ..., p) with n digit axes; every batch row
    is transformed independently in O(n p^(n+1)).

    The pass over the digit of stride p^k views `arr` as (rows, p, p^k),
    most significant digit first, and works through blocks of at most
    PASS_BLOCK elements, each gathered into one (p, m) matrix (BLAS takes
    one matrix a call), multiplied by `matrix` and written back.  Blocks
    are kept small for two reasons.  Their temporaries stay below glibc's
    128 KiB mmap threshold, since freeing a larger one raises that
    threshold for the rest of the job and so its later peak RSS: blocks of
    2^13 columns make 393 KB temporaries, and a 3^10 `ap3 spectrum` job
    then peaks at 32.9 MB against 31.6 MB.  And each matmul stays too small
    for OpenBLAS to thread: with (7 x 7) @ (7 x 2048) blocks a 7^6
    transform takes 4 ms, but up to 412 ms when a call is threaded on 2
    cores.
    """
    p = matrix.shape[0]
    cols = max(1, PASS_BLOCK // p)
    for k in reversed(range(arr.ndim - 1)):
        view = arr.reshape(-1, p, p**k)
        rows, width = view.shape[0], view.shape[2]
        row_step, col_step = max(1, cols // width), min(width, cols)
        for r in range(0, rows, row_step):
            for c in range(0, width, col_step):
                block = view[r : r + row_step, :, c : c + col_step]
                out = np.matmul(matrix, block.transpose(1, 0, 2).reshape(p, -1))
                block[...] = out.reshape(p, len(block), -1).transpose(1, 0, 2)
    return arr


def pair_counts(
    x: np.ndarray, params: GroupParams, forms: tuple[tuple[int, int], ...] = ((1, 1),)
) -> np.ndarray:
    """R(v) = #{(y, z): x(y) = x(z) = 1 and a y + b z = v} for each (a, b)
    in forms and each row of the (batch, p^n) boolean masks x, as int64
    rows, form by form: row i * batch + r is form i of mask r.  The default
    form (1, 1) gives the self-convolution x * x.

    R's transform is t(a k) t(b k), t the transform of x, so a mask takes
    one forward transform and each output row one more.  That second
    transform applies the forward matrix to the conjugated product, which
    for a real R gives p^n R: no inverse matrix is built.  The floats are
    then rounded to the nearest integer.

    Rounding is exact while every float error stays below 1/2.  Percival's
    bound for FFT convolution is ||x||_2^2 = |S| times the error of the
    passes.  Each p-point pass multiplies by a matrix of unit entries, so
    it adds an error of about p^(3/2) u (u = 2^-53) relative to its output
    in the 2-norm, and n passes run each way: the largest error is of the
    order n p^(3/2) u |S| <= n p^(3/2) u p^n.  That is 3.4e-10 at 3^10
    and 1.1e-7 on Z_4001; measured on 30% masks it is 0 at 3^10 and 3^12
    and below 2e-12 at 5^6, 7^5 and Z_4001.  It nears 1/4 only around 3^28
    or p = 10^6, far beyond the memory of any job.  As a run-time check, a
    float more than 1/4 from its integer raises RuntimeError.
    """
    p, n = params.p, params.n
    matrix = _char_matrix(p)
    t = x.reshape((-1,) + (p,) * n).astype(np.complex128)
    t = _axis_passes(t, matrix).reshape(-1, params.size)
    if forms == ((1, 1),):
        t *= t  # in place: a count holds only t and its result full-size
    else:
        t = np.stack([t[:, scale_map(p, n, a)] * t[:, scale_map(p, n, b)] for a, b in forms])
    np.conjugate(t, out=t)
    conv = _axis_passes(t.reshape((-1,) + (p,) * n), matrix).reshape(-1, params.size).real
    conv /= params.size
    counts = np.rint(conv, out=np.empty(conv.shape, dtype=np.int64), casting="unsafe")
    conv -= counts
    residue = max(conv.max(initial=0.0), -conv.min(initial=0.0))
    if residue > 0.25:
        raise RuntimeError(f"exact count failed: a convolution lies {residue:.3g} from an integer")
    return counts


def dft_forward(f: DensityFunction) -> np.ndarray:
    """The coefficients fhat(a) in canonical order, as a read-only complex128
    array: n axis passes of the p-point character transform (O(n p^(n+1)))."""
    p, n = f.params.p, f.params.n
    arr = f.values.astype(np.complex128).reshape((1,) + (p,) * n)
    coeffs = _axis_passes(arr, _char_matrix(p)).reshape(-1)
    coeffs.setflags(write=False)
    return coeffs


def dft_inverse(c: np.ndarray, params: GroupParams) -> DensityFunction:
    """Inverse transform of the coefficients c; requires conjugate symmetry
    (a real preimage)."""
    p, n = params.p, params.n
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c[scale_map(p, n, p - 1)] - np.conj(c)).max() > IMAG_TOL * scale:
        raise ValueError("spectrum violates conjugate symmetry; no real preimage")
    arr = np.array(c, dtype=np.complex128).reshape((1,) + (p,) * n)
    flat = _axis_passes(arr, np.conj(_char_matrix(p)) / p).reshape(-1)
    if np.abs(flat.imag).max() > ROUNDTRIP_IMAG_TOL * scale:
        raise ValueError("imaginary residue above tolerance in inverse transform")
    return DensityFunction(params, flat.real)


def lambda3_spectral(f: DensityFunction) -> float:
    """Normalized triple count via p^(-3n) * sum_a fhat(a)^2 fhat(-2a)."""
    p, n = f.params.p, f.params.n
    c = dft_forward(f)
    total = np.sum(c * c * c[scale_map(p, n, p - 2)])
    # Normalize the real part alone: complex division loses the last bit
    # (91.125 / 729 would give 0.12499999999999999).
    norm = float(f.params.size) ** 3
    if abs(total.imag) / norm > IMAG_TOL:
        raise ValueError(f"spectral triple sum has imaginary part {total.imag / norm:g}")
    return float(total.real) / norm


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
    last-bit noise, orders the pair.
    """
    members = np.array(a.members, dtype=np.int64)
    lower = np.minimum(members, combine(-1, members, 0, 0, a.params))
    vals = coeffs[lower]
    vals = np.where(lower == members, vals, np.conj(vals))
    order = np.lexsort((members, -np.abs(vals)))
    return [
        f"{i} {v.real:.17g} {v.imag:.17g}"
        for i, v in zip(members[order].tolist(), vals[order].tolist())
    ]
