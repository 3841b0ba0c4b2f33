"""Character transform over F_p^n, Parseval, the spectral triple-count
identity, large-spectrum extraction, and the exact mod-q transform `ntt`
behind every integer count.

Convention: fhat(a) = sum_m f(m) * omega^(a.m) with omega = exp(2*pi*i/p)
and a.m the standard dot product mod p.  The inverse carries the p^-n
factor and omega^(-a.m).  Tests pin this convention through the spectral
identity and an explicit phase check.

The same axis passes run over the prime field F_q with q = 1 (mod p),
where omega is a p-th root of unity mod q (Pollard, "The fast Fourier
transform in a finite field", Math. Comp. 1971).  That gives exact
integer convolutions with no rounding.

Both transforms run one kernel, `_axis_passes`, in place on a private copy
of their input: each digit axis is swept a block of at most `PASS_BLOCK`
elements at a time, so a transform holds its input, its output and one
block, with no full-size temporary or transposed copy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, combine, is_prime, scale_map

IMAG_TOL = 1e-9
ROUNDTRIP_IMAG_TOL = 1e-10

# Each mod-q axis pass sums p products of residues below q in int64, and
# unreduced passes keep every entry below this bound.
INT64_LIMIT = 2**63

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


def _axis_passes(arr: np.ndarray, matrix: np.ndarray, q: int | None = None) -> np.ndarray:
    """Apply the p x p `matrix` in place along each of the n digit axes of
    the C-contiguous `arr`, and return `arr`.

    `arr` has shape (batch, p, ..., p) with n digit axes; every batch row
    is transformed independently in O(n p^(n+1)).  With `q` set, entries
    are residues mod q, and they are reduced mod q after the last pass and
    after any pass whose output could overflow int64 in the next one.

    The pass over the digit of stride p^k views `arr` as (rows, p, p^k),
    most significant digit first, and works through blocks of at most
    PASS_BLOCK elements, each multiplied by `matrix` and written back.  A
    complex block is gathered into one (p, m) matrix, since BLAS takes one
    matrix a call; numpy's integer matmul loops over a block's rows itself.
    Blocks are kept small for two reasons.  Their temporaries stay below
    glibc's 128 KiB mmap threshold, since freeing a larger one raises that
    threshold for the rest of the job and so its later peak RSS: blocks of
    2^13 columns make 393 KB temporaries, and a 3^10 `ap3 spectrum` job
    then peaks at 32.9 MB against 31.6 MB.  And each matmul stays too small
    for OpenBLAS to thread: with (7 x 7) @ (7 x 2048) blocks a 7^6
    transform takes 4 ms, but up to 412 ms when a call is threaded on 2
    cores.
    """
    p = matrix.shape[0]
    cols = max(1, PASS_BLOCK // p)
    bound = None if q is None else q - 1  # the largest entry
    for k in reversed(range(arr.ndim - 1)):
        view = arr.reshape(-1, p, p**k)
        rows, width = view.shape[0], view.shape[2]
        row_step, col_step = max(1, cols // width), min(width, cols)
        if q is not None:
            bound *= p * (q - 1)
            reduce = k == 0 or bound * p * (q - 1) >= INT64_LIMIT
            if reduce:
                bound = q - 1
        for r in range(0, rows, row_step):
            for c in range(0, width, col_step):
                block = view[r : r + row_step, :, c : c + col_step]
                if q is None:
                    out = np.matmul(matrix, block.transpose(1, 0, 2).reshape(p, -1))
                    block[...] = out.reshape(p, len(block), -1).transpose(1, 0, 2)
                elif reduce:
                    np.remainder(np.matmul(matrix, block), q, out=block)
                else:
                    block[...] = np.matmul(matrix, block)
    return arr


@lru_cache(maxsize=None)
def ntt_prime(p: int, n: int) -> int:
    """Smallest prime q = 1 (mod p) with q > p^n and p (q-1)^2 < 2^63.

    q > p^n makes every convolution of two indicators on F_p^n (values
    0..p^n) equal to its residue mod q; the second bound keeps the int64
    axis passes from overflowing.  Raises ValueError when no such q exists.
    """
    size = p**n
    q = size + 1  # p^n + 1 = 1 (mod p)
    # Every candidate has q - 1 >= p^n, so oversize groups skip the search.
    if p * size**2 < INT64_LIMIT:
        while not is_prime(q):
            q += p
    if p * (q - 1) ** 2 >= INT64_LIMIT:
        raise ValueError(f"no exact int64 transform for p^n = {p}^{n}: p (q-1)^2 >= 2^63")
    return q


@lru_cache(maxsize=None)
def _char_matrices_mod(p: int, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(q, forward, inverse): omega^(a*m) and p^-1 omega^(-a*m) mod q."""
    q = ntt_prime(p, n)
    # Any h^((q-1)/p) other than 1 has order exactly p.
    omega = next(w for w in (pow(h, (q - 1) // p, q) for h in range(2, q)) if w != 1)
    exps = np.outer(np.arange(p), np.arange(p)) % p
    p_inv = pow(p, -1, q)
    fwd = np.array([pow(omega, k, q) for k in range(p)], dtype=np.int64)[exps]
    inv = np.array([pow(omega, -k, q) * p_inv % q for k in range(p)], dtype=np.int64)[exps]
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return q, fwd, inv


def ntt(x: np.ndarray, params: GroupParams, inverse: bool = False) -> np.ndarray:
    """The mod-q transform (or with inverse=True its inverse) of each row of
    the (batch, p^n) integers x, q = ntt_prime(p, n), as int64 residues.

    Integer x is reduced mod q as it is converted to int64, so any int64
    values may be passed, such as a product of two residues, which fits
    since p (q-1)^2 < 2^63.  A boolean mask is already residues.  The
    inverse of ntt(a) * ntt(b) is the convolution (a*b)(t) =
    sum_z a(z) b(t-z), exact for masks a and b: its values are 0..p^n < q.
    """
    p, n = params.p, params.n
    q, fwd, inv = _char_matrices_mod(p, n)
    # Reducing a mask, rather than converting it, costs ten times as much.
    arr = x.astype(np.int64) if x.dtype == bool else np.remainder(x, q, dtype=np.int64)
    arr = arr.reshape((-1,) + (p,) * n)
    return _axis_passes(arr, inv if inverse else fwd, q).reshape(-1, params.size)


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
