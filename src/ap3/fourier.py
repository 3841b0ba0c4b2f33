"""Character transform over F_p^n, Parseval, the spectral triple-count
identity, large-spectrum extraction, and exact convolution of indicators.

Convention: fhat(a) = sum_m f(m) * omega^(a.m) with omega = exp(2*pi*i/p)
and a.m the standard dot product mod p.  The inverse carries the p^-n
factor and omega^(-a.m).  Tests pin this convention through the spectral
identity and an explicit phase check.

The same axis passes run over the prime field F_q with q = 1 (mod p),
where omega is a p-th root of unity mod q (Pollard, "The fast Fourier
transform in a finite field", Math. Comp. 1971).  That gives exact
integer convolutions with no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, is_prime, scale_map

IMAG_TOL = 1e-9
ROUNDTRIP_IMAG_TOL = 1e-10

# Each mod-q axis pass sums p products of residues below q in int64.
INT64_LIMIT = 2**63


@lru_cache(maxsize=None)
def _char_matrix(p: int) -> np.ndarray:
    """p x p matrix M[a, m] = omega^(a*m)."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    m = roots[np.outer(np.arange(p), np.arange(p)) % p]
    m.setflags(write=False)
    return m


def _axis_passes(arr: np.ndarray, matrix: np.ndarray, q: int | None = None) -> np.ndarray:
    """Apply the p x p `matrix` along each of the n digit axes of `arr`.

    `arr` has shape (batch, p, ..., p) with n digit axes; every batch row
    is transformed independently in O(n p^(n+1)).  With `q` set, entries
    are residues mod q and each pass is reduced mod q.
    """
    p = matrix.shape[0]
    batch, n = arr.shape[0], arr.ndim - 1
    a = arr.reshape(batch, p, -1)
    for _ in range(n):
        a = np.matmul(matrix, a)
        if q is not None:
            a %= q
        # Rotate the transformed digit to the back; n rotations restore the order.
        a = a.transpose(0, 2, 1).reshape(batch, p, -1)
    return a.reshape(arr.shape)


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


def convolve_indicators(a: np.ndarray, b: np.ndarray, params: GroupParams) -> np.ndarray:
    """Exact (a*b)(t) = sum_z a(z) b(t-z) for boolean masks a, b of shape
    (batch, p^n), row by row, as int64.

    Every value is a count in 0..p^n < q, so the mod-q result is exact.
    """
    p, n = params.p, params.n
    q, fwd, inv = _char_matrices_mod(p, n)
    shape = (-1,) + (p,) * n
    ta = _axis_passes(np.asarray(a, dtype=bool).astype(np.int64).reshape(shape), fwd, q)
    tb = _axis_passes(np.asarray(b, dtype=bool).astype(np.int64).reshape(shape), fwd, q)
    out = _axis_passes(ta * tb % q, inv, q)
    return out.reshape(-1, params.size)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex Fourier coefficients fhat(a), indexed by a in canonical order."""

    params: GroupParams
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.params.size,):
            raise ValueError(f"expected {self.params.size} coefficients, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class SpectrumThreshold:
    """A large-spectrum cutoff: keep a with |fhat(a)| > delta * p^n."""

    delta: float
    cutoff: float

    @classmethod
    def for_params(cls, delta: float, params: GroupParams) -> "SpectrumThreshold":
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return cls(float(delta), float(delta) * params.size)


def dft_forward(f: DensityFunction) -> Spectrum:
    """n axis passes of the p-point character transform (O(n p^(n+1)))."""
    p, n = f.params.p, f.params.n
    arr = f.values.astype(np.complex128).reshape((1,) + (p,) * n)
    return Spectrum(f.params, _axis_passes(arr, _char_matrix(p)).reshape(-1))


def dft_inverse(spec: Spectrum) -> DensityFunction:
    """Inverse transform; requires conjugate symmetry (a real preimage)."""
    p, n = spec.params.p, spec.params.n
    c = spec.coeffs
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c[scale_map(p, n, p - 1)] - np.conj(c)).max() > IMAG_TOL * scale:
        raise ValueError("spectrum violates conjugate symmetry; no real preimage")
    arr = c.reshape((1,) + (p,) * n)
    flat = _axis_passes(arr, np.conj(_char_matrix(p)) / p).reshape(-1)
    if np.abs(flat.imag).max() > ROUNDTRIP_IMAG_TOL * scale:
        raise ValueError("imaginary residue above tolerance in inverse transform")
    return DensityFunction(spec.params, flat.real)


def lambda3_spectral(f: DensityFunction) -> float:
    """Normalized triple count via p^(-3n) * sum_a fhat(a)^2 fhat(-2a)."""
    p, n = f.params.p, f.params.n
    c = dft_forward(f).coeffs
    total = np.sum(c * c * c[scale_map(p, n, p - 2)])
    # Normalize the real part alone: complex division loses the last bit
    # (91.125 / 729 would give 0.12499999999999999).
    norm = float(f.params.size) ** 3
    if abs(total.imag) / norm > IMAG_TOL:
        raise ValueError(f"spectral triple sum has imaginary part {total.imag / norm:g}")
    return float(total.real) / norm


def large_spectrum(f: DensityFunction, delta: float) -> PointSet:
    """All frequencies a with |fhat(a)| strictly above delta * p^n."""
    thr = SpectrumThreshold.for_params(delta, f.params)
    mags = np.abs(dft_forward(f).coeffs)
    a = np.nonzero(mags > thr.cutoff)[0]
    # Parseval: at most delta^-2 survivors for f mapping into [0,1].
    if len(a) > delta**-2 + 1e-9:
        raise ValueError(f"|A| = {len(a)} exceeds delta^-2 = {delta**-2:.6g}: Parseval violated")
    return PointSet(f.params, tuple(int(i) for i in a))


def spectrum_export_lines(spec: Spectrum, delta: float) -> list[str]:
    """CLI export: 'index re im' for |fhat| > cutoff, by descending magnitude."""
    thr = SpectrumThreshold.for_params(delta, spec.params)
    mags = np.abs(spec.coeffs)
    keep = [int(i) for i in np.nonzero(mags > thr.cutoff)[0]]
    keep.sort(key=lambda i: (-mags[i], i))
    return [
        f"{i} {spec.coeffs[i].real:.17g} {spec.coeffs[i].imag:.17g}" for i in keep
    ]
