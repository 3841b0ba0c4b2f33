"""Reference arithmetic on F_p^n, written independently of ap3.

Everything here works on plain numpy arrays of base-p digits, using the
file convention only: index m = sum_i c_i p^i, digit 0 least significant.
The checker compares ap3's outputs against these results, so nothing in
this module may import ap3.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Triples visited per chunk in the exact counts; bounds the reference's
# own memory to a few tens of MB at any size the benchmark uses.
CHUNK_TRIPLES = 1 << 18


def digits(p: int, n: int) -> np.ndarray:
    """(p^n, n) int64 array of the base-p digits of every index."""
    idx = np.arange(p**n, dtype=np.int64)
    return np.stack([(idx // p**k) % p for k in range(n)], axis=1)


def to_index(dig: np.ndarray, p: int) -> np.ndarray:
    """Inverse of `digits` along the last axis (digits must lie in [0, p))."""
    n = dig.shape[-1]
    return dig @ (p ** np.arange(n, dtype=np.int64))


def _shifted(dig: np.ndarray, ds: np.ndarray, p: int) -> np.ndarray:
    """out[i, m] = index of m + ds[i], by digit-wise addition mod p."""
    out = np.zeros((len(ds), len(dig)), dtype=np.int32)
    for k in range(dig.shape[1]):
        s = dig[ds, k][:, None] + dig[None, :, k]
        s -= p * (s >= p)
        out += s * p**k
    return out


def _d_chunks(p: int, n: int):
    """Yield (m + d, m + 2d) index tables for successive blocks of d."""
    size = p**n
    step = max(1, CHUNK_TRIPLES // size)
    dig = digits(p, n).astype(np.int32)
    double = to_index((2 * digits(p, n)) % p, p)
    for lo in range(0, size, step):
        ds = np.arange(lo, min(size, lo + step))
        yield _shifted(dig, ds, p), _shifted(dig, double[ds], p)


def raw_count(mask: np.ndarray, p: int, n: int) -> tuple[int, int]:
    """(T3 with trivial triples, T3 without) of the set with this 0/1 mask."""
    x = np.asarray(mask, dtype=bool)
    total = 0
    trivial = int(np.count_nonzero(x))
    for m1, m2 in _d_chunks(p, n):
        total += int(np.count_nonzero(x[None, :] & x[m1] & x[m2]))
    return total, total - trivial


def lambda3(values: np.ndarray, p: int, n: int) -> float:
    """p^(-2n) sum_{m,d} f(m) f(m+d) f(m+2d), summed per chunk of d."""
    v = np.asarray(values, dtype=np.float64)
    parts = [float(np.sum(v[None, :] * v[m1] * v[m2])) for m1, m2 in _d_chunks(p, n)]
    return float(np.sum(parts)) / float(p**n) ** 2


def spectrum(values: np.ndarray, p: int, n: int) -> np.ndarray:
    """fhat(a) = sum_m f(m) omega^(a.m), omega = exp(2 pi i / p).

    numpy's FFT carries omega^(-a.m); for real f the conjugate gives ours.
    Reshaping in C order reverses the digit order on both m and a alike,
    which leaves every dot product a.m unchanged.
    """
    arr = np.asarray(values, dtype=np.float64).reshape((p,) * n)
    return np.conj(np.fft.fftn(arr)).reshape(-1)


def rank_mod_p(rows: np.ndarray, p: int) -> int:
    return len(row_reduce(rows, p))


def row_reduce(rows: np.ndarray, p: int) -> np.ndarray:
    """Nonzero rows of the reduced row-echelon form over GF(p)."""
    m = np.array(rows, dtype=np.int64).reshape(-1, np.shape(rows)[-1]) % p
    r = 0
    for c in range(m.shape[1]):
        piv = next((i for i in range(r, m.shape[0]) if m[i, c]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for i in range(m.shape[0]):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return m[:r]


def null_space(rows: np.ndarray, p: int, n: int) -> np.ndarray:
    """Basis (as rows) of {x : rows @ x = 0 mod p}."""
    red = row_reduce(np.reshape(rows, (-1, n)), p) if len(rows) else np.zeros((0, n), np.int64)
    pivots = [int(np.nonzero(row)[0][0]) for row in red]
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = np.zeros(n, dtype=np.int64)
        x[free] = 1
        for row, piv in zip(red, pivots):
            x[piv] = (-row[free]) % p
        basis.append(x)
    return np.array(basis, dtype=np.int64).reshape(-1, n)


def span_elements(basis: np.ndarray, p: int, n: int) -> np.ndarray:
    """Sorted indices of every GF(p) combination of the basis rows."""
    basis = np.reshape(basis, (-1, n))
    if len(basis) == 0:
        return np.zeros(1, dtype=np.int64)
    coeffs = digits(p, len(basis))
    return np.sort(to_index((coeffs @ basis) % p, p))


def coset_labels(annihilator: np.ndarray, p: int, n: int) -> np.ndarray:
    """Label of each point's coset of W = ker(annihilator)."""
    a = np.reshape(annihilator, (-1, n))
    return to_index((digits(p, n) @ a.T) % p, p)


def coset_average(values: np.ndarray, w_basis: np.ndarray, p: int, n: int) -> np.ndarray:
    """f_W(m): the mean of f over the coset m + W."""
    labels = coset_labels(null_space(w_basis, p, n), p, n)
    sums = np.bincount(labels, weights=values)
    sizes = np.bincount(labels)
    return sums[labels] / sizes[labels]


def min_structure_difference(mask: np.ndarray, p: int, n: int, max_codim: int) -> int:
    """min over W of codim <= max_codim of |S delta (A+W)|, A by majority.

    W runs over kernels of every 0..max_codim tuple of dual vectors, so
    each subspace is visited many times; only the minimum is kept.
    """
    if not 0 <= max_codim <= 2:
        raise ValueError("the reference enumerates codimension 2 at most")
    x = np.asarray(mask, dtype=np.int64)
    size = p**n
    best = min(int(x.sum()), size - int(x.sum()))
    dots = (digits(p, n) @ digits(p, n).T) % p  # dots[a, m] = a.m
    for codim in range(1, max_codim + 1):
        for first in range(1, size):
            labels = dots[first]
            if codim == 2:
                labels = labels[None, :] + p * dots[first + 1 :]
            labels = np.atleast_2d(labels)
            cells = p**codim
            rows = np.arange(len(labels))[:, None] * cells + labels
            inside = np.bincount(rows.ravel(), weights=np.broadcast_to(x, labels.shape).ravel(), minlength=len(labels) * cells).reshape(len(labels), cells)
            total = np.bincount(rows.ravel(), minlength=len(labels) * cells).reshape(len(labels), cells)
            # kernels of dependent pairs are codim 1, already covered above
            full = (total > 0).sum(axis=1) == cells
            if full.any():
                diff = np.minimum(inside, total - inside).sum(axis=1)
                best = min(best, int(diff[full].min()))
    return best


def varnavides_exhaustive_bound(t3_nontrivial: int, p: int, n: int, m_dim: int) -> Fraction:
    """The exhaustive estimator in closed form.

    Each nontrivial progression with difference d lies in one coset of
    every subgroup containing d, i.e. in [n-1, m-1]_p of the [n, m]_p
    subgroups, so p^(n-m) times the mean coset sum is
    T3'(S) p^(n-m) (p^m - 1) / (p^n - 1) <= T3'(S).
    """
    return Fraction(t3_nontrivial * p ** (n - m_dim) * (p**m_dim - 1), p**n - 1)


def minimal_count(p: int, n: int, floor: int) -> int:
    """Smallest raw count over all sets of at least `floor` points (tiny n)."""
    size = p**n
    subsets = (np.arange(1 << size)[:, None] >> np.arange(size)[None, :]) & 1
    subsets = subsets[subsets.sum(axis=1) >= floor].astype(bool)
    dig = digits(p, n)
    m1 = to_index((dig[:, None, :] + dig[None, :, :]) % p, p)
    m2 = to_index((dig[:, None, :] + 2 * dig[None, :, :]) % p, p)
    counts = (subsets[:, :, None] & subsets[:, m1] & subsets[:, m2]).sum(axis=(1, 2))
    return int(counts.min())
