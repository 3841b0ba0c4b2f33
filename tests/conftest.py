import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import ap3
from ap3 import fourier, subspace as sub
from ap3.gfspace import DensityFunction, GroupParams, scale_map


def digit_table(p: int, n: int) -> np.ndarray:
    """(p^n, n) array: row i holds the little-endian base-p digits of i.
    The digit-array oracle that the index kernels are checked against."""
    idx = np.arange(p**n, dtype=np.int64)
    digits = np.empty((p**n, n), dtype=np.int64)
    for k in range(n):
        digits[:, k] = idx // p**k % p
    return digits


def digits_to_index(digits, params: GroupParams) -> int:
    """Index of the element with the given little-endian base-p digits."""
    if len(digits) != params.n:
        raise ValueError(f"expected {params.n} digits, got {len(digits)}")
    p = params.p
    return sum(int(d) % p * p**k for k, d in enumerate(digits))


def full_space(params: GroupParams) -> sub.Subspace:
    """F_p^n itself, spanned by the coordinate axes."""
    return sub.Subspace(params, np.eye(params.n, dtype=np.int64), tuple(range(params.n)))


def canonical_codim_subspace(w: sub.Subspace, ell: int) -> sub.Subspace:
    """Drop the first `ell` echelon rows of W (rows ordered by pivot column):
    the oracle for the S that `improve.s_columns` picks out of W's layout."""
    if not 0 <= ell <= w.dim:
        raise ValueError(f"ell={ell} out of range [0, {w.dim}]")
    return sub.Subspace(w.params, w.basis[ell:], w.pivots[ell:])


def all_subspaces(params: GroupParams, dim: int):
    """Every subspace of the given dimension, one Subspace at a time in the
    order of `subspace_blocks`: the oracle the batched paths are checked
    against."""
    for pivots, bases in sub.subspace_blocks(params, dim):
        for basis in bases:
            yield sub.Subspace(params, basis, pivots)


def row_of(rows: np.ndarray) -> np.ndarray:
    """Element index -> its row in the (|T|, |W|) coset layout `rows` of
    `subspace.coset_decomposition`: the oracle element-to-row map."""
    pos = np.empty(rows.size, dtype=np.int64)
    pos[rows] = np.arange(len(rows))[:, None]
    return pos


CASE_COLUMNS = ("reps", "all_in_v_prime", "lhs", "rhs", "base", "passed")


def case_columns(table) -> SimpleNamespace:
    """Each column of an improve case table (`improve.CaseTable`, or any
    object whose `blocks()` yields at least one namespace of the same
    columns) over all its cases, concatenated from its blocks."""
    blocks = list(table.blocks())
    return SimpleNamespace(
        **{k: np.concatenate([getattr(b, k) for b in blocks]) for k in CASE_COLUMNS}
    )


def subprocess_env() -> dict:
    """os.environ with this checkout's ap3 first on PYTHONPATH, so a child
    interpreter imports the same package without an install."""
    src = os.path.dirname(os.path.dirname(ap3.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, path]) if path else src)


def pytest_configure(config):
    """Refuse a run whose PYTHONPATH names an ap3 other than the one the
    tests import: pyproject's `pythonpath = ["src"]` puts this checkout's
    src first, so such a run would silently test this checkout."""
    here = os.path.dirname(os.path.realpath(ap3.__file__))
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        other = os.path.realpath(os.path.join(entry, "ap3"))
        if other != here and os.path.isfile(os.path.join(other, "__init__.py")):
            raise pytest.UsageError(
                f"PYTHONPATH names ap3 at {other}, but the tests import {here}: "
                "run the tests from a full copy of that tree's checkout"
            )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


def random_density(params: GroupParams, rng) -> DensityFunction:
    return DensityFunction(params, rng.random(params.size))


def random_indicator(params: GroupParams, rng) -> DensityFunction:
    return DensityFunction(params, (rng.random(params.size) < 0.5).astype(float))


def naive_dft(f: DensityFunction) -> np.ndarray:
    """O(p^2n) character sum oracle: fhat(a) = sum_m f(m) omega^(a.m)."""
    p, n = f.params.p, f.params.n
    digits = digit_table(p, n)
    out = np.zeros(f.params.size, dtype=complex)
    for a in range(f.params.size):
        for m in range(f.params.size):
            dot = int(np.dot(digits[a], digits[m])) % p
            out[a] += f.values[m] * np.exp(2j * np.pi * dot / p)
    return out


def lambda3(f: DensityFunction) -> float:
    """Lambda3(f) = T3(f) / p^(2n) from the library's one count on f's
    float values."""
    return float(fourier.triple_counts(f.values, f.params)[0]) / float(f.params.size) ** 2


def spectral_lambda3(f: DensityFunction) -> float:
    """The paper's spectral identity p^(-3n) sum_a fhat(a)^2 fhat(-2a), an
    oracle that shares only the forward transform with the library count.

    The sum must be real; its real part alone is normalized, since a
    complex division loses the last bit (91.125 / 729 would give
    0.12499999999999999)."""
    p, n = f.params.p, f.params.n
    c = fourier.dft_forward(f)
    total = np.sum(c * c * c[scale_map(p, n, p - 2)])
    norm = float(f.params.size) ** 3
    assert abs(total.imag) / norm <= 1e-9, total
    return float(total.real) / norm


def brute_lambda3(f: DensityFunction) -> float:
    """Double loop oracle over (m, d) using digit arithmetic only."""
    p, n = f.params.p, f.params.n
    digits = digit_table(p, n)
    pv = p ** np.arange(n)
    total = 0.0
    for m in range(f.params.size):
        for d in range(f.params.size):
            md = (digits[m] + digits[d]) % p
            m2d = (digits[m] + 2 * digits[d]) % p
            total += f.values[m] * f.values[int(md @ pv)] * f.values[int(m2d @ pv)]
    return total / f.params.size**2


def chunked_t3(values: np.ndarray, p: int, n: int, chunk: int = 32):
    """sum over (m, d) of v(m) v(m+d) v(m+2d) by digit arithmetic, a block
    of m at a time.  Integer values give an exact Python int."""
    digits = digit_table(p, n)
    pv = p ** np.arange(n)
    parts = []
    for start in range(0, p**n, chunk):
        dm = digits[start : start + chunk, None, :]
        md = ((dm + digits[None]) % p) @ pv
        m2d = ((dm + 2 * digits[None]) % p) @ pv
        parts.append((values[start : start + chunk, None] * values[md] * values[m2d]).sum())
    if np.issubdtype(values.dtype, np.integer):
        return sum(int(x) for x in parts)
    return math.fsum(parts)


def brute_count(u, v, w, p: int, n: int, trivial: bool = True) -> int:
    """#(m, d) with m in U, m+d in V and m+2d in W for boolean masks u, v, w,
    one d at a time by digit arithmetic; trivial=False skips d = 0."""
    digits = digit_table(p, n)
    pv = p ** np.arange(n)
    total = 0
    for d in digits[0 if trivial else 1 :]:
        md = ((digits + d) % p) @ pv
        m2d = ((digits + 2 * d) % p) @ pv
        total += int(np.count_nonzero(u & v[md] & w[m2d]))
    return total


def planted_density(p, n, k, seed):
    """h(Lx) + noise for a random rank-k form L, so that W should be ker L."""
    r = np.random.default_rng(seed)
    params = GroupParams(p, n)
    while True:
        forms = r.integers(0, p, size=(k, n))
        if sub.span(params, forms.tolist()).dim == k:
            break
    labels = ((digit_table(p, n) @ forms.T) % p) @ (p ** np.arange(k))
    h = r.uniform(0.2, 0.8, size=p**k)
    return DensityFunction(params, h[labels] + r.uniform(-0.02, 0.02, size=params.size))
