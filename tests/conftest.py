import math

import numpy as np
import pytest

from ap3.gfspace import DensityFunction, GroupParams, digit_table


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
