"""Randomized rounding of a density function to an indicator, carried as a
boolean mask that `randomize` draws and `repair` tops up in place to the
target mean; coset-deviation monitoring and the Hoeffding tail bound are
diagnostics.

PRNG discipline: the stream is the standard library's `random.Random(seed)`,
the one generator ap3 draws from: one 64-bit word per point in canonical
index order, the words of `getrandbits(64 * p^n)` least significant first,
point m set to 1 when word / 2^64 < j(m).  Pinning the stream (not just the
library) is what makes runs bit-reproducible.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .gfspace import DensityFunction, seeded_rng
from . import fourier, gfspace
from . import subspace as sub


def randomize(j: DensityFunction, seed: int | None) -> np.ndarray:
    """The boolean mask of independent Bernoulli(j(m)) draws, reproducible
    per seed (seed=None seeds from os.urandom), drawn and compared
    `gfspace.BLOCK` words at a time.  CPython's getrandbits fills 32 bits
    at a time, least significant first, so the blocks join into the stream
    of one getrandbits(64 * p^n) call."""
    rng = seeded_rng(seed)
    size, block = j.params.size, gfspace.BLOCK
    out = np.empty(size, dtype=bool)
    for start in range(0, size, block):
        k = min(block, size - start)
        words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        vals, hit = j.values[start : start + k], out[start : start + k]
        # draw/2^64 < j(m); handled exactly at j = 0 and j = 1.
        np.less(np.frombuffer(words, dtype="<u8").astype(np.float64), vals * 2.0**64, out=hit)
        hit |= vals >= 1.0
        hit &= vals > 0.0
    return out


def repair(mask: np.ndarray, target_mean: float) -> int:
    """Set the lowest-index zeros of the boolean `mask` in place, up to the
    least count k of ones whose float mean k / N is at least target_mean,
    and return how many were set (none when the mask has k ones already)."""
    if target_mean > 1.0:
        raise ValueError(f"target_mean {target_mean} exceeds 1")
    size = mask.size
    num, den = target_mean.as_integer_ratio()
    need = -(-num * size // den)  # the least k with k / N >= target_mean exactly
    if (need - 1) / size >= target_mean:  # k - 1 whose quotient rounds up to it
        need -= 1
    zeros = np.flatnonzero(~mask)[: max(0, need - int(np.count_nonzero(mask)))]
    mask[zeros] = True
    return len(zeros)


def round_to_indicator(
    j: DensityFunction, seed: int, monitored: Sequence[sub.Subspace] = ()
) -> tuple[DensityFunction, SimpleNamespace]:
    """Randomize then repair, to a set whose mean is not below E(j); audit
    mean, triple-count drift, and coset drift in a `rounding_report` of
    reports.schema.json, whose `repaired_points` is the number repair set."""
    mask = randomize(j, seed)
    target = j.expectation()
    repaired = repair(mask, target)
    j2 = DensityFunction(j.params, mask.astype(np.float64))

    max_dev = 0.0
    bound = 0.0
    n = j.params.n
    for w in monitored:
        for rows in sub.coset_blocks(w):
            dev = np.abs(sub.coset_means(j2, rows) - sub.coset_means(j, rows)).max()
            max_dev = max(max_dev, float(dev))
        w_size = j.params.p**w.dim
        bound = max(bound, hoeffding_bound(w_size, n))

    t3_before, t3_after = fourier.triple_counts(np.stack([j.values, j2.values]), j.params).tolist()
    norm = float(j.params.size) ** 2
    report = SimpleNamespace(
        seed=seed,
        mean_before=target,
        mean_after=j2.expectation(),
        lambda3_before=t3_before / norm,
        lambda3_after=t3_after / norm,
        repaired_points=repaired,
        max_coset_deviation=max_dev,
        hoeffding_bound=bound,
    )
    return j2, report


def hoeffding_bound(w_size: int, n: int) -> float:
    """The proof's per-subspace tail 2 exp(-|W| / 2n^2), clamped to [0, 1]."""
    return min(1.0, 2.0 * math.exp(-w_size * (1.0 / n**2) / 2.0))
