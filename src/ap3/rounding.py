"""Randomized rounding of a density function to an indicator, with mean
repair and coset-deviation monitoring, plus the Hoeffding tail bound as a
diagnostic.

PRNG discipline: the stream is PCG64 seeded directly with the given seed,
one 64-bit draw per point in canonical index order, point m set to 1 when
draw / 2^64 < j(m).  Pinning the stream (not just the library) is what
makes runs bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gfspace import DensityFunction
from . import fourier
from . import subspace as sub


@dataclass(frozen=True)
class RoundingReport:
    seed: int
    mean_before: float
    mean_after: float
    lambda3_before: float
    lambda3_after: float
    repaired_points: int
    max_coset_deviation: float
    hoeffding_bound: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mean_before": self.mean_before,
            "mean_after": self.mean_after,
            "lambda3_before": self.lambda3_before,
            "lambda3_after": self.lambda3_after,
            "repaired_points": self.repaired_points,
            "max_coset_deviation": self.max_coset_deviation,
            "hoeffding_bound": self.hoeffding_bound,
        }


def randomize(j: DensityFunction, seed: int) -> DensityFunction:
    """Independent Bernoulli(j(m)) draws; 0/1-valued, reproducible per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.integers(0, 2**64, size=j.params.size, dtype=np.uint64)
    # draw/2^64 < j(m); handled exactly at j = 0 and j = 1.
    out = draws.astype(np.float64) < j.values * 2.0**64
    out |= j.values >= 1.0
    out &= j.values > 0.0
    return DensityFunction(j.params, out.astype(np.float64))


def repair(j0: DensityFunction, target_mean: float) -> DensityFunction:
    """Flip the lowest-index zeros to 1 until the mean reaches target_mean."""
    if target_mean > 1.0 + 1e-12:
        raise ValueError(f"target_mean {target_mean} exceeds 1")
    vals = np.array(j0.values)
    if not np.all((vals == 0.0) | (vals == 1.0)):
        raise ValueError("repair requires a 0/1-valued input")
    n = j0.params.size
    # ceil with a guard so an exactly-met target never flips a point
    need = max(0, math.ceil(target_mean * n - 1e-9))
    ones = int(vals.sum())
    flips = need - ones
    if flips > 0:
        zeros = np.nonzero(vals == 0.0)[0][:flips]
        vals[zeros] = 1.0
    return DensityFunction(j0.params, vals)


def round_to_indicator(
    j: DensityFunction, seed: int, monitored: Sequence[sub.Subspace] = ()
) -> tuple[DensityFunction, RoundingReport]:
    """Randomize then repair; audit mean, triple-count drift, and coset drift."""
    j0 = randomize(j, seed)
    target = j.expectation()
    j2 = repair(j0, target)
    repaired = int(np.count_nonzero(j0.values != j2.values))

    max_dev = 0.0
    bound = 0.0
    n = j.params.n
    for w in monitored:
        jw = sub.average_over_cosets(j, w)
        j2w = sub.average_over_cosets(j2, w)
        max_dev = max(max_dev, float(np.abs(j2w.values - jw.values).max()))
        w_size = j.params.p**w.dim
        bound = max(bound, hoeffding_bound_raw(w_size, 1.0 / n**2))

    report = RoundingReport(
        seed=seed,
        mean_before=target,
        mean_after=j2.expectation(),
        lambda3_before=fourier.lambda3_spectral(j),
        lambda3_after=fourier.lambda3_spectral(j2),
        repaired_points=repaired,
        max_coset_deviation=max_dev,
        hoeffding_bound=bound,
    )
    return j2, report


def hoeffding_bound(r: int, t: float) -> float:
    """P(|Sigma - mu| > r t) <= 2 exp(-r t^2 / 2), clamped to [0, 1]."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return min(1.0, 2.0 * math.exp(-r * t * t / 2.0))


def hoeffding_bound_raw(w_size: int, inv_n: float) -> float:
    """The proof's per-subspace tail 2 exp(-|W| / 2n^2), clamped to [0, 1]."""
    return min(1.0, 2.0 * math.exp(-w_size * inv_n / 2.0))
