"""The triple-count decreasing pipeline: from a density f and a target
epsilon, build W from the large spectrum, locate the non-indicator
cosets, and construct a function g with E(g) = E(f) and a certified
per-case decrease of the restricted triple counts.

At desk scale the headline decrease budget Delta is astronomically small
(about 3e-13 already at epsilon = 1, p = 3), so the report certifies the
epsilon-scale intermediate inequalities, which are the testable content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, scale_map, sub_indices
from . import apcount, fourier
from . import subspace as sub

CHECK_TOL = 1e-9
MEAN_TOL = 1e-12
AGGREGATE_REL_TOL = 1e-6


@dataclass(frozen=True)
class ImprovePipelineConfig:
    epsilon: float
    c_p: float = 1.0
    delta_override: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0,1], got {self.epsilon}")
        if self.c_p <= 0.0:
            raise ValueError(f"c_p must be positive, got {self.c_p}")
        if self.delta_override is not None and self.delta_override <= 0.0:
            raise ValueError("delta_override must be positive")


@dataclass(frozen=True)
class PerCaseCheck:
    """One coset-AP triple of transversal reps and its inequality status."""

    reps: tuple[int, int, int]
    all_in_v_prime: bool
    lhs: float  # T3(g | the three cosets)
    rhs: float  # bound: base*(1 - eps^2/16p^2) inside V', base outside
    base: float  # T3(f_W | the three cosets)
    passed: bool


@dataclass(frozen=True)
class ImprovementReport:
    A: PointSet
    V: sub.Subspace
    W: sub.Subspace
    V_cap_W_dim: int
    transversal_size: int
    V_prime: tuple[int, ...]
    ell: int
    beta: float
    lambda3_f: float
    lambda3_fW: float
    lambda3_g: float
    delta_used: float
    hypothesis_value: float  # E(|f - f_W|) for the constructed W only
    hypothesis_holds: bool
    v_prime_bound_ok: bool
    per_case_checks: tuple[PerCaseCheck, ...]
    aggregate_lhs: float  # T3(g), raw
    aggregate_rhs: float  # T3(f_W) - (eps^5/1024p^2)|W|^2 T3(V' reps), raw
    t3_v_prime_reps: int
    aggregate_ok: bool

    def all_cases_pass(self) -> bool:
        return all(c.passed for c in self.per_case_checks)

    def to_dict(self) -> dict:
        return {
            "A": list(self.A.members),
            "V": self.V.describe(),
            "W": self.W.describe(),
            "V_cap_W_dim": self.V_cap_W_dim,
            "transversal_size": self.transversal_size,
            "V_prime": list(self.V_prime),
            "ell": self.ell,
            "beta": self.beta,
            "lambda3_f": self.lambda3_f,
            "lambda3_fW": self.lambda3_fW,
            "lambda3_g": self.lambda3_g,
            "delta_used": self.delta_used,
            "hypothesis_value": self.hypothesis_value,
            "hypothesis_holds": self.hypothesis_holds,
            "v_prime_bound_ok": self.v_prime_bound_ok,
            "per_case_checks": [
                {
                    "reps": list(c.reps),
                    "all_in_v_prime": c.all_in_v_prime,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "base": c.base,
                    "passed": c.passed,
                }
                for c in self.per_case_checks
            ],
            "aggregate_lhs": self.aggregate_lhs,
            "aggregate_rhs": self.aggregate_rhs,
            "t3_v_prime_reps": self.t3_v_prime_reps,
            "aggregate_ok": self.aggregate_ok,
        }


def delta_from_epsilon(epsilon: float, p: int, c_p: float) -> float:
    """(eps^6 / 2^13 p^2) * exp(-16 c_p log(p) / eps)."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    if c_p <= 0.0:
        raise ValueError(f"c_p must be positive, got {c_p}")
    return (epsilon**6 / (2**13 * p**2)) * math.exp(-16.0 * c_p * math.log(p) / epsilon)


def build_W(f: DensityFunction, delta: float):
    """A = large spectrum, V = span(A), W = V^perp."""
    a = fourier.large_spectrum(f, delta)
    v = sub.span(f.params, list(a.members))
    w = sub.orthogonal_complement(v)
    return a, v, w


def choose_ell(epsilon: float, p: int) -> int:
    """The unique ell >= 1 with 4/eps <= p^ell < 4p/eps."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    ell = 1
    while epsilon * p**ell < 4.0:
        ell += 1
    return ell


def select_v_prime(
    fw: DensityFunction,
    w: sub.Subspace,
    epsilon: float,
    dec: sub.CosetDecomposition | None = None,
) -> list[int]:
    """Transversal reps of the cosets where f_W is in [eps/4, 1 - eps/4].

    Endpoints are inclusive.  Raises if fw is not coset-constant.
    """
    if dec is None:
        dec = sub.coset_decomposition(w)
    vals = sub.coset_values(fw, dec)
    lo, hi = epsilon / 4.0, 1.0 - epsilon / 4.0
    return [rep for rep, v in zip(dec.transversal, vals) if lo <= v <= hi]


def _progression_cols(p: int, dim: int) -> np.ndarray:
    """(p^dim, p^dim) array: entry [c1, c2] is the index of 2 c2 - c1 in F_p^dim."""
    cols = np.arange(p**dim)
    return sub_indices(scale_map(p, dim, 2)[None, :], cols[:, None], GroupParams(p, dim))


def _case_sum(vals: np.ndarray, i: int, j: int, k: int, c3: np.ndarray) -> float:
    """fsum over (c1, c2) of (v[i, c1] v[j, c2]) v[k, c3[c1, c2]] for per-coset rows v."""
    terms = (vals[i][:, None] * vals[j][None, :]) * vals[k][c3]
    return math.fsum(terms.ravel().tolist())


def construct_g(
    f: DensityFunction, config: ImprovePipelineConfig
) -> tuple[DensityFunction, ImprovementReport]:
    """Build g from f per the spectral pipeline and audit every inequality."""
    params = f.params
    p = params.p
    eps = config.epsilon

    delta = (
        config.delta_override
        if config.delta_override is not None
        else delta_from_epsilon(eps, p, config.c_p)
    )
    a_set, v_space, w_space = build_W(f, delta)
    fw = sub.average_over_cosets(f, w_space)
    dec = sub.coset_decomposition(w_space)
    v_prime = select_v_prime(fw, w_space, eps, dec)
    ell = choose_ell(eps, p)
    if ell > w_space.dim:
        raise ValueError(
            f"dim(W) = {w_space.dim} < ell = {ell}: the spectrum is too rich for "
            f"epsilon = {eps}; raise delta or epsilon"
        )

    # Columns of dec.rows are coordinates on W; S = the canonical codim-ell
    # subspace picks the same columns in every coset, and T = W \ S the rest.
    rows = dec.rows
    s_cols = np.isin(rows[0], sub.canonical_codim_subspace(w_space, ell).elements())
    beta = 1.0 - float(p) ** (-ell)

    # g agrees with f_W off V'; on a V' coset it is beta^-1 f_W on the
    # T-part of the coset and 0 on the S-part.  f_W <= 1 - eps/4 on V' and
    # beta >= 1 - eps/4, so g stays in [0,1].
    g_vals = np.array(fw.values)
    vp_pos = dec.rep_pos[np.array(v_prime, dtype=np.int64)]
    scaled = sub.coset_values(fw, dec)[vp_pos] / beta
    if np.any(scaled > 1.0 + MEAN_TOL):
        raise ValueError("scaled coset value exceeds 1; V' selection violated")
    g_vals[rows[vp_pos]] = np.where(s_cols, 0.0, np.minimum(scaled, 1.0)[:, None])
    g = DensityFunction(params, g_vals)

    # Per-case inequality audit over all coset-AP triples of reps.  The
    # transversal is itself a subspace, so u3 = 2u2 - u1 is again a rep, and
    # with m = u1 + c1, m + d = u2 + c2 in W coordinates, m + 2d = u3 + c3
    # with c3 = 2c2 - c1.  Each case sums the products (f(m) f(m+d)) f(m+2d)
    # that t3_restricted sums on the three cosets.
    c3 = _progression_cols(p, w_space.dim)
    fw_rows, g_rows = fw.values[rows], g.values[rows]
    two_reps = scale_map(p, params.n, 2)[rows[:, 0]]
    in_vp = np.zeros(len(rows), dtype=bool)
    in_vp[vp_pos] = True
    factor = 1.0 - eps**2 / (16.0 * p**2)
    checks = []
    for i, u1 in enumerate(dec.transversal):
        third = dec.rep_pos[sub_indices(two_reps, u1, params)]
        for j, u2 in enumerate(dec.transversal):
            k = int(third[j])
            base = _case_sum(fw_rows, i, j, k, c3)
            lhs = _case_sum(g_rows, i, j, k, c3)
            inside = bool(in_vp[i] and in_vp[j] and in_vp[k])
            if inside:
                rhs = base * factor
                passed = lhs <= rhs + CHECK_TOL
            else:
                rhs = base
                passed = abs(lhs - base) <= CHECK_TOL
            checks.append(
                PerCaseCheck(
                    reps=(u1, u2, dec.transversal[k]),
                    all_in_v_prime=inside,
                    lhs=lhs,
                    rhs=rhs,
                    base=base,
                    passed=passed,
                )
            )

    lambda3_f = fourier.lambda3_spectral(f)
    lambda3_fw = fourier.lambda3_spectral(fw)
    lambda3_g = fourier.lambda3_spectral(g)

    hyp_val = math.fsum(np.abs(f.values - fw.values)) / params.size
    hyp = hyp_val > eps
    v_prime_ok = (not hyp) or (2 * len(v_prime) > eps * len(dec.transversal))

    t3_vp = apcount.count_raw(PointSet(params, tuple(v_prime)))
    w_size = rows.shape[1]
    norm = float(params.size) ** 2
    agg_lhs = lambda3_g * norm
    agg_rhs = lambda3_fw * norm - (eps**5 / (1024.0 * p**2)) * w_size**2 * t3_vp
    agg_ok = agg_lhs <= agg_rhs + AGGREGATE_REL_TOL * max(1.0, abs(lambda3_fw * norm))

    report = ImprovementReport(
        A=a_set,
        V=v_space,
        W=w_space,
        V_cap_W_dim=sub.intersect(v_space, w_space).dim,
        transversal_size=len(dec.transversal),
        V_prime=tuple(v_prime),
        ell=ell,
        beta=beta,
        lambda3_f=lambda3_f,
        lambda3_fW=lambda3_fw,
        lambda3_g=lambda3_g,
        delta_used=delta,
        hypothesis_value=hyp_val,
        hypothesis_holds=hyp,
        v_prime_bound_ok=v_prime_ok,
        per_case_checks=tuple(checks),
        aggregate_lhs=agg_lhs,
        aggregate_rhs=agg_rhs,
        t3_v_prime_reps=t3_vp,
        aggregate_ok=agg_ok,
    )
    return g, report
