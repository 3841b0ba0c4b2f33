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
from types import SimpleNamespace

import numpy as np

from .gfspace import DensityFunction, combine
from . import fourier
from . import subspace as sub

CHECK_TOL = 1e-9
MEAN_TOL = 1e-12
AGGREGATE_REL_TOL = 1e-6

# One case as json.dump(indent=2, sort_keys=True) writes it in a list that
# is a top-level value: keys sorted, the case dict at depth 2.
_CASE_JSON = (
    '\n    {\n      "all_in_v_prime": %s,\n      "base": %s,\n      "lhs": %s,'
    '\n      "passed": %s,\n      "reps": [\n        %d,\n        %d,\n        %d\n      ],'
    '\n      "rhs": %s\n    }'
)
# Rows formatted per write; larger blocks raise peak RSS for no speed.
CASE_BLOCK = 256
_JSON_BOOLS = np.array(["false", "true"], dtype=object)


class CaseTable:
    """Every coset-AP triple of transversal reps and its inequality status,
    one entry per case in row-major (u1, u2) order."""

    def __init__(self, reps, all_in_v_prime, lhs, rhs, base, passed) -> None:
        self.reps = reps  # (|T|^2, 3): u1, u2 and u3 = 2u2 - u1
        self.all_in_v_prime = all_in_v_prime
        self.lhs = lhs  # T3(g | the three cosets)
        self.rhs = rhs  # bound: base*(1 - eps^2/16p^2) inside V', base outside
        self.base = base  # T3(f_W | the three cosets)
        self.passed = passed

    def write_json(self, fh) -> None:
        """Write the cases as json.dump(indent=2, sort_keys=True) writes
        their list of per-case dicts as a top-level value of a report, one
        block of CASE_BLOCK rows per write."""
        n = len(self.passed)
        if n == 0:
            fh.write("[]")
            return
        base, lhs, rhs = (_json_floats(x) for x in (self.base, self.lhs, self.rhs))
        sep = "["
        for start in range(0, n, CASE_BLOCK):
            rows = slice(start, start + CASE_BLOCK)
            cells = np.empty((len(base[rows]), 8), dtype=object)
            cells[:, 0] = _JSON_BOOLS[self.all_in_v_prime[rows].view(np.uint8)]
            cells[:, 1] = base[rows]
            cells[:, 2] = lhs[rows]
            cells[:, 3] = _JSON_BOOLS[self.passed[rows].view(np.uint8)]
            cells[:, 4:7] = self.reps[rows]
            cells[:, 7] = rhs[rows]
            fmt = ",".join([_CASE_JSON] * len(cells))
            fh.write(sep + fmt % tuple(cells.ravel().tolist()))
            sep = ","
        fh.write("\n  ]")


def _json_floats(x: np.ndarray) -> np.ndarray:
    """What json writes for each float64 of 1-D x, as an object array of
    str that formats each distinct bit pattern once.

    Distinct values are taken on the bits, not by float equality, which
    keeps -0.0 apart from 0.0.
    """
    bits, pos = np.unique(x.view(np.uint64), return_inverse=True)
    vals = bits.view(np.float64)
    text = np.array(list(map(float.__repr__, vals.tolist())), dtype=object)
    text[np.isnan(vals)] = "NaN"
    text[vals == np.inf] = "Infinity"
    text[vals == -np.inf] = "-Infinity"
    return text[pos]


def delta_from_epsilon(epsilon: float, p: int, c_p: float) -> float:
    """(eps^6 / 2^13 p^2) * exp(-16 c_p log(p) / eps); raises ValueError
    where that underflows to 0.0 (a subnormal result is returned)."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    if c_p <= 0.0:
        raise ValueError(f"c_p must be positive, got {c_p}")
    delta = (epsilon**6 / (2**13 * p**2)) * math.exp(-16.0 * c_p * math.log(p) / epsilon)
    if delta == 0.0:
        raise ValueError(f"default delta underflows at epsilon = {epsilon}, p = {p}: pass --delta")
    return delta


def build_W(f: DensityFunction, delta: float):
    """A = large spectrum, V = span(A), W = V^perp."""
    a = fourier.large_spectrum(fourier.dft_forward(f), delta, f.params)
    v = sub.span(f.params, list(a.members))
    w = sub.orthogonal_complement(v)
    return a, v, w


def choose_ell(epsilon: float, p: int) -> int:
    """The unique ell >= 1 with 4/eps <= p^ell < 4p/eps.

    eps * p^ell is compared in floats; once p^ell is past the float range,
    which needs eps < 4p / 2^1024, it is compared exactly.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    num, den = epsilon.as_integer_ratio()
    ell = 1
    while True:
        try:
            if epsilon * p**ell >= 4.0:
                return ell
        except OverflowError:
            if num * p**ell >= 4 * den:
                return ell
        ell += 1


def select_v_prime(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Mask of the cosets whose f_W value lies in [eps/4, 1 - eps/4].

    `values` holds one f_W value per coset; endpoints are inclusive.
    """
    return (epsilon / 4.0 <= values) & (values <= 1.0 - epsilon / 4.0)


def case_counts(w_size: int, t_size: int) -> np.ndarray:
    """N[j] = #{(c1, c2) in W^2: c1, c2 and c3 = 2 c2 - c1 each lie in their
    row's support}, for a case with j of its three rows supported on
    T = W \\ S (S a subspace) and the others on W.

    One T row in any position gives |T||W| (c1 -> 2 c2 - c1 is a bijection),
    two give |T|^2 (any two of c1, c2, c3 fix the third), and three give
    T3(T) = 2|T|^2 - |T||W|.
    """
    return np.array(
        [w_size**2, t_size * w_size, t_size**2, 2 * t_size**2 - t_size * w_size],
        dtype=np.int64,
    )


def audit_cases(
    fw: DensityFunction,
    g: DensityFunction,
    dec: sub.CosetDecomposition,
    in_vp: np.ndarray,
    s_cols: np.ndarray,
    epsilon: float,
) -> CaseTable:
    """Check T3(g) against T3(f_W) on every coset-AP triple of reps.

    The transversal is itself a subspace, so u3 = 2u2 - u1 is again a rep,
    and with m = u1 + c1, m + d = u2 + c2 in W coordinates, m + 2d = u3 + c3
    with c3 = 2c2 - c1.  Inside V' the bound is T3(f_W)(1 - eps^2/16p^2),
    outside it equality.  Both allow CHECK_TOL * max(1, |T3(f_W)|): off V'
    the two sums differ by the rounding of c/beta, which grows with |W|^2.

    f_W must be a constant c_r on each coset row, and g the constant a_r on
    W off V' and on the T columns (not `s_cols`) of a V' row, with 0 on its
    S columns; anything else raises RuntimeError.  Every nonzero product of
    a case with j rows in V' is then the same float x = (a_i a_j) a_k over
    N[j] = case_counts(|W|, |T|) pairs, so its fsum is the correctly
    rounded N[j] x, which is float(N[j]) * x for N[j] < 2^53.
    """
    params = fw.params
    p = params.p
    rows = dec.rows
    t = rows[:, 0]
    c = fw.values[t]
    a = g.values[rows[:, np.argmin(s_cols)]]  # each row's value on T
    built = np.where(in_vp[:, None] & s_cols, 0.0, a[:, None])
    if not (np.all(fw.values[rows] == c[:, None]) and np.array_equal(g.values[rows], built)):
        raise RuntimeError("a coset row is not the constant pattern g is built from")

    third = dec.rep_pos[combine(-1, t[:, None], 2, t[None, :], params)]
    w_size = rows.shape[1]
    counts = case_counts(w_size, w_size - int(np.count_nonzero(s_cols)))
    vp = in_vp.astype(np.int8)
    base = counts[0] * ((c[:, None] * c[None, :]) * c[third])
    lhs = counts[vp[:, None] + vp[None, :] + vp[third]] * ((a[:, None] * a[None, :]) * a[third])
    inside = in_vp[:, None] & in_vp[None, :] & in_vp[third]
    factor = 1.0 - epsilon**2 / (16.0 * p**2)
    rhs = np.where(inside, base * factor, base)
    tol = CHECK_TOL * np.maximum(1.0, np.abs(base))
    passed = np.where(inside, lhs <= rhs + tol, np.abs(lhs - base) <= tol)
    reps = np.stack(np.broadcast_arrays(t[:, None], t[None, :], t[third]), axis=-1)
    return CaseTable(
        reps=reps.reshape(-1, 3),
        all_in_v_prime=inside.ravel(),
        lhs=lhs.ravel(),
        rhs=rhs.ravel(),
        base=base.ravel(),
        passed=passed.ravel(),
    )


def construct_g(
    f: DensityFunction, epsilon: float, delta: float | None = None, c_p: float = 1.0
) -> tuple[DensityFunction, SimpleNamespace]:
    """Build g from f per the spectral pipeline and audit every inequality;
    the report has the fields of `improve_report` in reports.schema.json.

    delta defaults to delta_from_epsilon(epsilon, p, c_p); c_p is used only
    for that default.
    """
    params = f.params
    p = params.p
    ell = choose_ell(epsilon, p)
    if delta is None:
        delta = delta_from_epsilon(epsilon, p, c_p)
    if ell > params.n:
        raise ValueError(
            f"n = {params.n} < ell = {ell}: S has codimension ell in W, and no W in "
            f"F_{p}^{params.n} has dimension {ell} (epsilon = {epsilon})"
        )
    a_set, v_space, w_space = build_W(f, delta)
    if ell > w_space.dim:
        raise ValueError(
            f"dim(W) = {w_space.dim} < ell = {ell}: the spectrum is too rich for "
            f"epsilon = {epsilon}; raise delta or epsilon"
        )
    dec = sub.coset_decomposition(w_space)
    rows = dec.rows
    means = sub.coset_means(f, rows)
    fw = DensityFunction(params, means[dec.rep_pos])
    in_vp = select_v_prime(means, epsilon)
    v_prime = rows[in_vp, 0].tolist()

    # Column c of a coset row adds sum_j c_j b_j over W's echelon rows b_j,
    # and S = the canonical codim-ell subspace drops the first ell of them:
    # S is the columns whose ell low base-p digits are 0, and T = W \ S the rest.
    s_cols = np.arange(rows.shape[1]) % p**ell == 0
    beta = 1.0 - float(p) ** (-ell)

    # g agrees with f_W off V'; on a V' coset it is beta^-1 f_W on the
    # T-part of the coset and 0 on the S-part.  f_W <= 1 - eps/4 on V' and
    # beta >= 1 - eps/4, so g stays in [0,1].
    scaled = means[in_vp] / beta
    if np.any(scaled > 1.0 + MEAN_TOL):
        raise ValueError("scaled coset value exceeds 1; V' selection violated")
    g_vals = np.array(fw.values)
    g_vals[rows[in_vp]] = np.where(s_cols, 0.0, np.minimum(scaled, 1.0)[:, None])
    g = DensityFunction(params, g_vals)
    checks = audit_cases(fw, g, dec, in_vp, s_cols, epsilon)

    t3_f, t3_fw, t3_g = fourier.triple_counts(
        np.stack([f.values, fw.values, g.values]), params
    ).tolist()

    hyp_val = math.fsum(np.abs(f.values - fw.values)) / params.size
    hyp = hyp_val > epsilon
    v_prime_ok = (not hyp) or (2 * len(v_prime) > epsilon * len(rows))

    # W = V^perp, so x = cB over V's echelon basis B lies in W iff
    # (B B^T) c = 0: dim(V cap W) = dim V - rank(B B^T mod p).
    gram_rank = len(sub.rref_mod_p(v_space.basis @ v_space.basis.T, p)[1])

    # The transversal is a subspace, so the inside cases are the 3-APs of V'.
    t3_vp = int(np.count_nonzero(checks.all_in_v_prime))
    w_size = rows.shape[1]
    norm = float(params.size) ** 2
    agg_rhs = t3_fw - (epsilon**5 / (1024.0 * p**2)) * w_size**2 * t3_vp
    agg_ok = t3_g <= agg_rhs + AGGREGATE_REL_TOL * max(1.0, abs(t3_fw))

    report = SimpleNamespace(
        A=a_set,
        V=v_space,
        W=w_space,
        V_cap_W_dim=v_space.dim - gram_rank,
        transversal_size=len(rows),
        V_prime=tuple(v_prime),
        ell=ell,
        beta=beta,
        lambda3_f=t3_f / norm,
        lambda3_fW=t3_fw / norm,
        lambda3_g=t3_g / norm,
        delta_used=delta,
        hypothesis_value=hyp_val,  # E(|f - f_W|) for the constructed W only
        hypothesis_holds=hyp,
        v_prime_bound_ok=v_prime_ok,
        per_case_checks=checks,
        aggregate_lhs=t3_g,  # T3(g), raw
        aggregate_rhs=agg_rhs,  # T3(f_W) - (eps^5/1024p^2)|W|^2 T3(V' reps), raw
        t3_v_prime_reps=t3_vp,
        aggregate_ok=agg_ok,
    )
    return g, report
