"""The triple-count decreasing pipeline: from a density f and a target
epsilon, build W from the large spectrum, locate the non-indicator
cosets, and construct a function g with E(g) = E(f) and a certified
per-case decrease of the restricted triple counts.

f_W is constant on each coset of W, and g is fixed by each coset's mean,
by whether the coset lies in V' and by ell, so every count of f_W and g
is a count on the quotient Q = F_p^n / W = F_p^(codim W), whose
coordinates are the coset rows' indices.  f_W exists only as its coset
means; only T3(f) and g's values, which are written, are full-size.

At desk scale the headline decrease budget Delta is astronomically small
(about 3e-13 already at epsilon = 1, p = 3), so the report certifies the
epsilon-scale intermediate inequalities, which are the testable content.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .gfspace import DensityFunction, GroupParams, PointSet, combine
from . import fourier, gfspace
from . import subspace as sub

CHECK_TOL = 1e-9

# The text json.dump(indent=2, sort_keys=True) writes for one case of a
# list that is a top-level value of a report (keys sorted, the case dict at
# depth 2): all_in_v_prime, base, lhs, passed, the three reps and rhs.
# Every float of a case is finite, so %r writes the repr json writes.
_CASE = (
    '\n    {\n      "all_in_v_prime": %s,\n      "base": %r,\n      "lhs": %r,'
    '\n      "passed": %s,\n      "reps": [\n        %d,\n        %d,\n        %d'
    '\n      ],\n      "rhs": %r\n    }'
)
_BOOL = ("false", "true")


class CaseTable:
    """Every coset-AP triple of transversal reps and its inequality status,
    in row-major (u1, u2) order, with `all_passed` (every case passed)
    decided from one sweep over the blocks.

    The arguments are row data in the row order of
    `subspace.coset_decomposition`, whose row indices are coordinates on
    the quotient Q = F_p^n / W: the reps t, f_W's value c and g's value a
    on T in each row, the V' mask, |W| and |T|.  g is a on a whole row off
    V', and a on T with 0 on S in a V' row, as `construct_g` lays it out
    (the tests check that layout at full size).  Every nonzero product of
    a case with j rows in V' is then the same float x = (a_i a_j) a_k over
    N[j] = case_counts(|W|, |T|) pairs, so its fsum is the correctly
    rounded N[j] x, which is float(N[j]) * x for N[j] < 2^53.

    The transversal is itself a subspace, so u3 = 2u2 - u1 is again a rep,
    and with m = u1 + c1, m + d = u2 + c2 in W coordinates, m + 2d = u3 + c3
    with c3 = 2c2 - c1.  Its row is `combine` on Q of the row indices of
    u1 and u2: codim W digit passes, with no element-to-row map.  Inside
    V' the bound is T3(f_W)(1 - eps^2/16p^2), outside it equality.  Both
    allow CHECK_TOL * max(1, |T3(f_W)|): off V' the two sums differ by the
    rounding of c/beta, which grows with |W|^2.

    The table holds O(|T|) row data, and `blocks` computes the |T|^2 cases
    from it a block of whole u1 rows at a time, so no array of |T|^2
    entries exists.
    """

    def __init__(
        self, quotient: GroupParams, t, c, a, in_vp, w_size: int, t_size: int, epsilon: float
    ) -> None:
        self.t = t  # the reps, in row order
        self.quotient = quotient
        self.c = c  # f_W on each row
        self.a = a  # g on each row's T columns
        self.in_vp = in_vp
        self.counts = case_counts(w_size, t_size)
        self.factor = 1.0 - epsilon**2 / (16.0 * quotient.p**2)
        self.all_passed = all(block.passed.all() for block in self.blocks())

    def blocks(self):
        """Yield the cases a block of whole u1 rows at a time, at most
        `gfspace.BLOCK // 8` cases (eight numbers each: three reps, base,
        lhs, rhs and two flags) unless one row has more, each block a
        namespace of columns: reps (u1, u2 and u3 = 2u2 - u1), all_in_v_prime,
        lhs = T3(g | the three cosets), rhs (the bound: base*(1 - eps^2/16p^2)
        inside V', base outside), base = T3(f_W | the three cosets) and
        passed, with the formulas and tolerance the class states."""
        t, c, a, in_vp, counts = self.t, self.c, self.a, self.in_vp, self.counts
        vp = in_vp.astype(np.int8)
        idx = np.arange(len(t))
        step = max(1, gfspace.BLOCK // 8 // len(t))
        for start in range(0, len(t), step):
            u1 = slice(start, start + step)
            third = combine(-1, idx[u1, None], 2, idx[None, :], self.quotient)
            base = counts[0] * ((c[u1, None] * c[None, :]) * c[third])
            lhs = counts[vp[u1, None] + vp[None, :] + vp[third]] * (
                (a[u1, None] * a[None, :]) * a[third]
            )
            inside = in_vp[u1, None] & in_vp[None, :] & in_vp[third]
            rhs = np.where(inside, base * self.factor, base)
            tol = CHECK_TOL * np.maximum(1.0, np.abs(base))
            passed = np.where(inside, lhs <= rhs + tol, np.abs(lhs - base) <= tol)
            reps = np.stack(np.broadcast_arrays(t[u1, None], t[None, :], t[third]), axis=-1)
            yield SimpleNamespace(
                reps=reps.reshape(-1, 3),
                all_in_v_prime=inside.ravel(),
                lhs=lhs.ravel(),
                rhs=rhs.ravel(),
                base=base.ravel(),
                passed=passed.ravel(),
            )

    def write_json(self, fh) -> None:
        write_case_blocks(fh, self.blocks())


def write_case_blocks(fh, blocks) -> None:
    """Write the cases of `blocks` (namespaces of columns, as
    `CaseTable.blocks` yields them) as json.dump(indent=2, sort_keys=True)
    writes their list of per-case dicts as a top-level value of a report.
    Each case fills the `_CASE` template, and the cases are written in
    slices of at most `gfspace.BLOCK // 64`, so that no text of a whole
    block, nor its encoded copy, is held."""
    lead, step = "[", max(1, gfspace.BLOCK // 64)
    for b in blocks:
        columns = (b.all_in_v_prime, b.base, b.lhs, b.passed, b.reps, b.rhs)
        for start in range(0, len(b.passed), step):
            cases = zip(*(col[start : start + step].tolist() for col in columns))
            text = ",".join(
                _CASE % (_BOOL[inside], base, lhs, _BOOL[passed], *reps, rhs)
                for inside, base, lhs, passed, reps, rhs in cases
            )
            fh.write(lead + text)
            lead = ","
    fh.write("[]" if lead == "[" else "\n  ]")


def delta_from_epsilon(epsilon: float, p: int) -> float:
    """The paper's delta = (eps^6 / 2^13 p^2) * exp(-16 c_p log(p) / eps)
    with its constant c_p = 1; raises ValueError where that underflows to
    0.0 (a subnormal result is returned)."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    delta = (epsilon**6 / (2**13 * p**2)) * math.exp(-16.0 * math.log(p) / epsilon)
    if delta == 0.0:
        raise ValueError(f"default delta underflows at epsilon = {epsilon}, p = {p}: pass --delta")
    return delta


def build_W(coeffs: np.ndarray, delta: float, params: GroupParams):
    """A = the large spectrum of f's coefficients, V = span(A), W = V^perp."""
    a = fourier.large_spectrum(coeffs, delta, params)
    v = sub.span(params, list(a.members))
    w = sub.orthogonal_complement(v)
    return a, v, w


def choose_ell(epsilon: float, p: int) -> int:
    """The unique ell >= 1 with 4/eps <= p^ell < 4p/eps, compared exactly:
    a float eps * p^ell can round up to 4.0 just below the boundary."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0,1], got {epsilon}")
    num, den = epsilon.as_integer_ratio()
    ell = 1
    while num * p**ell < 4 * den:
        ell += 1
    return ell


def select_v_prime(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Mask of the cosets whose f_W value lies in [eps/4, 1 - eps/4].

    `values` holds one f_W value per coset; endpoints are inclusive.
    """
    return (epsilon / 4.0 <= values) & (values <= 1.0 - epsilon / 4.0)


def s_columns(w_size: int, p: int, ell: int) -> np.ndarray:
    """Mask of S's columns in a coset row of W's layout: S, the canonical
    codim-ell subspace of W, drops W's first ell echelon rows, and column
    c adds sum_j c_j b_j over those rows b_j, so S is the columns whose
    ell low base-p digits are 0, c = 0 (mod p^ell)."""
    return np.arange(w_size) % p**ell == 0


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


def construct_g(
    f: DensityFunction, epsilon: float, delta: float | None = None
) -> tuple[DensityFunction, SimpleNamespace]:
    """Build g from f per the spectral pipeline and audit every inequality;
    the report has the fields of `improve_report` in reports.schema.json.

    delta defaults to delta_from_epsilon(epsilon, p), the paper's value
    with c_p = 1.

    T3(f) is the one count at full size, and it squares f's one transform
    after `build_W` has read the large spectrum from it.  On
    Q = F_p^n / W, with c the coset means of f (f_W's value on each row),
    each case's ratio of g's count to f_W's is exactly 1 unless all three
    of its rows lie in V', where it is 1 - 1/(p^ell - 1)^2 (see
    `case_counts`), so
    T3(f_W) = |W|^2 T3_Q(c), T3(g) = T3(f_W) - |W|^2/(p^ell - 1)^2
    T3_Q(c 1_V'), both from one float count, and T3(V' reps) = T3_Q(1_V')
    exactly.  `aggregate_ok` compares the two decrements themselves, with
    no tolerance: g's, |W|^2/(p^ell - 1)^2 T3_Q(c 1_V'), against the
    bound's, (eps^5/1024p^2)|W|^2 T3(V' reps).
    """
    params = f.params
    p = params.p
    ell = choose_ell(epsilon, p)
    if delta is None:
        delta = delta_from_epsilon(epsilon, p)
    if ell > params.n:
        raise ValueError(
            f"n = {params.n} < ell = {ell}: S has codimension ell in W, and no W in "
            f"F_{p}^{params.n} has dimension {ell} (epsilon = {epsilon})"
        )
    fhat = fourier.forward(f.values, p, params.n)  # f's one transform
    a_set, v_space, w_space = build_W(fhat[0], delta, params)
    if ell > w_space.dim:
        raise ValueError(
            f"dim(W) = {w_space.dim} < ell = {ell}: the spectrum is too rich for "
            f"epsilon = {epsilon}; raise delta or epsilon"
        )
    # The one p^n count, which squares fhat in place.
    t3_f = float(fourier.triple_counts(f.values, params, fhat)[0])
    del fhat  # used up by the count
    rows = sub.coset_decomposition(w_space)
    c = sub.coset_means(f, rows)  # f_W on each row
    in_vp = select_v_prime(c, epsilon)
    v_prime = rows[in_vp, 0].tolist()

    s_cols = s_columns(rows.shape[1], p, ell)  # T = W \ S is the rest
    beta = 1.0 - float(p) ** (-ell)

    # g agrees with f_W off V'; on a V' coset it is beta^-1 f_W on the
    # T-part of the coset and 0 on the S-part.  f_W <= 1 - eps/4 on V' and
    # beta >= 1 - eps/4, so g stays in [0,1] up to rounding, which
    # DensityFunction clips.
    g_vals = np.empty(params.size)
    g_vals[rows] = c[:, None]
    g_vals[rows[in_vp]] = np.where(s_cols, 0.0, (c[in_vp] / beta)[:, None])
    g = DensityFunction(params, g_vals)

    # Row indices are coordinates on Q, with zero digits above codim W;
    # W = F_p^n leaves one point, row 0 of F_p^1.
    quotient = GroupParams(p, max(1, params.n - w_space.dim))
    w_size, t_size = rows.shape[1], int(np.count_nonzero(~s_cols))
    a = g.values[rows[:, 1]]  # each row's value on T: 1 != 0 (mod p^ell)
    # The reps are copied, not a view that keeps `rows` alive.
    checks = CaseTable(quotient, rows[:, 0].copy(), c, a, in_vp, w_size, t_size, epsilon)

    on_q = np.zeros((2, quotient.size))
    on_q[:, : len(c)] = c, np.where(in_vp, c, 0.0)
    t3_c, t3_c_vp = fourier.triple_counts(on_q, quotient).tolist()
    t3_fw = w_size**2 * t3_c
    dec_g = w_size**2 / (p**ell - 1) ** 2 * t3_c_vp
    t3_g = t3_fw - dec_g
    t3_vp = fourier.count_raw(PointSet(quotient, np.flatnonzero(in_vp).tolist()))
    dec_bound = (epsilon**5 / (1024.0 * p**2)) * w_size**2 * t3_vp

    hyp_val = math.fsum(np.abs(f.values[rows] - c[:, None]).ravel()) / params.size
    hyp = hyp_val > epsilon
    v_prime_ok = (not hyp) or (2 * len(v_prime) > epsilon * len(rows))

    # W = V^perp, so x = cB over V's echelon basis B lies in W iff
    # (B B^T) c = 0: dim(V cap W) = dim V - rank(B B^T mod p).
    gram_rank = len(sub.rref_mod_p(v_space.basis @ v_space.basis.T, p)[1])

    norm = float(params.size) ** 2

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
        aggregate_rhs=t3_fw - dec_bound,  # T3(f_W) - (eps^5/1024p^2)|W|^2 T3(V' reps), raw
        t3_v_prime_reps=t3_vp,
        aggregate_ok=dec_g >= dec_bound,
    )
    return g, report
