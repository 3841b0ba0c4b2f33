"""Minimization of the triple count over sets with |S| >= ceil(alpha p^n):
exhaustive at tiny scale, steepest-descent local search beyond, and the
coset-structure diagnostic for candidate minimizers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .gfspace import GroupParams, PointSet, combine, scale_map, seeded_rng
from . import apcount, fourier

DEFAULT_MAX_DOMAIN = 16
DEFAULT_MAX_SUBSPACES = 20000


def size_floor(alpha: float, size: int) -> int:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0,1], got {alpha}")
    return max(1, math.ceil(alpha * size - 1e-9))


def exhaustive_min(params: GroupParams, alpha: float) -> SimpleNamespace:
    """Global minimum of the raw triple count over all S with |S| >= floor,
    as a `search_result` of reports.schema.json.

    Adding a point raises the count by at least 1 (see `_best_move`), so
    every minimizer has size floor: one batched count of the floor-size
    subsets in lex order, whose first minimum is the lexicographically
    smallest minimizer.
    """
    n_pts = params.size
    if n_pts > DEFAULT_MAX_DOMAIN:
        raise ValueError(f"domain size {n_pts} exceeds exhaustive bound {DEFAULT_MAX_DOMAIN}")
    floor = size_floor(alpha, n_pts)
    combos = np.array(list(itertools.combinations(range(n_pts), floor)), dtype=np.int64)
    masks = np.zeros((len(combos), n_pts), dtype=bool)
    np.put_along_axis(masks, combos, True, axis=1)
    counts = apcount.t3_masks(masks, params)
    i = int(np.argmin(counts))
    best_count = int(counts[i])
    best = PointSet(params, tuple(combos[i].tolist()))
    # complementation identity as an internal consistency gate
    comp_count = apcount.count_raw(best.complement())
    k = len(best)
    if best_count + comp_count != n_pts**2 - 3 * k * n_pts + 3 * k**2:
        raise RuntimeError("complementation identity failed in exhaustive_min")
    lambda3 = Fraction(best_count, n_pts**2)
    return SimpleNamespace(
        best_set=best,
        count=best_count,
        lambda3=lambda3,
        lambda3_float=float(lambda3),
        method="exhaustive",
        restarts=0,
        iterations=0,
        seed=None,
    )


def _participation(x: np.ndarray, params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """(M, E) for the set with mask x: M(v) = (x*x)(2v) counts triples with
    v in the middle, E(v) = sum_y x(y) x(2y - v) those with v first (and,
    by reversal, those with v last).

    Both come from x's one transform t: M is the inverse of t^2 read at 2v,
    and E is the convolution of x pushed forward by y -> 2y, whose
    transform is t(2a), with x(-.), whose transform is t(-a).
    """
    p, n = params.p, params.n
    t = fourier.ntt(x, params)[0]
    prods = np.stack([t * t, t[scale_map(p, n, 2)] * t[scale_map(p, n, p - 1)]])
    conv = fourier.ntt(prods, params, inverse=True)
    return conv[0][scale_map(p, n, 2)], conv[1]


def _best_move(
    x: np.ndarray, count: int, m: np.ndarray, e: np.ndarray, params: GroupParams
) -> tuple[np.ndarray | None, int]:
    """Steepest single swap from mask x: the first strictly best one in
    (removed, added) ascending order.  Returns (new mask or None, its count).

    In odd characteristic two equal entries force the third, so adding v
    gives count + 2E(v) + M(v) + 1 and removing u gives
    count - 2E(u) - M(u) + 2; a swap u -> v also drops the triples through
    both, which have 2u - v, (u+v)/2 or 2v - u as the third entry.  An
    addition alone raises the count by at least 1, so it is never a move.
    """
    inside, outside = np.flatnonzero(x), np.flatnonzero(~x)
    if not len(outside):
        return None, count
    add = count + 2 * e[outside] + m[outside] + 1
    remove = count - 2 * e[inside] - m[inside] + 2
    h = (params.p + 1) // 2  # 1/2 mod p
    u, v = inside[:, None], outside[None, :]
    xi = x.astype(np.int64)
    pairs = (
        xi[combine(2, u, -1, v, params)]
        + xi[combine(h, u, h, v, params)]
        + xi[combine(-1, u, 2, v, params)]
    )
    swap = remove[:, None] + add[None, :] - count - 2 * pairs
    i, j = np.unravel_index(int(np.argmin(swap)), swap.shape)
    if swap[i, j] >= count:
        return None, count
    best = x.copy()
    best[inside[i]], best[outside[j]] = False, True
    return best, int(swap[i, j])


def local_min(
    params: GroupParams,
    alpha: float,
    restarts: int,
    iters: int,
    seed: int | None,
) -> SimpleNamespace:
    """Best-of-restarts steepest descent over single-point swaps, which
    keep every set at the size floor.

    Every move is scored from the participation counts of the current
    set; the recount after the move must agree with its score."""
    n_pts = params.size
    floor = size_floor(alpha, n_pts)
    rng = seeded_rng(seed)

    best_members = None
    best_count = None
    total_iters = 0
    for _ in range(max(1, restarts)):
        x = np.zeros(n_pts, dtype=bool)
        x[rng.sample(range(n_pts), floor)] = True
        m, e = _participation(x, params)
        cur_count = int(m[x].sum())
        for _ in range(iters):
            move, move_count = _best_move(x, cur_count, m, e, params)
            if move is None:
                break
            x = move
            m, e = _participation(x, params)
            cur_count = int(m[x].sum())
            if cur_count != move_count:
                raise RuntimeError(f"move scored {move_count} but recounts to {cur_count}")
            total_iters += 1
        current = tuple(int(i) for i in np.flatnonzero(x))
        if best_count is None or cur_count < best_count or (
            cur_count == best_count and current < best_members
        ):
            best_count, best_members = cur_count, current
    best = PointSet(params, best_members)
    lambda3 = Fraction(best_count, n_pts**2)
    return SimpleNamespace(
        best_set=best,
        count=best_count,
        lambda3=lambda3,
        lambda3_float=float(lambda3),
        method="local",
        restarts=max(1, restarts),
        iterations=total_iters,
        seed=seed,
    )


def structure_report(s: PointSet, max_codim: int) -> SimpleNamespace:
    """For each subspace W of codimension <= max_codim, choose A by per-coset
    majority vote and measure |S delta (A+W)|; return the minimizing W's row
    as a `structure_report` of reports.schema.json.

    W = {0} (codim n) trivially achieves difference 0, so the best W of
    positive dimension, which codimension 0 (dim W = n >= 1) always
    supplies, is reported alongside the overall minimizer.
    """
    from . import subspace as sub  # only this diagnostic lays out cosets

    params = s.params
    n = params.n
    if not 0 <= max_codim <= n:
        raise ValueError(f"max_codim={max_codim} out of range [0, {n}]")
    budget = sum(sub.count_subspaces(params, n - c) for c in range(max_codim + 1))
    if budget > DEFAULT_MAX_SUBSPACES:
        raise ValueError(
            f"{budget} subspaces to enumerate exceeds budget {DEFAULT_MAX_SUBSPACES}"
        )

    s_mask = s.mask()
    best = best_pos = None
    for codim in range(max_codim + 1):
        dim = n - codim
        w_size = params.p**dim
        for pivots, bases in sub.subspace_blocks(params, dim):
            # A block's layouts scored at once; a row is built only for the
            # first strict improvement, so the earliest minimizer wins.
            rows = sub.coset_rows(bases, pivots, params)
            inter = s_mask[rows].sum(axis=-1)
            sds = np.minimum(inter, w_size - inter).sum(axis=-1)
            i = int(np.argmin(sds))
            sd = int(sds[i])
            new_best = best is None or sd < best.symmetric_difference
            new_pos = dim >= 1 and (best_pos is None or sd < best_pos.symmetric_difference)
            if not (new_best or new_pos):
                continue
            row = SimpleNamespace(
                W=sub.Subspace(params, bases[i], pivots),
                A_reps=tuple(rows[i, 2 * inter[i] > w_size, 0].tolist()),
                symmetric_difference=sd,
                normalized=sd / params.size,
            )
            if new_best:
                best = row
            if new_pos:
                best_pos = row
    return SimpleNamespace(
        **vars(best), searched_codims=(0, max_codim), best_positive_dim=best_pos
    )
