"""Minimization of the triple count over sets with |S| >= ceil(alpha p^n):
exhaustive at tiny scale, steepest-descent local search beyond.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .gfspace import GroupParams, PointSet, combine, scale_map, seeded_rng
from . import fourier

DEFAULT_MAX_DOMAIN = 16


def size_floor(alpha: float, size: int) -> int:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0,1], got {alpha}")
    return max(1, math.ceil(alpha * size - 1e-9))


def _search_result(
    best: PointSet, count: int, method: str, restarts: int, iterations: int, seed: int | None
) -> SimpleNamespace:
    """A `search_result` of reports.schema.json for the best set found and
    its raw triple count."""
    lambda3 = Fraction(count, best.params.size**2)
    return SimpleNamespace(
        best_set=best,
        count=count,
        lambda3=lambda3,
        lambda3_float=float(lambda3),
        method=method,
        restarts=restarts,
        iterations=iterations,
        seed=seed,
    )


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
    counts = fourier.triple_counts(masks, params)
    i = int(np.argmin(counts))
    best_count = int(counts[i])
    best = PointSet(params, tuple(combos[i].tolist()))
    # complementation identity as an internal consistency gate
    comp_count = fourier.count_raw(best.complement())
    k = len(best)
    if best_count + comp_count != n_pts**2 - 3 * k * n_pts + 3 * k**2:
        raise RuntimeError("complementation identity failed in exhaustive_min")
    return _search_result(best, best_count, "exhaustive", 0, 0, None)


def _participation(x: np.ndarray, params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """(M, E) for the set with mask x: M(v) = (x*x)(2v) counts triples with
    v in the middle, E(v) = sum_y x(y) x(2y - v) those with v first (and,
    by reversal, those with v last).

    Both are counts of pairs in S^2 from x's one transform: M(v) counts
    the (y, z) with y + z = 2v, and E(v) those with 2y - z = v.
    """
    p, n = params.p, params.n
    conv = fourier.pair_counts(x[None], params, ((1, 1), (2, -1)))
    return conv[0][scale_map(p, n, 2)], conv[1]


def _near_min(values: np.ndarray) -> np.ndarray:
    """Mask of the values at most 6 above the least one.

    Their floor quotient by 7 is 0.  A comparison with min + 6 would run a
    numpy loop that nothing else in a search job runs, and paging in its
    code adds 0.13 MB to the job's peak RSS (numpy 2.4, x86-64 Linux)."""
    return ~((values - values.min()) // 7).astype(bool)


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

    That pair term is 0-3, so a swap scores remove[u] + add[v] - count less
    0-6, and a pair can tie or beat the best swap only if
    remove[u] <= min(remove) + 6 and add[v] <= min(add) + 6.  Only those
    pairs are scored, a few rows and columns in place of the |S| x |S^c|
    table.  The candidates keep their ascending order, so the first minimum
    is the full table's.
    """
    inside, outside = np.flatnonzero(x), np.flatnonzero(~x)
    if not len(outside):
        return None, count
    add = count + 2 * e[outside] + m[outside] + 1
    remove = count - 2 * e[inside] - m[inside] + 2
    near_u, near_v = _near_min(remove), _near_min(add)
    inside, remove = inside[near_u], remove[near_u]
    outside, add = outside[near_v], add[near_v]
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
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    n_pts = params.size
    floor = size_floor(alpha, n_pts)
    rng = seeded_rng(seed)

    best_members = None
    best_count = None
    total_iters = 0
    for _ in range(restarts):
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
    return _search_result(best, best_count, "local", restarts, total_iters, seed)
