"""Minimization of the triple count over sets with |S| >= ceil(alpha p^n):
exhaustive at tiny scale, steepest-descent local search beyond, and the
coset-structure diagnostic for candidate minimizers.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gfspace import GroupParams, PointSet, add_indices, scale_map, sub_indices
from . import apcount, fourier
from . import subspace as sub

DEFAULT_MAX_DOMAIN = 16
DEFAULT_MAX_SUBSPACES = 20000


@dataclass(frozen=True)
class SearchResult:
    best_set: PointSet
    count: int  # raw triple count, trivial included
    lambda3: Fraction
    method: str
    restarts: int
    iterations: int
    seed: int | None

    def to_dict(self) -> dict:
        return {
            "best_set": list(self.best_set.members),
            "count": self.count,
            "lambda3": str(self.lambda3),
            "lambda3_float": float(self.lambda3),
            "method": self.method,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class StructureRow:
    W: sub.Subspace
    A_reps: tuple[int, ...]
    symmetric_difference: int
    normalized: float

    def to_dict(self) -> dict:
        return {
            "W": self.W.describe(),
            "A_reps": list(self.A_reps),
            "symmetric_difference": self.symmetric_difference,
            "normalized": self.normalized,
        }


@dataclass(frozen=True)
class StructureReport:
    W: sub.Subspace
    A_reps: tuple[int, ...]
    symmetric_difference: int
    normalized: float
    searched_codims: tuple[int, int]
    best_positive_dim: StructureRow | None

    def to_dict(self) -> dict:
        return {
            "W": self.W.describe(),
            "A_reps": list(self.A_reps),
            "symmetric_difference": self.symmetric_difference,
            "normalized": self.normalized,
            "searched_codims": list(self.searched_codims),
            "best_positive_dim": (
                self.best_positive_dim.to_dict() if self.best_positive_dim else None
            ),
        }


def size_floor(alpha: float, size: int) -> int:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0,1], got {alpha}")
    return max(1, math.ceil(alpha * size - 1e-9))


def exhaustive_min(
    params: GroupParams, alpha: float, max_domain: int = DEFAULT_MAX_DOMAIN
) -> SearchResult:
    """Global minimum of the raw triple count over all S with |S| >= floor.

    Subsets are walked in size-then-lex order, one batched count per size;
    any set of size s has count at least s (trivial progressions), which
    prunes larger sizes once the incumbent beats them.  Ties go to the
    lexicographically smallest set.
    """
    n_pts = params.size
    if n_pts > max_domain:
        raise ValueError(f"domain size {n_pts} exceeds exhaustive bound {max_domain}")
    floor = size_floor(alpha, n_pts)
    best_count = None
    best_combo = None
    for s in range(floor, n_pts + 1):
        if best_count is not None and best_count <= s:
            break
        combos = np.array(list(itertools.combinations(range(n_pts), s)), dtype=np.int64)
        masks = np.zeros((len(combos), n_pts), dtype=bool)
        np.put_along_axis(masks, combos, True, axis=1)
        counts = apcount.count_raw_masks(masks, params)
        i = int(np.argmin(counts))  # first minimum: the lex-smallest of this size
        c, combo = int(counts[i]), tuple(int(v) for v in combos[i])
        if best_count is None or c < best_count or (c == best_count and combo < best_combo):
            best_count, best_combo = c, combo
    best = PointSet(params, best_combo)
    # complementation identity as an internal consistency gate
    comp_count = apcount.count_raw(best.complement())
    k = len(best)
    if best_count + comp_count != n_pts**2 - 3 * k * n_pts + 3 * k**2:
        raise RuntimeError("complementation identity failed in exhaustive_min")
    return SearchResult(
        best_set=best,
        count=best_count,
        lambda3=Fraction(best_count, n_pts**2),
        method="exhaustive",
        restarts=0,
        iterations=0,
        seed=None,
    )


def _participation(x: np.ndarray, params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """(M, E) for the set with mask x: M(v) = (x*x)(2v) counts triples with
    v in the middle, E(v) = sum_y x(y) x(2y - v) those with v first (and,
    by reversal, those with v last)."""
    p, n = params.p, params.n
    # E is the convolution of x pushed forward by y -> 2y with x(-.).
    doubled = x[scale_map(p, n, (p + 1) // 2)]
    conv = fourier.convolve_indicators(
        np.stack([x, doubled]), np.stack([x, x[scale_map(p, n, p - 1)]]), params
    )
    return conv[0][scale_map(p, n, 2)], conv[1]


def _best_move(
    x: np.ndarray, count: int, m: np.ndarray, e: np.ndarray, params: GroupParams
) -> tuple[np.ndarray | None, int]:
    """Steepest single move from mask x: the first strictly best swap in
    (removed, added) ascending order, replaced by an addition only when
    that is strictly better still.  Returns (new mask or None, its count).

    In odd characteristic two equal entries force the third, so adding v
    gives count + 2E(v) + M(v) + 1 and removing u gives
    count - 2E(u) - M(u) + 2; a swap u -> v also drops the triples through
    both, which have 2u - v, (u+v)/2 or 2v - u as the third entry.
    """
    inside, outside = np.flatnonzero(x), np.flatnonzero(~x)
    add = count + 2 * e[outside] + m[outside] + 1
    best, best_count = None, count
    if len(inside) and len(outside):
        remove = count - 2 * e[inside] - m[inside] + 2
        p, n = params.p, params.n
        u, v = inside[:, None], outside[None, :]
        xi = x.astype(np.int64)
        pairs = (
            xi[sub_indices(scale_map(p, n, 2)[u], v, params)]
            + xi[scale_map(p, n, (p + 1) // 2)[add_indices(u, v, params)]]
            + xi[sub_indices(scale_map(p, n, 2)[v], u, params)]
        )
        swap = remove[:, None] + add[None, :] - count - 2 * pairs
        i, j = np.unravel_index(int(np.argmin(swap)), swap.shape)
        if swap[i, j] < best_count:
            best, best_count = x.copy(), int(swap[i, j])
            best[inside[i]], best[outside[j]] = False, True
    if len(outside):
        j = int(np.argmin(add))
        if add[j] < best_count:
            best, best_count = x.copy(), int(add[j])
            best[outside[j]] = True
    return best, best_count


def local_min(
    params: GroupParams,
    alpha: float,
    restarts: int,
    iters: int,
    seed: int | None,
) -> SearchResult:
    """Best-of-restarts steepest descent over single-point swaps and
    additions, never dropping below the size floor.

    Every move is scored from the participation counts of the current
    set; the recount after the move must agree with its score."""
    n_pts = params.size
    floor = size_floor(alpha, n_pts)
    rng = random.Random(seed)

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
    return SearchResult(
        best_set=best,
        count=best_count,
        lambda3=Fraction(best_count, n_pts**2),
        method="local",
        restarts=max(1, restarts),
        iterations=total_iters,
        seed=seed,
    )


def structure_report(
    s: PointSet, max_codim: int, max_subspaces: int = DEFAULT_MAX_SUBSPACES
) -> StructureReport:
    """For each subspace W of codimension <= max_codim, choose A by per-coset
    majority vote and measure |S delta (A+W)|; return the minimizing W.

    W = {0} (codim n) trivially achieves difference 0, so the best W of
    positive dimension is reported alongside the overall minimizer.
    """
    params = s.params
    n = params.n
    if not 0 <= max_codim <= n:
        raise ValueError(f"max_codim={max_codim} out of range [0, {n}]")
    budget = sum(sub.count_subspaces(params, n - c) for c in range(max_codim + 1))
    if budget > max_subspaces:
        raise ValueError(f"{budget} subspaces to enumerate exceeds budget {max_subspaces}")

    s_members = np.array(s.members, dtype=np.int64)
    best: StructureRow | None = None
    best_pos: StructureRow | None = None
    for codim in range(max_codim + 1):
        dim = n - codim
        w_size = params.p**dim
        for w in sub.all_subspaces(params, dim):
            dec = sub.coset_decomposition(w)
            inter = np.zeros(len(dec.transversal), dtype=np.int64)
            if len(s_members):
                np.add.at(inter, dec.rep_pos[s_members], 1)
            chosen = 2 * inter > w_size
            sd = int(np.sum(np.where(chosen, w_size - inter, inter)))
            row = StructureRow(
                W=w,
                A_reps=tuple(
                    int(rep) for rep, c in zip(dec.transversal, chosen) if c
                ),
                symmetric_difference=sd,
                normalized=sd / params.size,
            )
            if best is None or sd < best.symmetric_difference:
                best = row
            if dim >= 1 and (best_pos is None or sd < best_pos.symmetric_difference):
                best_pos = row
    return StructureReport(
        W=best.W,
        A_reps=best.A_reps,
        symmetric_difference=best.symmetric_difference,
        normalized=best.normalized,
        searched_codims=(0, max_codim),
        best_positive_dim=best_pos,
    )
