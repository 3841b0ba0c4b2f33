"""GF(p) linear algebra: spans, orthogonal complements, coset layouts,
coset averaging, and the two per-set subgroup scans: the coset-structure
diagnostic for candidate minimizers and the Varnavides subgroup-averaging
bound.  One guard, `_check_scan`, refuses either scan on F_p^1 and
over more than DEFAULT_MAX_SUBSPACES subspaces.

One builder, `coset_rows`, lays out the cosets of one subspace W, whole
(`coset_decomposition`) or a block of rows at a time (`coset_blocks`, of
`gfspace.BLOCK` entries): coset averaging and the rounding monitor walk
the blocks, holding one, never a p^n layout.

Both scans read the coset sizes |S ∩ (t+W)| from S's coefficients on
V = W^⊥ (`coset_sizes`): one transform of S plus p^codim W per subspace,
rounded by the one rule of exact counts, `fourier.exact_counts`.

Coset representatives are NOT taken from the orthogonal complement: over
GF(p) a subspace can meet its own complement (self-orthogonal vectors,
e.g. (1,2) in F_5^2), so "v + W, v in V" need not be a transversal.  We
use the pivot-free coordinate subspace U instead, which always satisfies
U (+) W = F_p^n.
"""

from __future__ import annotations

import itertools
import math
import operator
from types import SimpleNamespace
from typing import Iterable, Iterator

import numpy as np

from . import gfspace
from .gfspace import DensityFunction, GroupParams, PointSet, index_to_digits, seeded_rng

# Most subspaces that either per-set subgroup scan may enumerate.  It
# counts subspaces, though a scanned subspace V costs p^dim V: a budget
# on the sum of p^dim V would match the cost.
DEFAULT_MAX_SUBSPACES = 20000


def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form over GF(p); returns (rref rows, pivot cols)."""
    m = np.array(mat, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * _inv_mod(int(m[r, c]), p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], tuple(pivots)


class Subspace:
    """A subspace of F_p^n held as a canonical reduced row-echelon basis."""

    def __init__(self, params: GroupParams, basis: np.ndarray, pivots: tuple[int, ...]) -> None:
        b = np.array(basis, dtype=np.int64).reshape(-1, params.n) % params.p
        b.setflags(write=False)
        self.params, self.basis, self.pivots = params, b, pivots

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.basis, other.basis)

    def __hash__(self) -> int:
        return hash((self.params, self.basis.tobytes()))

    def elements(self) -> np.ndarray:
        """Sorted indices of all p^dim members."""
        return np.sort(next(coset_rows(self.basis, self.pivots, self.params, 1))[0])

    def describe(self) -> str:
        rows = "; ".join(
            "(" + ",".join(str(int(x)) for x in row) + ")" for row in self.basis
        )
        return f"dim {self.dim}; basis: {rows}" if self.dim else "dim 0; basis:"


def _integer(x) -> int | None:
    """x as an int, or None for a bool or any value `operator.index`
    refuses, such as a float or a str."""
    if isinstance(x, (bool, np.bool_)):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def span(params: GroupParams, generators: Iterable) -> Subspace:
    """GF(p) span of the given generators: element indices, or digit rows
    of n digits each in [0, p), never reduced mod p.  Indices and digits
    are integers, not bools or floats.  Any other generator raises
    ValueError."""
    p, n = params.p, params.n
    rows = []
    for g in generators:
        if (i := _integer(g)) is not None:
            g = index_to_digits(i, params)
        try:
            g = list(g)
        except TypeError:  # neither an index nor a row, such as 1.5 or True
            g = [g]
        row = [_integer(x) for x in g]
        if len(row) != n or not all(d is not None and 0 <= d < p for d in row):
            raise ValueError(
                f"generator ({','.join(map(str, g))}) is not in F_{p}^{n}: "
                f"it needs {n} digits, each in [0, {p})"
            )
        rows.append(row)
    basis, pivots = rref_mod_p(np.array(rows, dtype=np.int64).reshape(-1, n), p)
    return Subspace(params, basis, pivots)


def orthogonal_complement(v: Subspace) -> Subspace:
    """Null space of the basis matrix under the standard dot product mod p."""
    params = v.params
    p, n = params.p, params.n
    free = [c for c in range(n) if c not in v.pivots]
    null_rows = np.zeros((len(free), n), dtype=np.int64)
    for r, c in enumerate(free):
        null_rows[r, c] = 1
        for i, piv in enumerate(v.pivots):
            null_rows[r, piv] = (-int(v.basis[i, c])) % p
    basis, pivots = rref_mod_p(null_rows, p)
    return Subspace(params, basis, pivots)


def _span_sums(coeffs: np.ndarray, p: int) -> np.ndarray:
    """(..., p^dim) sums sum_j c_j coeffs[..., j], not reduced mod p, over
    the (..., dim) coeffs, for every c in little-endian order (c_0
    fastest)."""
    lead = coeffs.shape[:-1]
    sums = np.zeros(lead + (1,), dtype=np.int64)
    steps = np.arange(p, dtype=np.int64)[:, None]
    for j in range(coeffs.shape[-1]):
        sums = (steps * coeffs[..., j, None, None] + sums[..., None, :]).reshape(lead + (-1,))
    return sums


def coset_rows(
    basis: np.ndarray, pivots: tuple[int, ...], params: GroupParams, max_rows: int | None = None
) -> Iterator[np.ndarray]:
    """The (|T|, |W|) coset layout of the subspace W with the (dim, n)
    echelon basis and pivot columns given, as consecutive blocks of at most
    max_rows rows (default: one block), each built when asked for: the
    rows of `coset_decomposition`.

    Column c holds w = sum_j c_j b_j, whose pivot coordinates are the c_j;
    on the free coordinate k = free[r] the entry's digit is (t_r + w_k)
    mod p for digit t_r of the row index.  A block is one or more runs of
    p^low consecutive rows: the first run, laid out once in place, a
    coordinate and a digit value at a time, plus what the digits from
    `low` up add in each run.
    """
    p, free = params.p, [k for k in range(params.n) if k not in pivots]
    low = len(free)
    while max_rows and p**low > max_rows:
        low -= 1
    rows = np.zeros((p**low, p ** len(pivots)), dtype=np.int64)
    for k in pivots:
        rows += _span_sums(basis[:, k], p) * p**k
    for r, k in enumerate(free[:low]):
        w_k = _span_sums(basis[:, k], p)
        by_digit = rows.reshape(p ** (low - r - 1), p, p**r, -1)
        for t in range(p):
            by_digit[:, t] += (w_k + t) % p * p**k
    if low == len(free):
        yield rows
        return
    high = [_span_sums(basis[:, k], p) for k in free[low:]]
    step = max_rows // p**low
    for q in range(0, p ** len(high), step):
        digits = np.arange(q, p ** len(high))[:step, None]
        block = 0
        for i, w_k in enumerate(high):
            block = block + (w_k + digits // p**i) % p * p ** free[low + i]
        yield (rows + block[:, None]).reshape(-1, rows.shape[1])


def coset_decomposition(w: Subspace) -> np.ndarray:
    """W's read-only (|T|, |W|) coset layout over the canonical transversal
    U (+) W = F_p^n.

    Transversal representatives have zeros in all pivot coordinates of W's
    basis; they form the subspace spanned by the non-pivot coordinate axes
    and are column 0.  Row i is the coset rows[i, 0] + W, whose
    representative has the little-endian base-p digits of i on the
    non-pivot axes in ascending order.  So row indices, all below p^k for
    k = codim W, are the coordinates of the quotient F_p^n / W = F_p^k
    with zero digits above k, and `combine` on F_p^n of row indices is the
    row of the same combination of representatives.  Column c holds
    rows[i, 0] + sum_j c_j b_j for the little-endian base-p digits c_j of c
    and W's echelon rows b_j, so every row is an affine copy of
    F_p^(dim W) in the same coordinates.
    """
    rows = next(coset_rows(w.basis, w.pivots, w.params))
    rows.setflags(write=False)
    return rows


def coset_blocks(w: Subspace) -> Iterator[np.ndarray]:
    """`coset_decomposition`'s rows in order, as blocks of at most
    `gfspace.BLOCK` entries (at least one row), each built when asked for,
    so a caller holds one block, never the p^n layout."""
    max_rows = max(1, gfspace.BLOCK // w.params.p**w.dim)
    yield from coset_rows(w.basis, w.pivots, w.params, max_rows)


def coset_means(f: DensityFunction, rows: np.ndarray) -> np.ndarray:
    """Mean of f on each row of the (|T|, |W|) coset layout `rows` (as
    `coset_decomposition` returns it, or a block of it), in row order.

    Rows are gathered a block of at most `gfspace.BLOCK` values at a
    time, so only one block's values and Python floats exist at once.  A
    row that is already constant keeps its value bit-for-bit; mixed rows
    are fsummed.
    """
    width = rows.shape[1]
    means = np.empty(len(rows))
    step = max(1, gfspace.BLOCK // width)
    for start in range(0, len(rows), step):
        vals = f.values[rows[start : start + step]]
        block = means[start : start + step]
        block[:] = vals[:, 0]
        mixed = np.flatnonzero((vals != vals[:, :1]).any(axis=1))
        sums = np.fromiter(map(math.fsum, vals[mixed].tolist()), np.float64, len(mixed))
        block[mixed] = sums / width
    return means


def average_over_cosets(f: DensityFunction, w: Subspace) -> DensityFunction:
    """f_W(m) = |W|^-1 sum_{w in W} f(m+w), constant on each coset of W:
    the coset means of `coset_means`, laid out and written a block of
    cosets at a time, so that no p^n layout exists."""
    values = np.empty(f.params.size)
    for rows in coset_blocks(w):
        values[rows] = coset_means(f, rows)[:, None]
    return DensityFunction(f.params, values)


def subspace_blocks(
    params: GroupParams, dim: int
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """All subspaces of the given dimension as blocks (pivots, (N, dim, n)
    canonical echelon bases) that share their pivot columns, pivot tuples in
    lex order.  N * p^dim stays within `gfspace.BLOCK` unless a single
    subspace exceeds it: `coset_sizes` of a block holds N * p^dim
    numbers."""
    p, n = params.p, params.n
    if not 0 <= dim <= n:
        raise ValueError(f"dim={dim} out of range [0, {n}]")
    per_block = max(1, gfspace.BLOCK // p**dim)
    for pivots in itertools.combinations(range(n), dim):
        # Entries right of a pivot and outside the pivot columns are free,
        # counted in base p with the last entry fastest.
        free = [
            (i, c)
            for i in range(dim)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        total = p ** len(free)
        for start in range(0, total, per_block):
            count = min(per_block, total - start)
            bases = np.zeros((count, dim, n), dtype=np.int64)
            for i, piv in enumerate(pivots):
                bases[:, i, piv] = 1
            code = np.arange(start, start + count, dtype=np.int64)
            for i, c in reversed(free):
                bases[:, i, c] = code % p
                code //= p
            yield pivots, bases


def coset_sizes(s_hat: np.ndarray, params: GroupParams, bases: np.ndarray) -> np.ndarray:
    """The (N, p^k) int64 sizes |S ∩ (t+W)| of the cosets of W = V^⊥ for
    N k-dim subspaces V, from their (N, k, n) bases B (a block of
    `subspace_blocks`) and S's coefficients s_hat (`fourier.dft_forward`
    of its indicator).  Entry u of row i is the coset of every t with
    B_i t = u, for u read as a little-endian index of F_p^k.

    Since [B m = u] = p^-k sum_c omega^(c.(B m - u)) over c in F_p^k, the
    size is p^-k sum_c omega^(-c.u) s_hat(c B): s_hat gathered at the p^k
    points c B of V, then one p^k `fourier.inverse` per subspace, rounded
    to integers by `fourier.exact_counts`.
    """
    from . import fourier  # here, not at the top: `average` loads no fourier

    p, k = params.p, bases.shape[1]
    points = np.zeros((len(bases), p**k), dtype=np.int64)
    for j in range(params.n):
        points += _span_sums(bases[:, :, j], p) % p * p**j
    return fourier.exact_counts(fourier.inverse(s_hat[points], p, k).real)


def count_subspaces(params: GroupParams, dim: int) -> int:
    """Gaussian binomial [n choose dim]_p."""
    p, n = params.p, params.n
    num = den = 1
    for i in range(dim):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _check_scan(
    params: GroupParams, name: str, value: int, low: int, dims: Iterable[int]
) -> None:
    """Refuse a per-set subgroup scan, in this order: on F_p^1, which has
    nothing to scan; with its parameter `name` = value outside [low, n];
    and over more than DEFAULT_MAX_SUBSPACES subspaces of the dimensions
    `dims`, which are read only once the range holds."""
    p, n = params.p, params.n
    if n == 1:
        raise ValueError(f"n = 1: F_{p}^1 = Z_{p} has no subspaces except 0 and Z_{p}")
    if not low <= value <= n:
        raise ValueError(f"{name}={value} out of range [{low}, {n}]")
    total = sum(count_subspaces(params, dim) for dim in dims)
    if total > DEFAULT_MAX_SUBSPACES:
        raise ValueError(f"{total} subspaces to enumerate exceeds budget {DEFAULT_MAX_SUBSPACES}")


def structure_report(s: PointSet, max_codim: int) -> SimpleNamespace:
    """For each subspace W of codimension <= max_codim, choose A by per-coset
    majority vote and measure |S delta (A+W)|; return the minimizing W's row
    as a `structure_report` of reports.schema.json.

    W = {0} (codim n) trivially achieves difference 0, so the best W of
    positive dimension, which codimension 0 (dim W = n >= 1) always
    supplies, is reported alongside the overall minimizer.

    Each W is scored from `coset_sizes` of V = W^⊥, codims ascending and
    then in `subspace_blocks(params, codim)` order of V; the first
    minimizer in that order wins a tie.  Only a new best W's cosets are
    laid out, to read its A.
    """
    from . import fourier  # here, not at the top: `average` loads no fourier

    params = s.params
    n = params.n
    _check_scan(params, "max_codim", max_codim, 0, range(n - max_codim, n + 1))

    s_mask = s.mask()
    s_hat = fourier.dft_forward(s.density())
    best = best_pos = None
    for codim in range(max_codim + 1):
        w_size = params.p ** (n - codim)
        for pivots, bases in subspace_blocks(params, codim):
            sizes = coset_sizes(s_hat, params, bases)
            sds = np.minimum(sizes, w_size - sizes).sum(axis=-1)
            i = int(np.argmin(sds))
            sd = int(sds[i])
            new_best = best is None or sd < best.symmetric_difference
            new_pos = codim < n and (best_pos is None or sd < best_pos.symmetric_difference)
            if not (new_best or new_pos):
                continue
            w = orthogonal_complement(Subspace(params, bases[i], pivots))
            rows = coset_decomposition(w)
            row = SimpleNamespace(
                W=w,
                A_reps=tuple(rows[2 * s_mask[rows].sum(axis=1) > w_size, 0].tolist()),
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


def _dense_cosets(sizes: np.ndarray, coset_size: int, size: int, s_size: int) -> int:
    """How many cosets t + A hold at least alpha |A| / 2 points of S, with
    alpha = |S| / p^n, from their sizes |S ∩ (t + A)|.

    The test is size >= c for c = ceil(|S| |A| / 2p^n) <= |A|, so the floor
    quotient of size + |A| + 1 - c by |A| + 1 is 1 on a dense coset and 0
    on the others.  A comparison would run a numpy loop that nothing else
    in a varnavides job runs, and paging in its code adds 0.13 MB to the
    job's peak RSS (numpy 2.4, x86-64 Linux)."""
    c = -(-s_size * coset_size // (2 * size))
    return int(((sizes + (coset_size + 1 - c)) // (coset_size + 1)).sum())


def varnavides_estimate(
    s: PointSet,
    m_dim: int,
    samples: int = 0,
    seed: int | None = None,
    exhaustive: bool = False,
) -> SimpleNamespace:
    """The Varnavides subgroup-averaging bound for subgroups of dimension
    m_dim, with the share of dense cosets, as a `varnavides_report` of
    reports.schema.json.

    Averaged over every m-dim subgroup, the nontrivial per-coset counts
    scaled by p^(n-m) are exactly the lower bound
    (p^m - 1) p^(n-m) / (p^n - 1) * T3'(S) <= T3'(S): a nontrivial 3-AP
    with difference d lies in one coset of each subgroup that contains d,
    and those are the fraction (p^m - 1) / (p^n - 1) of all subgroups.
    Both modes compute this bound from one count of S.

    The subgroups A are scanned only to decide which cosets are dense for
    dense_coset_fraction, whose denominator is the closed form
    sampled_subgroups * p^(n-m).  The coset sizes come from `coset_sizes`,
    one transform of S read through each A's annihilator A^⊥: with
    exhaustive=True every subgroup, as the A^⊥ in blocks from
    `subspace_blocks(params, n - m)`; otherwise `samples` subgroups drawn
    uniformly (via uniform ordered independent generator tuples,
    resampled on dependence), each A^⊥ a block of one.  A uniform
    subgroup holds each d != 0 with probability (p^m - 1) / (p^n - 1), so
    the bound is the expected sampled average, reported without its
    sampling error.
    """
    # Neither is imported at module level: `average`, `improve` and
    # `round` jobs load `subspace` but run no scan.
    from fractions import Fraction

    from . import fourier

    params = s.params
    p, n = params.p, params.n
    # `samples` bounds the sampled scan.
    _check_scan(params, "m_dim", m_dim, 1, [m_dim] if exhaustive else ())
    if not exhaustive and samples < 1:
        raise ValueError("samples must be >= 1 unless exhaustive")

    def sampled_blocks() -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        rng = seeded_rng(seed)
        for _ in range(samples):
            while True:
                a = span(params, [rng.randrange(params.size) for _ in range(m_dim)])
                if a.dim == m_dim:
                    break
            v = orthogonal_complement(a)
            yield v.pivots, v.basis[None]

    s_hat = fourier.dft_forward(s.density())
    coset_size = p**m_dim
    dense = 0
    for _, bases in subspace_blocks(params, n - m_dim) if exhaustive else sampled_blocks():
        dense += _dense_cosets(coset_sizes(s_hat, params, bases), coset_size, params.size, len(s))
    t3 = fourier.count_raw(s) - len(s)
    bound = Fraction(t3 * (coset_size - 1) * p ** (n - m_dim), params.size - 1)
    subgroups = count_subspaces(params, m_dim) if exhaustive else samples
    return SimpleNamespace(
        m_dim=m_dim,
        sampled_subgroups=subgroups,
        dense_coset_fraction=dense / (subgroups * p ** (n - m_dim)),
        certified_lower_bound=float(bound),
        certified_lower_bound_exact=bound,
        alpha=len(s) / params.size,
        exhaustive=exhaustive,
    )
