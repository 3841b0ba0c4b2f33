import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ap3.cli import _write_json, main
from ap3.gfspace import DensityFunction, GroupParams, PointSet, combine, save_set
from ap3 import fourier, gfspace, rounding, subspace
from ap3.subspace import (
    average_over_cosets,
    coset_blocks,
    coset_decomposition,
    coset_means,
    coset_rows,
    coset_sizes,
    count_subspaces,
    orthogonal_complement,
    rref_mod_p,
    span,
    structure_report,
    subspace_blocks,
)

from conftest import (
    all_subspaces,
    canonical_codim_subspace,
    digit_table,
    digits_to_index,
    full_space,
    random_density,
    row_of,
)


def brute_span(params, generators):
    """Oracle: enumerate all GF(p) combinations of the generators."""
    p, n = params.p, params.n
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(generators)):
        v = [0] * n
        for c, g in zip(coeffs, generators):
            v = [(x + c * y) % p for x, y in zip(v, g)]
        out.add(digits_to_index(v, params))
    return out


class TestSpan:
    def test_dependent_generators(self):
        params = GroupParams(3, 2)
        s = span(params, [[1, 0], [2, 0]])
        assert s.dim == 1
        assert np.array_equal(s.basis, [[1, 0]])

    def test_empty(self):
        s = span(GroupParams(3, 2), [])
        assert s.dim == 0
        assert list(s.elements()) == [0]

    def test_full(self):
        params = GroupParams(3, 2)
        s = span(params, [[1, 2], [0, 1]])
        assert s.dim == 2
        assert set(s.elements()) == brute_span(params, [[1, 2], [0, 1]])

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2)])
    def test_elements_match_oracle(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(10):
            gens = [list(rng.integers(0, p, size=n)) for _ in range(2)]
            s = span(params, gens)
            assert set(int(i) for i in s.elements()) == brute_span(params, gens)

    def test_canonical(self):
        # two generating sets of the same subspace give identical bases
        params = GroupParams(5, 3)
        s1 = span(params, [[1, 2, 0], [0, 1, 1]])
        s2 = span(params, [[1, 3, 1], [0, 2, 2]])
        assert s1 == s2

    @pytest.mark.parametrize(
        "gen, shown",
        [([1, 2], "1,2"), ([1, 0, 0, 1], "1,0,0,1"), ([0, 3, 1], "0,3,1"), ([1, -1, 0], "1,-1,0")],
        ids=["too-short", "too-long", "digit-p", "negative-digit"],
    )
    def test_rejects_a_row_outside_the_group(self, gen, shown):
        # A digit is never reduced mod p: (0,3,1) would be (0,0,1) on F_3^3.
        with pytest.raises(ValueError) as exc:
            span(GroupParams(3, 3), [[1, 0, 0], gen])
        assert str(exc.value) == (
            f"generator ({shown}) is not in F_3^3: it needs 3 digits, each in [0, 3)"
        )

    @pytest.mark.parametrize(
        "gen, shown",
        [([1.7, 0], "1.7,0"), (True, "True"), ([np.float64(1.0), 0], "1.0,0")],
        ids=["float-digit", "bool-index", "numpy-float-digit"],
    )
    def test_rejects_a_non_integer(self, gen, shown):
        # A float digit is not truncated, and a bool is not an index.
        with pytest.raises(ValueError) as exc:
            span(GroupParams(3, 2), [gen])
        assert str(exc.value) == (
            f"generator ({shown}) is not in F_3^2: it needs 2 digits, each in [0, 3)"
        )

    def test_numpy_integers(self):
        params = GroupParams(5, 2)
        s = span(params, [np.int64(7), np.array([0, 1], dtype=np.int32)])
        assert s == span(params, [[2, 1], [0, 1]]) == full_space(params)


class TestOrthogonalComplement:
    def test_axes(self):
        params = GroupParams(3, 2)
        v = span(params, [[1, 0]])
        assert np.array_equal(orthogonal_complement(v).basis, [[0, 1]])

    def test_oracle_f5(self):
        # span{(1,2)}^perp in F_5^2: all 25 vectors checked for zero dot
        params = GroupParams(5, 2)
        v = span(params, [[1, 2]])
        w = orthogonal_complement(v)
        digits = digit_table(5, 2)
        expected = {
            i for i in range(25) if (digits[i][0] * 1 + digits[i][1] * 2) % 5 == 0
        }
        assert set(int(i) for i in w.elements()) == expected

    def test_trivial(self):
        params = GroupParams(3, 2)
        assert orthogonal_complement(span(params, [])).dim == 2
        assert orthogonal_complement(full_space(params)).dim == 0

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
    def test_rank_nullity_and_involution(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(10):
            gens = [list(rng.integers(0, p, size=n)) for _ in range(rng.integers(0, n + 1))]
            v = span(params, gens)
            w = orthogonal_complement(v)
            assert v.dim + w.dim == n
            assert orthogonal_complement(w) == v


class TestIntersect:
    def test_self_orthogonal(self):
        # (1,2).(1,2) = 5 = 0 mod 5: V meets its own complement, in all of V
        params = GroupParams(5, 2)
        v = span(params, [[1, 2]])
        members = set(v.elements().tolist()) & set(orthogonal_complement(v).elements().tolist())
        digits = digit_table(5, 2)
        expected = {i for i in range(25) if digits[i][1] % 5 == (2 * digits[i][0]) % 5}
        assert members == set(v.elements().tolist()) == expected


class TestCosetDecomposition:
    def test_complementary_coordinate(self):
        params = GroupParams(3, 2)
        rows = coset_decomposition(span(params, [[0, 1]]))
        assert rows[:, 0].tolist() == [0, 1, 2]  # digits (0,0),(1,0),(2,0)

    def test_full_space(self):
        params = GroupParams(3, 2)
        assert coset_decomposition(full_space(params))[:, 0].tolist() == [0]

    def test_trivial_space(self):
        params = GroupParams(3, 2)
        assert coset_decomposition(span(params, []))[:, 0].tolist() == list(range(9))

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2)])
    def test_unique_decomposition(self, p, n, rng):
        params = GroupParams(p, n)
        for _ in range(5):
            gens = [list(rng.integers(0, p, size=n)) for _ in range(2)]
            w = span(params, gens)
            rows = coset_decomposition(w)
            pos = row_of(rows)
            members = set(int(i) for i in w.elements())
            transversal = set(rows[:, 0].tolist())
            assert len(transversal) * len(members) == params.size
            for m in range(params.size):
                rep = int(rows[pos[m], 0])
                assert rep in transversal
                assert int(combine(1, m, -1, rep, params)) in members

    @pytest.mark.parametrize(
        "p,n,gens", [(3, 3, None), (5, 2, None), (5, 2, [[1, 2]]), (3, 4, None), (7, 2, None)]
    )
    def test_rows_partition_and_progressions(self, p, n, gens, rng):
        # Five random W when gens is None; span{(1,2)} in F_5^2 is
        # self-orthogonal.
        params = GroupParams(p, n)
        if gens is None:
            spaces = [
                span(params, [list(rng.integers(0, p, size=n)) for _ in range(k)])
                for k in rng.integers(0, n + 1, size=5)
            ]
        else:
            spaces = [span(params, gens)]
        digits = digit_table(p, n)
        for w in spaces:
            rows = coset_decomposition(w)
            pos = row_of(rows)
            assert rows.shape == (p ** (n - w.dim), p**w.dim)
            assert sorted(rows.ravel().tolist()) == list(range(params.size))
            transversal = rows[:, 0].tolist()
            # The representatives are zero on W's pivots, in ascending order.
            assert transversal == sorted(transversal)
            assert not digits[transversal][:, list(w.pivots)].any()
            assert set(rows[0].tolist()) == set(int(i) for i in w.elements())
            # Column p^j of the coset W is W's echelon row j.
            for j, b in enumerate(w.basis):
                assert rows[0][p**j] == digits_to_index(b, params)
            # So the codim-ell subspace that drops the first ell echelon rows
            # is the columns whose ell low base-p digits are 0.
            for ell in range(w.dim + 1):
                s = canonical_codim_subspace(w, ell).elements()
                assert np.array_equal(np.isin(rows[0], s), np.arange(p**w.dim) % p**ell == 0)
            for i, rep in enumerate(transversal):
                assert np.all(pos[rows[i]] == i)
                assert rows[pos[rows[i]], 0].tolist() == [rep] * len(rows[i])
            # rows[i][c1], rows[j][c2], rows[third][2c2 - c1] is a 3-AP,
            # checked in digits: first + last = 2 * middle.
            c = digit_table(p, w.dim)
            c3 = ((2 * c[None, :, :] - c[:, None, :]) % p) @ (p ** np.arange(w.dim))
            for i, u1 in enumerate(transversal):
                for j, u2 in enumerate(transversal):
                    u3 = digits_to_index((2 * digits[u2] - digits[u1]) % p, params)
                    first = digits[rows[i]][:, None, :]
                    middle = digits[rows[j]][None, :, :]
                    last = digits[rows[pos[u3]][c3]]
                    assert np.all((first + last - 2 * middle) % p == 0)

    @pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
    def test_row_index_is_quotient_coordinate(self, p, n):
        # Over every subspace W: row i's representative holds i's base-p
        # digits on W's non-pivot axes, in order, and 0 on the pivots, so
        # combine on F_p^n of row indices i and j is the row of the same
        # combination of their representatives.
        params = GroupParams(p, n)
        digits = digit_table(p, n)
        for dim in range(n + 1):
            for w in all_subspaces(params, dim):
                rows = coset_decomposition(w)
                assert not rows.flags.writeable
                free = [k for k in range(n) if k not in w.pivots]
                t_digits = digits[rows[:, 0]]
                assert np.array_equal(t_digits[:, free], digit_table(p, len(free)))
                assert not t_digits[:, list(w.pivots)].any()
                i = np.arange(len(rows))
                third = combine(-1, i[:, None], 2, i[None, :], params)
                rep3 = combine(-1, rows[:, 0, None], 2, rows[None, :, 0], params)
                assert np.array_equal(row_of(rows)[rep3], third)

    def test_self_orthogonal_transversal_is_valid(self):
        # With W = span{(1,2)} in F_5^2, V = W so "v + W, v in V" fails;
        # the pivot-free transversal still decomposes the group.
        params = GroupParams(5, 2)
        w = span(params, [[1, 2]])
        rows = coset_decomposition(w)
        pos = row_of(rows)
        seen = set()
        for rep in rows[:, 0]:
            for x in np.sort(rows[pos[rep]]):
                assert x not in seen
                seen.add(int(x))
        assert seen == set(range(25))


class TestAverageOverCosets:
    def test_full_space(self, rng):
        params = GroupParams(3, 2)
        f = random_density(params, rng)
        fw = average_over_cosets(f, full_space(params))
        assert np.allclose(fw.values, f.expectation(), atol=1e-12)

    def test_trivial_space(self, rng):
        params = GroupParams(3, 2)
        f = random_density(params, rng)
        fw = average_over_cosets(f, span(params, []))
        assert np.array_equal(fw.values, f.values)

    def test_direct_coset_sums(self):
        params = GroupParams(3, 2)
        vals = np.zeros(9)
        vals[digits_to_index((0, 0), params)] = 1.0
        vals[digits_to_index((0, 1), params)] = 1.0
        f = DensityFunction(params, vals)
        fw = average_over_cosets(f, span(params, [[0, 1]]))
        expected = np.zeros(9)
        for y in range(3):
            expected[digits_to_index((0, y), params)] = 2 / 3
        assert np.allclose(fw.values, expected)

    def test_idempotent_exact(self, rng):
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        w = span(params, [[1, 0, 2], [0, 1, 1]])
        fw = average_over_cosets(f, w)
        fww = average_over_cosets(fw, w)
        assert np.array_equal(fw.values, fww.values)

    def test_preserves_expectation(self, rng):
        params = GroupParams(5, 2)
        f = random_density(params, rng)
        for gens in [[[1, 2]], [[1, 0], [0, 1]]]:
            fw = average_over_cosets(f, span(params, gens))
            assert abs(fw.expectation() - f.expectation()) < 1e-12

    def test_spectrum_support(self, rng):
        # fhat_W = fhat on W^perp and 0 elsewhere
        params = GroupParams(3, 3)
        f = random_density(params, rng)
        w = span(params, [[1, 2, 0]])
        fw = average_over_cosets(f, w)
        fhat = fourier.dft_forward(f)
        fwhat = fourier.dft_forward(fw)
        wperp = set(int(i) for i in orthogonal_complement(w).elements())
        for a in range(params.size):
            expected = fhat[a] if a in wperp else 0.0
            assert abs(fwhat[a] - expected) < 1e-9

    def test_coset_means_in_transversal_order(self, rng):
        params = GroupParams(3, 3)
        vals = np.array(random_density(params, rng).values)
        rows = coset_decomposition(span(params, [[1, 2, 0]]))
        pos = row_of(rows)
        vals[rows[1]] = 0.1  # a constant coset keeps its value exactly
        means = coset_means(DensityFunction(params, vals), rows)
        assert means[1] == 0.1 != math.fsum([0.1] * 3) / 3
        for i in (0, 2):
            rep = rows[i, 0]
            assert means[i] == math.fsum(vals[np.sort(rows[pos[rep]])]) / 3


    @pytest.mark.parametrize("block", [1, 2, 7, 5000])
    def test_coset_means_blocks_match_per_row_fsum(self, block, rng, monkeypatch):
        # Mixed rows summed a block at a time give the per-row fsum bit for
        # bit; constant rows keep their value.
        monkeypatch.setattr(gfspace, "BLOCK", block)
        params = GroupParams(3, 4)
        for gens in ([[1, 2, 0, 1]], [[1, 0, 0, 2], [0, 0, 1, 1]]):
            rows = coset_decomposition(span(params, gens))
            vals = np.array(random_density(params, rng).values)
            vals[rows[::3]] = 0.1
            means = coset_means(DensityFunction(params, vals), rows)
            width = rows.shape[1]
            for i, row in enumerate(rows):
                if i % 3 == 0:
                    assert means[i] == 0.1
                else:
                    assert means[i] == math.fsum(vals[row].tolist()) / width


def full_layout_average(f, w):
    """The full-layout formula that the blocked average replaced: every
    coset row laid out at once, each mean written through it."""
    rows = coset_decomposition(w)
    values = np.empty(f.params.size)
    values[rows] = coset_means(f, rows)[:, None]
    return values


def full_layout_deviation(j, j2, w):
    """The full-layout formula of the rounding monitor's coset deviation."""
    rows = coset_decomposition(w)
    return float(np.abs(coset_means(j2, rows) - coset_means(j, rows)).max())


class TestCosetBlocks:
    """Blocked layouts, averages and monitor deviations are bit-identical
    to the full-layout formulas, with blocks that end partway through the
    transversal."""

    @pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
    @pytest.mark.parametrize("block", [1, 5, 13, 40, None])
    def test_blocks_match_full_layout(self, p, n, block, rng, monkeypatch):
        if block is not None:
            monkeypatch.setattr(gfspace, "BLOCK", block)
        params = GroupParams(p, n)
        for dim in range(n + 1):
            max_rows = max(1, gfspace.BLOCK // p**dim)
            for w in all_subspaces(params, dim):
                rows = coset_decomposition(w)
                blocks = list(coset_blocks(w))
                assert all(0 < len(b) <= max_rows for b in blocks)
                assert np.array_equal(np.concatenate(blocks), rows)
                vals = np.array(random_density(params, rng).values)
                vals[rows[::2]] = 0.1  # constant cosets keep their value
                f = DensityFunction(params, vals)
                got = average_over_cosets(f, w).values
                assert got.tobytes() == full_layout_average(f, w).tobytes()

    @pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
    @pytest.mark.parametrize("block", [1, 5, 13, None])
    def test_monitor_matches_full_layout(self, p, n, block, rng, monkeypatch):
        if block is not None:
            monkeypatch.setattr(gfspace, "BLOCK", block)
        params = GroupParams(p, n)
        j = random_density(params, rng)
        j2, _ = rounding.round_to_indicator(j, 3)
        for dim in range(n + 1):
            ws = list(all_subspaces(params, dim))
            for w in ws[:: max(1, len(ws) // 8)]:
                _, rep = rounding.round_to_indicator(j, 3, monitored=[w])
                assert rep.max_coset_deviation == full_layout_deviation(j, j2, w)

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_average_peak_memory(self, dim):
        # An average holds its output and one block: the layout, the
        # gathered values and their Python floats, at most 64 bytes per
        # block entry.  Laying out the whole p^n layout adds 8 bytes per
        # element of F_3^10 (2.8-3.6 times the output in all, against
        # 1.3-1.4 a block at a time).
        params = GroupParams(3, 10)
        f = DensityFunction(params, np.random.default_rng(dim).random(params.size))
        eye = np.eye(10, dtype=np.int64)
        w = span(params, (eye + np.roll(eye, 1, axis=1))[10 - dim :])
        tracemalloc.start()
        try:
            fw = average_over_cosets(f, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fw.values.nbytes + 64 * gfspace.BLOCK


class TestCanonicalCodim:
    def test_full_codim(self):
        params = GroupParams(3, 2)
        assert canonical_codim_subspace(full_space(params), 2).dim == 0

    def test_zero_codim(self):
        params = GroupParams(3, 2)
        w = span(params, [[1, 0], [0, 1]])
        assert canonical_codim_subspace(w, 0) == w

    def test_drops_first_pivot_row(self):
        params = GroupParams(3, 2)
        w = span(params, [[1, 0], [0, 1]])
        s = canonical_codim_subspace(w, 1)
        assert np.array_equal(s.basis, [[0, 1]])

    def test_out_of_range(self):
        params = GroupParams(3, 2)
        with pytest.raises(ValueError):
            canonical_codim_subspace(span(params, [[1, 0]]), 2)


class TestGuards:
    def test_rref_rejects_a_1d_input(self):
        with pytest.raises(ValueError) as info:
            rref_mod_p(np.array([1, 2]), 3)
        assert str(info.value) == "expected a 2-D matrix"

    def test_subspace_blocks_rejects_a_dim_above_n(self):
        with pytest.raises(ValueError) as info:
            next(subspace_blocks(GroupParams(3, 2), 3))
        assert str(info.value) == "dim=3 out of range [0, 2]"


class TestEnumeration:
    def test_counts(self):
        params = GroupParams(3, 3)
        for dim in range(4):
            assert len(list(all_subspaces(params, dim))) == count_subspaces(params, dim)

    def test_f33_codim1_count(self):
        assert count_subspaces(GroupParams(3, 3), 2) == 13

    def test_all_distinct(self):
        params = GroupParams(3, 3)
        seen = list(all_subspaces(params, 2))
        assert len(set(seen)) == len(seen)


def old_all_subspaces(params, dim):
    """The per-subspace itertools enumeration that subspace_blocks replaced,
    as (pivots, basis) pairs."""
    p, n = params.p, params.n
    if dim == 0:
        yield (), np.zeros((0, n), dtype=np.int64)
        return
    for pivots in itertools.combinations(range(n), dim):
        free = [
            (i, c)
            for i in range(dim)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        for assignment in itertools.product(range(p), repeat=len(free)):
            basis = np.zeros((dim, n), dtype=np.int64)
            for i, piv in enumerate(pivots):
                basis[i, piv] = 1
            for (i, c), val in zip(free, assignment):
                basis[i, c] = val
            yield pivots, basis


def old_coset_rows(w):
    """The (|T|, |W|, n) digit-table layout that coset_rows replaced."""
    p, n = w.params.p, w.params.n
    free = [c for c in range(n) if c not in w.pivots]
    t_digits = np.zeros((p ** len(free), n), dtype=np.int64)
    t_digits[:, free] = digit_table(p, len(free))
    w_digits = (digit_table(p, w.dim) @ w.basis) % p
    return ((t_digits[:, None, :] + w_digits[None, :, :]) % p) @ (p ** np.arange(n))


BLOCK_GROUPS = [(3, 4), (5, 3), (7, 2)]


class TestBlocks:
    """subspace_blocks and coset_rows against the per-subspace oracles."""

    @pytest.mark.parametrize("p, n", BLOCK_GROUPS)
    @pytest.mark.parametrize("per_block", [1, 2, None])
    def test_blocks_flatten_to_old_order(self, p, n, per_block, monkeypatch):
        # Two subspaces a block divides no group size p^k; None keeps the cap.
        params = GroupParams(p, n)
        for dim in range(n + 1):
            if per_block is not None:
                monkeypatch.setattr(gfspace, "BLOCK", per_block * p**dim)
            old = list(old_all_subspaces(params, dim))
            got = []
            for pivots, bases in subspace_blocks(params, dim):
                assert bases.shape[1:] == (dim, n)
                if per_block is not None:
                    assert len(bases) <= per_block
                got.extend((pivots, b) for b in bases)
            assert len(got) == len(old) == count_subspaces(params, dim)
            for (gp, gb), (op, ob) in zip(got, old):
                assert gp == op and np.array_equal(gb, ob)
            flat = list(all_subspaces(params, dim))
            assert [(w.pivots, w.basis.tolist()) for w in flat] == [
                (op, ob.tolist()) for op, ob in old
            ]

    @pytest.mark.parametrize("p, n", BLOCK_GROUPS)
    def test_coset_rows_match_digit_layout(self, p, n, monkeypatch):
        params = GroupParams(p, n)
        for dim in range(n + 1):
            monkeypatch.setattr(gfspace, "BLOCK", 3 * p**dim)
            for pivots, bases in subspace_blocks(params, dim):
                for basis in bases:
                    layout = next(coset_rows(basis, pivots, params))
                    assert layout.shape == (p ** (n - dim), p**dim)
                    assert layout.dtype == np.int64
                    for max_rows in range(1, len(layout) + 2):
                        # Blocks of every size join into the layout.
                        blocks = list(coset_rows(basis, pivots, params, max_rows))
                        assert all(len(b) <= max_rows for b in blocks)
                        assert np.array_equal(np.concatenate(blocks), layout)
                    w = subspace.Subspace(params, basis, pivots)
                    assert np.array_equal(layout, old_coset_rows(w))
                    assert np.array_equal(coset_decomposition(w), layout)
                    assert np.array_equal(w.elements(), np.sort(layout[0]))

    @pytest.mark.parametrize("dim", [0, 1, 5, 9])
    def test_decomposition_peak_memory(self, dim):
        # The layout is built one coordinate at a time: no (|T|, |W|, n) or
        # (|W|, n) digit table, no element-to-row table and no per-coset
        # copy beside rows, so the traced peak stays within 2.5 rows arrays
        # (1.28-2.0; 2.0-3.0 with an element-to-row table).  With dim 0
        # (|T| = p^n) a tuple of representatives would add 4.5 more.
        params = GroupParams(3, 10)
        eye = np.eye(10, dtype=np.int64)
        w = span(params, (eye + np.roll(eye, 1, axis=1))[10 - dim :])
        assert w.dim == dim
        tracemalloc.start()
        try:
            rows = coset_decomposition(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * rows.nbytes


class TestCosetSizes:
    """coset_sizes against direct counts over W's coset layout."""

    @pytest.mark.parametrize("p, n", BLOCK_GROUPS)
    @pytest.mark.parametrize("block", [1, 5, gfspace.BLOCK])
    def test_matches_direct_counts(self, p, n, block, rng, monkeypatch):
        monkeypatch.setattr(gfspace, "BLOCK", block)
        params = GroupParams(p, n)
        digits = digit_table(p, n)
        for density in (0.0, 0.4, 1.0):
            s = PointSet.from_mask(params, rng.random(params.size) < density)
            s_hat, s_mask = fourier.dft_forward(s.density()), s.mask()
            for k in range(n + 1):
                scanned = 0
                for pivots, bases in subspace_blocks(params, k):
                    sizes = coset_sizes(s_hat, params, bases)
                    assert sizes.shape == (len(bases), p**k) and sizes.dtype == np.int64
                    for basis, row in zip(bases, sizes):
                        rows = coset_decomposition(
                            orthogonal_complement(subspace.Subspace(params, basis, pivots))
                        )
                        # Each row's label u = B t, t its representative.
                        labels = (digits[rows[:, 0]] @ basis.T) % p @ p ** np.arange(k)
                        assert sorted(labels.tolist()) == list(range(p**k))
                        assert np.array_equal(row[labels], s_mask[rows].sum(axis=-1))
                    scanned += len(bases)
                assert scanned == count_subspaces(params, k)

    def test_whole_space_is_one_coset(self, rng):
        params = GroupParams(5, 3)
        s = PointSet.from_mask(params, rng.random(params.size) < 0.3)
        bases = np.zeros((1, 0, 3), dtype=np.int64)
        sizes = coset_sizes(fourier.dft_forward(s.density()), params, bases)
        assert sizes.tolist() == [[len(s)]]

    def test_perturbed_transform_raises(self, rng):
        params = GroupParams(3, 4)
        s = PointSet.from_mask(params, rng.random(params.size) < 0.5)
        s_hat = fourier.dft_forward(s.density()).copy()
        s_hat[0] += 0.3
        bases = np.zeros((1, 0, 4), dtype=np.int64)
        with pytest.raises(RuntimeError, match="lies 0.3 from an integer"):
            coset_sizes(s_hat, params, bases)

    def test_structure_job_exits_on_a_failed_residue_check(self, monkeypatch, rng, tmp_path, capsys):
        # The coset sizes' inverse transform is fourier's, so an inverse
        # that is off by 0.3 in every output fails the scan's exact counts.
        fftn = fourier.fftn

        def offset(*args, **kwargs):
            out = fftn(*args, **kwargs)
            out += 0.3
            return out

        params = GroupParams(3, 3)
        path = str(tmp_path / "set.aps")
        save_set(PointSet.from_mask(params, rng.random(params.size) < 0.5), path)
        monkeypatch.setattr(fourier, "fftn", offset)
        argv = ["structure", "--input", path, "--max-codim", "1", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ap3: error: exact count failed")


class TestStructure:
    def test_subspace_itself(self):
        params = GroupParams(3, 3)
        w = subspace.span(params, [[1, 0, 0], [0, 1, 0]])
        s = PointSet(params, tuple(int(i) for i in w.elements()))
        rep = structure_report(s, max_codim=1)
        assert rep.best_positive_dim.symmetric_difference == 0
        assert rep.best_positive_dim.W == w
        assert rep.best_positive_dim.A_reps == (0,)

    def test_coset_union(self):
        # two cosets of a line in F_3^2 are matched exactly at codim 1
        params = GroupParams(3, 2)
        w = subspace.span(params, [[0, 1]])
        rows = subspace.coset_decomposition(w)
        pos = row_of(rows)
        members = []
        for rep in rows[:2, 0]:
            members.extend(int(i) for i in np.sort(rows[pos[rep]]))
        rep = structure_report(PointSet(params, tuple(sorted(members))), max_codim=1)
        assert rep.best_positive_dim.symmetric_difference == 0
        assert rep.best_positive_dim.W == w

    def test_trivial_w_is_perfect(self):
        params = GroupParams(3, 2)
        s = PointSet(params, (0, 1, 5))
        rep = structure_report(s, max_codim=2)
        assert rep.symmetric_difference == 0
        assert rep.W.dim == 0

    def test_refuses_cyclic_group(self):
        with pytest.raises(ValueError, match=r"F_7\^1 = Z_7 has no subspaces except 0 and Z_7"):
            structure_report(PointSet(GroupParams(7, 1), (0, 1, 3)), 0)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(subspace, "DEFAULT_MAX_SUBSPACES", 3)
        with pytest.raises(ValueError, match="budget"):
            structure_report(PointSet(GroupParams(3, 3), (0,)), 2)

    def test_errors_in_order(self, monkeypatch):
        # F_p^1 before the range of max_codim, and the range before the
        # budget, which counts nothing for a max_codim out of range.
        monkeypatch.setattr(subspace, "DEFAULT_MAX_SUBSPACES", 0)
        with pytest.raises(ValueError, match="^n = 1: "):
            structure_report(PointSet(GroupParams(7, 1), (0,)), 5)
        with pytest.raises(ValueError, match=r"^max_codim=1000000000000 out of range \[0, 3\]$"):
            structure_report(PointSet(GroupParams(3, 3), (0,)), 10**12)

    def test_normalization(self):
        params = GroupParams(3, 2)
        s = PointSet(params, (0, 1))
        rep = structure_report(s, max_codim=1)
        assert rep.best_positive_dim.normalized == pytest.approx(
            rep.best_positive_dim.symmetric_difference / 9
        )


def old_structure_report(s, max_codim):
    """The per-subspace loop that the batched scan replaced, in the scan's
    order: each W as its annihilator, W = V^⊥ for V in enumeration order."""
    params = s.params
    n = params.n
    s_members = np.array(s.members, dtype=np.int64)
    best = best_pos = None
    for codim in range(max_codim + 1):
        dim = n - codim
        w_size = params.p**dim
        for w in map(orthogonal_complement, all_subspaces(params, codim)):
            rows = subspace.coset_decomposition(w)
            pos = row_of(rows)
            inter = np.zeros(len(rows), dtype=np.int64)
            if len(s_members):
                np.add.at(inter, pos[s_members], 1)
            chosen = 2 * inter > w_size
            sd = int(np.sum(np.where(chosen, w_size - inter, inter)))
            row = SimpleNamespace(
                W=w,
                A_reps=tuple(int(rep) for rep, c in zip(rows[:, 0], chosen) if c),
                symmetric_difference=sd,
                normalized=sd / params.size,
            )
            if best is None or sd < best.symmetric_difference:
                best = row
            if dim >= 1 and (best_pos is None or sd < best_pos.symmetric_difference):
                best_pos = row
    return SimpleNamespace(
        W=best.W,
        A_reps=best.A_reps,
        symmetric_difference=best.symmetric_difference,
        normalized=best.normalized,
        searched_codims=(0, max_codim),
        best_positive_dim=best_pos,
    )


def difference_of(s, w):
    """|S delta (A + W)| for the majority-vote A of one subspace W."""
    rows = subspace.coset_decomposition(w)
    pos = row_of(rows)
    inter = np.bincount(pos[list(s.members)], minlength=len(rows))
    return int(np.minimum(inter, rows.shape[1] - inter).sum())


SCAN_GROUPS = [(3, 4), (5, 3), (7, 2)]


class TestBatchedStructure:
    """structure_report against the per-subspace loop, across block sizes."""

    def _sets(self, params, rng):
        size = params.size
        yield PointSet(params, ())
        yield PointSet(params, tuple(range(size)))
        # A single point ties every subspace of each positive dimension at
        # difference 1, so the first in enumeration order must win.
        yield PointSet(params, (size // 2,))
        for density in (0.2, 0.5, 0.8):
            yield PointSet.from_mask(params, rng.random(size) < density)

    @pytest.mark.parametrize("p, n", SCAN_GROUPS)
    @pytest.mark.parametrize("per_block", [1, 2, None])
    def test_matches_per_subspace_loop(self, p, n, per_block, rng, monkeypatch, tmp_path):
        params = GroupParams(p, n)
        for s in self._sets(params, rng):
            for max_codim in range(n + 1):
                if per_block is not None:
                    # per_block subspaces a block at the largest codim.
                    monkeypatch.setattr(gfspace, "BLOCK", per_block * p**max_codim)
                got = structure_report(s, max_codim)
                want = old_structure_report(s, max_codim)
                assert got == want
                _write_json(got, str(tmp_path / "got.json"))
                _write_json(want, str(tmp_path / "want.json"))
                assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_tied_minimizers_first_wins(self, monkeypatch):
        # S = V1 u V2 for the planes V1 = <e0, e2> and V2 = <e0, e1 + e2> of
        # F_3^4: both leave difference 6.  A plane is scanned as its
        # annihilator, V1^⊥ = <e1, e3> and V2^⊥ = <e1 + 2e2, e3>: the first
        # and third subspaces with pivots (1, 3), so V1 comes first.  The
        # default cap puts them in one block, two subspaces a block in two.
        params = GroupParams(3, 4)
        v1 = subspace.span(params, [[1, 0, 0, 0], [0, 0, 1, 0]])
        v2 = subspace.span(params, [[1, 0, 0, 0], [0, 1, 1, 0]])
        s = PointSet(params, tuple({*v1.elements().tolist(), *v2.elements().tolist()}))
        planes = [
            (w, difference_of(s, w))
            for w in map(orthogonal_complement, all_subspaces(params, 2))
        ]
        best = min(sd for _, sd in planes)
        assert best == 6 and [w for w, sd in planes if sd == best] == [v1, v2]
        for per_block in (None, 2):
            if per_block is not None:
                monkeypatch.setattr(gfspace, "BLOCK", per_block * params.p**2)
            rep = structure_report(s, 2)
            assert rep.best_positive_dim.W == v1
            assert rep.best_positive_dim.symmetric_difference == 6
            assert rep == old_structure_report(s, 2)

    def test_peak_memory_at_3_6(self):
        # The scan holds S's transform, one block of coset sizes and the
        # layout of one new best W, never a layout per scanned subspace.
        params = GroupParams(3, 6)
        s = PointSet.from_mask(params, np.random.default_rng(5).random(params.size) < 0.3)
        tracemalloc.start()
        try:
            structure_report(s, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000
