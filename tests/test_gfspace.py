import collections
import io
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ap3 import gfspace, rounding, subspace
from ap3.gfspace import (
    BLOCK,
    DensityFunction,
    FileFormatError,
    GroupParams,
    PointSet,
    RANGE_SLACK,
    combine,
    index_to_digits,
    is_prime,
    load_density,
    load_density_complex,
    load_set,
    save_density,
    save_set,
    scale_map,
)
from ap3.improve import construct_g, write_case_blocks
from ap3.rounding import randomize
from ap3.subspace import average_over_cosets, coset_blocks, span

from conftest import digit_table, digits_to_index, planted_density


class TestGroupParams:
    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            GroupParams(2, 3)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            GroupParams(9, 1)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GroupParams(3, 0)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            GroupParams(3, 200)

    def test_huge_n_fails_fast(self):
        # p^n has about 1e17 digits: the bound on n rejects it unpowered.
        start = time.monotonic()
        with pytest.raises(ValueError, match="exceeds the supported index range"):
            GroupParams(7, 126397162360691373)
        assert time.monotonic() - start < 1.0

    def test_huge_p_fails_fast(self):
        # 2^4253 - 1 is a Mersenne prime that takes seconds to test: the size
        # bound rejects it first.
        start = time.monotonic()
        with pytest.raises(ValueError, match="exceeds the supported index range") as exc:
            GroupParams(2**4253 - 1, 1)
        assert time.monotonic() - start < 1.0
        # p is named by its digit count, not printed in full.
        assert str(exc.value) == "p^n = [1281 digits]^1 exceeds the supported index range"

    @pytest.mark.parametrize(
        "p, shown",
        [
            (10**20 - 1, "99999999999999999999"),
            (10**20, "[21 digits]"),
            (10**300 - 1, "[300 digits]"),
            (10**300, "[301 digits]"),
        ],
        ids=["10^20-1", "10^20", "10^300-1", "10^300"],
    )
    def test_size_error_digit_count(self, p, shown):
        with pytest.raises(ValueError) as exc:
            GroupParams(p, 1)
        assert str(exc.value) == f"p^n = {shown}^1 exceeds the supported index range"

    def test_size_error_past_the_string_limit(self):
        # Python refuses to convert an int of more than 4300 digits to a
        # string, so the message must name p without str(p).
        with pytest.raises(ValueError, match=r"^p\^n = \[5001 digits\]\^1 exceeds"):
            GroupParams(10**5000 + 1, 1)
        with pytest.raises(ValueError, match=r"^p\^n = 3\^\[31 digits\] exceeds"):
            GroupParams(3, 10**30)

    def test_size(self):
        assert GroupParams(3, 4).size == 81


class TestIsPrime:
    def test_small_values_match_trial_division(self):
        for p in range(-3, 20000):
            assert is_prime(p) == (p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1)))

    @pytest.mark.parametrize(
        "p, expected",
        [
            (2**31 - 1, True),
            (2**61 - 1, True),
            (2**64 - 59, True),  # the largest 64-bit prime
            (561, False),  # Carmichael numbers
            (825265, False),
            (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
            (3825123056546413051, False),  # ... and to every base 2-23
            ((2**32 - 5) * (2**32 - 17), False),
            (2**61 + 1, False),
        ],
    )
    def test_64_bit(self, p, expected):
        start = time.monotonic()
        assert is_prime(p) is expected
        assert is_prime(np.uint64(p)) is expected
        assert time.monotonic() - start < 1.0


class TestDigits:
    def test_zero(self):
        assert index_to_digits(0, GroupParams(3, 2)) == (0, 0)

    def test_base_p_expansion(self):
        assert index_to_digits(5, GroupParams(3, 2)) == (2, 1)
        assert index_to_digits(7, GroupParams(5, 2)) == (2, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_digits(9, GroupParams(3, 2))

    @given(st.integers(0, 3**4 - 1))
    def test_roundtrip(self, i):
        params = GroupParams(3, 4)
        assert digits_to_index(index_to_digits(i, params), params) == i


class TestElement:
    """Element arithmetic on indices."""

    def test_add(self):
        params = GroupParams(3, 2)
        a = digits_to_index((1, 2), params)
        b = digits_to_index((2, 2), params)
        assert index_to_digits(int(combine(1, a, 1, b, params)), params) == (0, 1)

    def test_scale(self):
        params = GroupParams(3, 2)
        a = digits_to_index((1, 2), params)
        assert index_to_digits(int(combine(2, a, 0, 0, params)), params) == (2, 1)

    def test_sub_self_is_zero(self):
        params = GroupParams(5, 3)
        for i in [0, 7, 124]:
            assert combine(1, i, -1, i, params) == 0

    def test_order_p(self):
        params = GroupParams(3, 2)
        assert combine(3, 5, 0, 0, params) == 0


def _oracle(p, n, a, b, ca, cb):
    """ca*a + cb*b by the (..., n) digit-table formula the kernel replaced."""
    t = digit_table(p, n)
    digits = ca * t[np.asarray(a, dtype=np.int64)] + cb * t[np.asarray(b, dtype=np.int64)]
    return (digits % p) @ (p ** np.arange(n, dtype=np.int64))


KERNEL_GROUPS = [(3, 4), (5, 3), (7, 2)]


class TestIndexKernel:
    """combine against the digit-table oracle."""

    def _shapes(self, params, rng):
        size = params.size
        yield rng.integers(0, size), rng.integers(0, size)  # 0-d scalars
        yield np.array(size - 1), np.array(0)
        yield rng.integers(0, size, (7, 1)), rng.integers(0, size, (1, 9))
        yield rng.integers(0, size, 11), rng.integers(0, size, 11)
        yield np.arange(size), np.arange(size)[::-1]
        yield np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        yield np.zeros((0, 1), dtype=np.int64), rng.integers(0, size, (1, 5))

    def check(self, params, ca, cb, rng):
        p, n = params.p, params.n
        for a, b in self._shapes(params, rng):
            got = combine(ca, a, cb, b, params)
            want = _oracle(p, n, a, b, ca, cb)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).dtype == np.int64
            assert np.array_equal(got, want)
            assert np.ndim(got) > 0 or isinstance(got, np.int64)

    @pytest.mark.parametrize("p, n", KERNEL_GROUPS)
    def test_add_sub_match_oracle(self, p, n, rng):
        for ca, cb in [(1, 1), (1, -1)]:
            self.check(GroupParams(p, n), ca, cb, rng)

    @pytest.mark.parametrize("p, n", KERNEL_GROUPS)
    def test_scale_matches_oracle(self, p, n, rng):
        for c in (0, 1, 2, p - 1, -1, p + 2):
            self.check(GroupParams(p, n), c, 0, rng)

    @pytest.mark.parametrize("p, n", KERNEL_GROUPS)
    def test_combine_matches_oracle(self, p, n, rng):
        # 2u - v, (u+v)/2 and 2v - u, then coefficients outside [0, p).
        h = (p + 1) // 2
        for ca, cb in [(2, -1), (h, h), (-1, 2), (-p - 2, 2 * p - 1), (3 * p, -3 * p + 1)]:
            self.check(GroupParams(p, n), ca, cb, rng)

    @pytest.mark.parametrize("p, n", KERNEL_GROUPS)
    def test_scale_map_read_only(self, p, n):
        for c in (0, 2, p - 1):
            m = scale_map(p, n, c)
            assert not m.flags.writeable
            assert np.array_equal(m, _oracle(p, n, np.arange(p**n), 0, c, 0))
            with pytest.raises(ValueError):
                m[0] = 1


class TestDensityFunction:
    def test_range_validation(self):
        params = GroupParams(3, 1)
        with pytest.raises(ValueError):
            DensityFunction(params, np.array([0.0, 0.5, 1.5]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DensityFunction(GroupParams(3, 1), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite|outside"):
            DensityFunction(GroupParams(3, 1), np.array([0.0, bad, 1.0]))

    def test_immutable(self):
        f = DensityFunction.constant(GroupParams(3, 1), 0.5)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_in_range_values_stored_as_given(self):
        # Clipping would copy and give the same bits, -0.0 included.
        vals = np.array([-0.0, 0.5, 1.0])
        f = DensityFunction(GroupParams(3, 1), vals)
        assert f.values is vals and not vals.flags.writeable
        assert np.array_equal(np.signbit(f.values), [True, False, False])

    def test_slack_band_clipped_into_a_copy(self):
        vals = np.array([-RANGE_SLACK / 2, 0.5, 1.0 + RANGE_SLACK / 2])
        f = DensityFunction(GroupParams(3, 1), vals)
        assert f.values.tolist() == [0.0, 0.5, 1.0]
        assert vals.flags.writeable and vals[0] < 0.0

    def test_construction_peak_memory(self, rng):
        # At 3^10 an in-range float64 array is checked, not copied.
        vals = rng.random(3**10)
        tracemalloc.start()
        try:
            f = DensityFunction(GroupParams(3, 10), vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values is vals
        assert peak <= 0.25 * vals.nbytes

    def test_in_range_check_allocates_no_array(self, rng):
        # One min() and one max() check range and finiteness; the isfinite
        # mask is built only to name the index of a failure.
        vals = rng.random(3**10)
        tracemalloc.start()
        try:
            DensityFunction(GroupParams(3, 10), vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8192

    @pytest.mark.parametrize(
        "vals, message",
        [
            ([0.0, np.nan, 1.0], "non-finite value at index 1"),
            ([2.0, np.nan, 0.0], "non-finite value at index 1"),
            ([-np.inf, 0.5, 2.0], "non-finite value at index 0"),
            ([-0.5, 0.5, 1.5], "values outside [0,1]: min=np.float64(-0.5) max=np.float64(1.5)"),
        ],
        ids=["nan", "nan-before-range", "inf-before-range", "range"],
    )
    def test_validation_messages(self, vals, message):
        # A non-finite value is named before a value outside [0, 1].
        with pytest.raises(ValueError) as info:
            DensityFunction(GroupParams(3, 1), np.array(vals))
        assert str(info.value) == message


class TestPointSet:
    def test_compares_by_identity(self):
        params = GroupParams(3, 1)
        a, b = PointSet(params, (0, 1)), PointSet(params, (1, 0))
        assert a != b and a == a and len({a, b}) == 2
        assert (a.params, a.members) == (b.params, b.members)

    def test_rejects_a_member_out_of_range(self):
        with pytest.raises(ValueError) as info:
            PointSet(GroupParams(3, 1), (3,))
        assert str(info.value) == "member 3 out of range [0, 3)"


class TestExpectation:
    def test_constant(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        assert f.expectation() == 1.0

    def test_indicator(self):
        params = GroupParams(3, 1)
        f = PointSet(params, (0, 1)).density()
        assert f.expectation() == pytest.approx(2 / 3)


# The .apf texts of TestFiles, each with the error or values both loaders give.
FIRST_ERRORS = [
    ("0 0.5 1\n0.25 x 0\n0 0 0\n", ":3: field 2: bad value 'x'"),
    ("0 0.5 1\n0.25 0 1.5\n0 0 0\n", ":3: field 3: value 1.5 outside [0,1]"),
    ("0 0.5 1\n-0.25 0 0\n0 0 0\n", ":3: field 1: value -0.25 outside [0,1]"),
    ("0 0.5 1\n0.25 0 nan\n0 0 0\n", ":3: field 3: value nan is not finite"),
    ("0 0.5 1\n0.25 0 -inf\n0 0 0\n", ":3: field 3: value -inf is not finite"),
    ("0 5 x\n", ":2: field 2: value 5 outside [0,1]"),
    ("0 2 0\nx\n", ":2: field 2: value 2 outside [0,1]"),
    ("0 0 0 0 0 0 0 0\n\n0 1 0\n", ":4: body longer than p^n = 9"),
    ("0 0 0 0 0 0 0 0 0\nx\n", ":3: body longer than p^n = 9"),
    # Form feeds, vertical tabs and \x1c-\x1e end a line as \n does.
    ("0 0 0\x0c0 0\x0c0 y\n0 0\n", ":4: field 2: bad value 'y'"),
    ("0 0 0\x0b0 0 0\x1c0 0 0 0\n", ":4: body longer than p^n = 9"),
    ("0 0 0 0 0 0 0 0 0\x0c0", ":3: body longer than p^n = 9"),
    ("0 0 0\x1d0 0 0\x1e0 0\x0c\x0cq\n", ":6: field 1: bad value 'q'"),
    # \x1f separates tokens but does not end a line.
    ("0 0 0\x1f0 0 0\x1f0 0 2\n", ":2: field 9: value 2 outside [0,1]"),
    ("0 0 0\r\n0 x 0\r\n0 0 0\r\n", ":3: field 2: bad value 'x'"),
    ("0 0 0\r0 0 0\r0 0 2", ":4: field 3: value 2 outside [0,1]"),
    ("0 0 0\n0 0", ": body length 5 != p^n = 9"),
    ("0 0 0\n0 0 0\n0 0 0\n0\n", ":5: body longer than p^n = 9"),
]

LINE_BREAK_TEXTS = [
    "3 1\x0c0 0.5\n1\n",
    "3 1\x0b0 0.5 1\n",
    "3 1\x1c0\x1d0.5\x1e1",
    "3 1\r\n0 0.5\r\n1\r\n",
    "3 1\r0 0.5\r1",
    "3 1\n0 0.5 1",
    " 3 1 \n\n0\x1f0.5\t1\n\n",
]

HEADER_ERRORS = [
    ("3 2\x0c0 0 0\x0c0 0 0\x0c0 0 z\n", ":4: field 3: bad value 'z'"),
    ("3 1\x0c0 0 0 0\n", ":2: body longer than p^n = 3"),
    ("3 1\x1f0 0.5 1\n", ":1: header must be 'p n', got '3 1\\x1f0 0.5 1'"),
    ("\x0c3 1\n0 0 0\n", ":1: header must be 'p n', got ''"),
    ("\n3 1\n0 0 0\n", ":1: header must be 'p n', got ''"),
    ("3\x1d1\n0 0 0\n", ":1: header must be 'p n', got '3'"),
    ("3 1\r\n0 0.5\r\n", ": body length 2 != p^n = 3"),
    ("x 1\n0 0 0\n", ":1: non-integer header field: invalid literal for int() with base 10: 'x'"),
]

NON_ASCII_HEADS = [b"3 1\nx 0 0\n", b"4 1\n0 0 0 0\n", b"3 39\n0\n", b"3 1\n0 0 0\n"]


class TestFiles:
    def test_load_simple(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("3 1\n1 1 0\n")
        f = load_density(str(path))
        assert list(f.values) == [1.0, 1.0, 0.0]

    def test_roundtrip(self, tmp_path, rng):
        params = GroupParams(5, 2)
        f = DensityFunction(params, rng.random(params.size))
        path = tmp_path / "f.apf"
        save_density(f, str(path))
        g = load_density(str(path))
        assert np.array_equal(f.values, g.values)

    def test_short_body(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("3 1\n1 1\n")
        with pytest.raises(FileFormatError, match="body length 2"):
            load_density(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("3 1\n1 2 0\n")
        with pytest.raises(FileFormatError, match="outside"):
            load_density(str(path))

    @pytest.mark.parametrize("tok", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, tok):
        path = tmp_path / "f.apf"
        path.write_text(f"3 1\n1 {tok} 0\n")
        with pytest.raises(FileFormatError, match="field 2: value .* is not finite"):
            load_density(str(path))

    @pytest.mark.parametrize("body, message", FIRST_ERRORS)
    def test_first_error_in_file_order(self, tmp_path, body, message):
        path = tmp_path / "f.apf"
        path.write_bytes(("3 2\n" + body).encode("ascii"))
        with pytest.raises(FileFormatError) as info:
            load_density(str(path))
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("text", LINE_BREAK_TEXTS)
    def test_line_breaks_accepted(self, tmp_path, text):
        # The header is the first str.splitlines() piece of the file.
        path = tmp_path / "f.apf"
        path.write_bytes(text.encode("ascii"))
        assert load_density(str(path)).values.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("text, message", HEADER_ERRORS)
    def test_header_line_errors(self, tmp_path, text, message):
        path = tmp_path / "f.apf"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(FileFormatError) as info:
            load_density(str(path))
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("head", NON_ASCII_HEADS)
    def test_non_ascii_byte_reported_first(self, tmp_path, head):
        # Whatever else is wrong with the file (a bad token or header, a
        # size too large to allocate, nothing), the first non-ASCII byte is
        # reported, at its offset in the whole file.
        path = tmp_path / "f.apf"
        path.write_bytes(head + b" " * 20000 + b"\xe9\n")
        with pytest.raises(UnicodeDecodeError) as info:
            load_density(str(path))
        assert info.value.start == len(head) + 20000

    def test_complex_loader_refuses_alike(self, tmp_path):
        # `load_density_complex` shares `load_density`'s checks and words.
        texts = [("3 2\n" + body).encode("ascii") for body, _ in FIRST_ERRORS]
        texts += [text.encode("ascii") for text, _ in HEADER_ERRORS]
        texts += [head + b" " * 20000 + b"\xe9\n" for head in NON_ASCII_HEADS]
        texts += [b"", b"3 1\n1 1\n", b"3 1\n1 2 0\n", b"3 1\n1 nan 0\n", b"4 1\n0 0 0 0\n"]
        path = tmp_path / "f.apf"
        for text in texts:
            path.write_bytes(text)
            errors = []
            for load in (load_density, load_density_complex):
                with pytest.raises((FileFormatError, UnicodeDecodeError)) as info:
                    load(str(path))
                errors.append((type(info.value), str(info.value)))
            assert errors[0] == errors[1], text[:40]

    def test_complex_loader_reads_alike(self, tmp_path):
        # Its real parts are `load_density`'s values bit for bit, and its
        # imaginary parts are +0.0.
        texts = LINE_BREAK_TEXTS + [
            "3 1\n\n0 1\n\n  \n0.5\n\n",
            "3 2\n-0 5e-324 1e-320 0.1 1 0.30000000000000004 2.5e-1 1e0\n0.99999999999999999\n",
        ]
        path = tmp_path / "f.apf"
        for text in texts:
            path.write_bytes(text.encode("ascii"))
            f = load_density(str(path))
            params, values = load_density_complex(str(path))
            assert params == f.params
            assert values.dtype == np.complex128 and values.flags.writeable
            assert values.real.tobytes() == f.values.tobytes(), text
            assert values.imag.tobytes() == bytes(f.values.nbytes), text

    def test_blank_body_lines_skipped(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("3 1\n\n0 1\n\n  \n0.5\n\n")
        assert list(load_density(str(path)).values) == [0.0, 1.0, 0.5]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("")
        with pytest.raises(FileFormatError) as info:
            load_density(str(path))
        assert str(info.value) == f"{path}:1: empty file"

    def test_empty_set_file(self, tmp_path):
        path = tmp_path / "f.aps"
        path.write_text("")
        with pytest.raises(FileFormatError) as info:
            load_set(str(path))
        assert str(info.value) == f"{path}:1: empty file"

    def test_save_golden_bytes(self, tmp_path):
        # 8 values a line at 17 significant digits, then the partial last line
        vals = np.array([0, 1, 0.1, 1 / 3, 5e-324, 0.5, 0.25, 2 / 3, 0.7])
        path = tmp_path / "f.apf"
        save_density(DensityFunction(GroupParams(3, 2), vals), str(path))
        assert path.read_bytes() == (
            b"3 2\n0 1 0.10000000000000001 0.33333333333333331 4.9406564584124654e-324"
            b" 0.5 0.25 0.66666666666666663\n0.69999999999999996\n"
        )

    def test_save_blocks_match_whole_array_format(self, tmp_path, rng):
        # 3^9 = 19683 values: neither a multiple of BLOCK nor of 8.
        params = GroupParams(3, 9)
        vals = rng.random(params.size)
        vals[:6] = [0.0, 1.0, 5e-324, 1 / 3, 0.1 + 0.2, 0.5]
        vals[-3:] = [5e-324, 0.1 + 0.2, 0.0]
        assert params.size % BLOCK and params.size % 8
        path = tmp_path / "f.apf"
        save_density(DensityFunction(params, vals), str(path))
        whole = vals.tolist()
        oracle = "3 9\n" + "".join(
            " ".join(["%.17g"] * len(line)) % tuple(line) + "\n"
            for line in (whole[i : i + 8] for i in range(0, len(whole), 8))
        )
        assert path.read_bytes() == oracle.encode("ascii")

    @staticmethod
    def _traced_peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_io_peak_memory(self, tmp_path, rng):
        # At 3^10 the reader holds the values and one line of text (the
        # values' range checks are the rest), and the writer one block of
        # Python floats and text.
        params = GroupParams(3, 10)
        f = DensityFunction(params, rng.random(params.size))
        path = str(tmp_path / "f.apf")
        _, peak = self._traced_peak(save_density, f, path)
        assert peak <= 2 * f.values.nbytes
        g, peak = self._traced_peak(load_density, path)
        assert peak <= 3 * g.values.nbytes
        assert np.array_equal(g.values, f.values)
        # The complex reader holds its one complex128 array and a line of
        # text (1.03 times the array, traced); a float64 copy of the values
        # would add half the array.
        (_, values), peak = self._traced_peak(load_density_complex, path)
        assert peak <= 1.25 * values.nbytes
        assert np.array_equal(values.real, f.values)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("4 1\n0 0 0 0\n")
        with pytest.raises(FileFormatError):
            load_density(str(path))

    def test_set_roundtrip(self, tmp_path):
        s = PointSet(GroupParams(3, 2), (0, 3, 8))
        path = tmp_path / "s.aps"
        save_set(s, str(path))
        assert load_set(str(path)).members == (0, 3, 8)

    def test_set_not_ascending(self, tmp_path):
        path = tmp_path / "s.aps"
        path.write_text("3 2\n3 0\n")
        with pytest.raises(FileFormatError, match="ascending"):
            load_set(str(path))

    @pytest.mark.parametrize(
        "text, where",
        [
            ("3 2\n0 1\n2 x\n", ":3: field 2: bad index 'x'"),
            ("3 2\n0 5\n3 8\n", ":3: field 1: indices must be ascending"),
            ("3 2\n0\n1 2\n\n4 9\n", ":5: field 2: index 9 out of range"),
            ("3 2\n0\n1\n9\n", ":4: field 1: index 9 out of range"),
            ("x 2\n0\n", ":1: non-integer header field: invalid literal for int() with base 10: 'x'"),
        ],
        ids=[
            "bad-token-line-3", "descending-across-lines", "after-blank-line", "range-line-4",
            "non-integer-header",
        ],
    )
    def test_set_error_names_line_and_field(self, tmp_path, text, where):
        path = tmp_path / "s.aps"
        path.write_text(text)
        with pytest.raises(FileFormatError) as exc:
            load_set(str(path))
        assert str(exc.value) == f"{path}{where}"


class TestBlock:
    def test_every_chunked_loop_reads_block_when_it_runs(self, tmp_path, monkeypatch):
        # One density of 81 values: saved 8 values a line, drawn a word a
        # value, averaged over the 27 cosets of a line, and improved into
        # 81 cases (9 rows of 9), written 64 cases a write.  At BLOCK = 8
        # each loop runs several blocks where it ran one, the cases go out a
        # row a block and one case a write, and the output keeps every byte.
        f = planted_density(3, 4, 2, 0)
        w = span(f.params, [[1, 2, 0, 1]])
        table = construct_g(f, 1.0, 0.004)[1].per_case_checks
        blocks = collections.Counter()

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def counted(text):
                blocks["save"] += 1  # the header, then one write a block
                return write(text)

            fh.write = counted
            return fh

        class Draws(random.Random):
            def getrandbits(self, k):
                blocks["draws"] += 1
                return super().getrandbits(k)

        def cosets(w):
            for rows in coset_blocks(w):
                blocks["cosets"] += 1
                yield rows

        class Cases(io.StringIO):
            def write(self, text):
                blocks["cases"] += 1  # one write a slice, then the closing "]"
                return super().write(text)

        monkeypatch.setattr(gfspace, "open", counting_open, raising=False)
        monkeypatch.setattr(rounding, "seeded_rng", Draws)
        monkeypatch.setattr(subspace, "coset_blocks", cosets)

        def run(path):
            blocks.clear()
            save_density(f, str(path))
            cases = Cases()
            write_case_blocks(cases, table.blocks())
            out = (
                path.read_bytes(),
                randomize(f, 5).tobytes(),
                average_over_cosets(f, w).values.tobytes(),
                cases.getvalue(),
            )
            return out, dict(blocks)

        default, ran = run(tmp_path / "default.apf")
        assert ran == {"save": 2, "draws": 1, "cosets": 1, "cases": 2 + 1}
        monkeypatch.setattr(gfspace, "BLOCK", 8)
        patched, ran = run(tmp_path / "patched.apf")
        assert ran == {"save": 1 + 11, "draws": 11, "cosets": 14, "cases": 9 * 9 + 1}
        assert patched == default
