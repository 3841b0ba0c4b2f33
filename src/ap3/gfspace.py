"""Canonical model of F_p^n: parameters, element arithmetic on indices
(`combine`), density functions, point sets, the .apf/.aps text formats,
the seeded generator every random draw comes from (`seeded_rng`), and
`BLOCK`, which sizes the blocks of `save_density`, `rounding.randomize`,
`subspace.coset_blocks`, `coset_means` and `subspace_blocks`,
`improve.CaseTable.blocks`, `improve.write_case_blocks` (slices of
`BLOCK // 64` cases) and `fourier.large_spectrum`.

An .apf file is read one line at a time by one reader, either into a
`DensityFunction` (`load_density`) or, for a caller that transforms it
in place, straight into the real parts of a complex128 array
(`load_density_complex`), with the same checks and error messages.

Elements are indexed little-endian base p: index = sum(digit_k * p**k),
with coordinate 0 the least significant digit.  Every array, file, and
transform in this package uses that one order.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import lru_cache

import numpy as np

# Slack allowed on [0,1] membership after floating-point round trips.
RANGE_SLACK = 1e-12

# p^n must stay comfortably inside int64 indexing.
MAX_SIZE = 2**62

# The 8-byte entries in one block of a chunked loop, read when the loop
# runs.  32 KiB stays below glibc's 128 KiB mmap threshold: freeing a
# larger temporary raises that threshold for the rest of the job, and with
# it the job's later peak RSS.  A multiple of the 8 values of an .apf line.
BLOCK = 2**12


class FileFormatError(ValueError):
    """Malformed .apf or .aps file."""


# The trial divisors and Miller-Rabin bases of `is_prime`.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Trial division by _SMALL_PRIMES, then the strong probable-prime test
    to each of them as base, which no composite below 3.18e23 passes: exact
    for every 64-bit p."""
    p = operator.index(p)  # numpy integers too; pow() needs a Python int
    if p < 2 or any(p % q == 0 for q in _SMALL_PRIMES):
        return p in _SMALL_PRIMES
    d, s = p - 1, 0  # p - 1 = d 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
        for a in _SMALL_PRIMES
    )


def _brief(k: int) -> str:
    """k in full, or its number of digits once it has more than 20.  It is
    never converted to a string: past 4300 digits that raises ValueError."""
    if k < 10**20:
        return str(k)
    digits = int((k.bit_length() - 1) * math.log10(2))  # at most the count
    while k >= 10**digits:
        digits += 1
    return f"[{digits} digits]"


class GroupParams:
    """The group F_p^n for an odd prime p and dimension n >= 1."""

    def __init__(self, p: int, n: int) -> None:
        if n < 1:
            raise ValueError(f"n={n} must be >= 1")
        # The size bound runs before the primality test, whose cost grows
        # with the digits of p.  For p >= 3, n >= 63 gives p^n >= 2^63, so
        # the power is computed only when both are small.
        if p >= 3 and (p > MAX_SIZE or n >= MAX_SIZE.bit_length() or p**n > MAX_SIZE):
            raise ValueError(f"p^n = {_brief(p)}^{_brief(n)} exceeds the supported index range")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p < 3:
            # Over F_2, m+2d == m and every progression degenerates, so we
            # reject p=2 outright rather than return meaningless counts.
            raise ValueError("p must be an odd prime >= 3")
        self.p, self.n = p, n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupParams):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.n))

    @property
    def size(self) -> int:
        return self.p**self.n


def seeded_rng(seed: int | None) -> random.Random:
    """random.Random(seed), the one generator ap3 draws from; None seeds it
    from OS entropy.  random.Random(-s) draws the stream of random.Random(s),
    so a negative seed raises ValueError."""
    if seed is not None and seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return random.Random(seed)


def index_to_digits(i: int, params: GroupParams) -> tuple[int, ...]:
    if not 0 <= i < params.size:
        raise ValueError(f"index {i} out of range [0, {params.size})")
    p = params.p
    return tuple(int(i) // p**k % p for k in range(params.n))


def combine(ca: int, a, cb: int, b, params: GroupParams):
    """Index of the element ca*a + cb*b, broadcasting a and b like numpy;
    the integer coefficients act mod p, so they may be negative or >= p.

    The package's one index operation.  The digits are peeled off the
    indices one coordinate at a time and combined mod p, so no array with
    a trailing axis of n digits is built.
    """
    p = params.p
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    digit = np.empty_like(out)
    place = 1
    for _ in range(params.n):
        np.add(ca * (a // place % p), cb * (b // place % p), out=digit)
        digit %= p
        digit *= place
        out += digit
        place *= p
    return out[()]


@lru_cache(maxsize=None)
def scale_map(p: int, n: int, c: int) -> np.ndarray:
    """Read-only map from each index i to the index of c*i."""
    out = combine(c % p, np.arange(p**n), 0, 0, GroupParams(p, n))
    out.setflags(write=False)
    return out


class DensityFunction:
    """A map F_p^n -> [0,1], stored as p^n values in canonical index order.

    A contiguous float64 array with every value in [0, 1] is stored as it
    is, not copied, and made read-only: the caller must not write to it
    afterwards.  Values within RANGE_SLACK outside [0, 1] are clipped into
    a copy.
    """

    def __init__(self, params: GroupParams, values: np.ndarray) -> None:
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.shape != (params.size,):
            raise ValueError(f"expected {params.size} values, got shape {vals.shape}")
        lo, hi = vals.min(), vals.max()
        if not (-RANGE_SLACK <= lo and hi <= 1.0 + RANGE_SLACK):  # also true for NaN
            finite = np.isfinite(vals)
            if not finite.all():
                raise ValueError(f"non-finite value at index {int(np.argmin(finite))}")
            raise ValueError(f"values outside [0,1]: min={lo!r} max={hi!r}")
        if lo < 0.0 or hi > 1.0:  # -0.0 passes, as np.clip would keep it
            vals = np.clip(vals, 0.0, 1.0)
        vals.setflags(write=False)
        self.params, self.values = params, vals

    @classmethod
    def constant(cls, params: GroupParams, c: float) -> "DensityFunction":
        return cls(params, np.full(params.size, float(c)))

    @property
    def is_indicator(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))

    def expectation(self) -> float:
        return math.fsum(self.values) / self.params.size


class PointSet:
    """A subset of F_p^n as a sorted tuple of element indices.  PointSets
    compare by identity; compare `params` and `members` for equality."""

    def __init__(self, params: GroupParams, members: tuple[int, ...]) -> None:
        members = tuple(sorted({int(i) for i in members}))
        for i in members:
            if not 0 <= i < params.size:
                raise ValueError(f"member {i} out of range [0, {params.size})")
        self.params, self.members = params, members

    @classmethod
    def from_mask(cls, params: GroupParams, mask: np.ndarray) -> "PointSet":
        return cls(params, tuple(int(i) for i in np.nonzero(mask)[0]))

    def __len__(self) -> int:
        return len(self.members)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.params.size, dtype=bool)
        m[list(self.members)] = True
        return m

    def density(self) -> DensityFunction:
        return DensityFunction(self.params, self.mask().astype(np.float64))

    def complement(self) -> "PointSet":
        return PointSet.from_mask(self.params, ~self.mask())


# ---------------------------------------------------------------------------
# File formats.
#
# .apf density file:  line 1 is "p n"; the remaining lines hold p^n
# whitespace-separated decimals in canonical index order.
# .aps set file:      line 1 is "p n"; line 2 holds the member indices
# in ascending order (blank for the empty set).


def _parse_header(line: str, path: str) -> GroupParams:
    parts = line.split()
    if len(parts) != 2:
        raise FileFormatError(f"{path}:1: header must be 'p n', got {line!r}")
    try:
        p, n = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FileFormatError(f"{path}:1: non-integer header field: {exc}") from exc
    try:
        return GroupParams(p, n)
    except ValueError as exc:
        raise FileFormatError(f"{path}:1: {exc}") from exc


def _read_lines(path: str) -> list[str]:
    """The whole file's str.splitlines() pieces; a non-ASCII byte raises
    UnicodeDecodeError at its offset in the file."""
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def _body_error(path: str, lines: list[str], size: int) -> FileFormatError:
    """The error for the first bad token of an .apf body, in file order."""
    count = 0
    for lineno, line in enumerate(lines[1:], start=2):
        for col, tok in enumerate(line.split(), start=1):
            if count >= size:
                return FileFormatError(f"{path}:{lineno}: body longer than p^n = {size}")
            try:
                v = float(tok)
            except ValueError:
                return FileFormatError(f"{path}:{lineno}: field {col}: bad value {tok!r}")
            if not 0.0 <= v <= 1.0:  # also false for NaN
                problem = "outside [0,1]" if math.isfinite(v) else "is not finite"
                return FileFormatError(f"{path}:{lineno}: field {col}: value {tok} {problem}")
            count += 1
    if count != size:
        return FileFormatError(f"{path}: body length {count} != p^n = {size}")
    raise RuntimeError(f"{path}: body failed to load but has no bad token")


def _read_density(fh, path: str, dtype) -> tuple[GroupParams, np.ndarray | None]:
    """The header and body of an open .apf file, read one line at a time
    into the real parts of a new `dtype` array, whose imaginary parts, if
    it has any, are left unset; the body is None if any of it is malformed."""
    first = fh.readline()
    if not first:
        raise FileFormatError(f"{path}:1: empty file")
    # The header is the first str.splitlines() piece, which also ends at \v,
    # \f and \x1c-\x1e; the rest of the file line is body.
    header = first.splitlines()[0]
    params = _parse_header(header, path)
    size = params.size
    values = np.empty(size, dtype=dtype)
    real = values.real  # values itself for a real dtype
    count = 0
    try:
        for line in itertools.chain((first[len(header) :],), fh):
            row = list(map(float, line.split()))
            end = count + len(row)
            if end > size:
                return params, None
            real[count:end] = row
            count = end
    except ValueError:  # a bad token, or a non-ASCII byte
        return params, None
    if count == size and 0.0 <= real.min() and real.max() <= 1.0:  # false for NaN
        return params, values
    return params, None


def _load(path: str, dtype) -> tuple[GroupParams, np.ndarray]:
    """The header and values of an .apf file, holding only a `dtype` array
    and one line of text, as `_read_density` reads them.

    A file that fails is read again whole, so the error is the first problem
    in file order, and a non-ASCII byte anywhere comes before the rest.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            params, values = _read_density(fh, path, dtype)
    except (ValueError, MemoryError):  # a bad first line, or too many values to allocate
        _read_lines(path)  # a non-ASCII byte anywhere in the file is reported first
        raise
    if values is None:
        raise _body_error(path, _read_lines(path), params.size)
    return params, values


def load_density(path: str) -> DensityFunction:
    """Load an .apf file, holding only the values and one line of text."""
    return DensityFunction(*_load(path, np.float64))


def load_density_complex(path: str) -> tuple[GroupParams, np.ndarray]:
    """An .apf file's group and values as a writable complex128 array with
    zero imaginary parts, to be transformed in place: accepted, refused and
    worded as `load_density` does, and with no float64 copy of the values."""
    params, values = _load(path, np.complex128)
    values.imag = 0.0
    return params, values


def save_density(f: DensityFunction, path: str) -> None:
    """Write 8 values a line at 17 significant digits, one block at a time."""
    vals = f.values
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{f.params.p} {f.params.n}\n")
        for start in range(0, len(vals), BLOCK):
            block = vals[start : start + BLOCK].tolist()
            full, rest = divmod(len(block), 8)
            fmt = ("%.17g " * 7 + "%.17g\n") * full
            if rest:
                fmt += " ".join(["%.17g"] * rest) + "\n"
            fh.write(fmt % tuple(block))


def load_set(path: str) -> PointSet:
    """Load an .aps file; an error names its first bad line and field."""
    lines = _read_lines(path)
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    params = _parse_header(lines[0], path)
    members = []
    last = -1
    for lineno, line in enumerate(lines[1:], start=2):
        for col, tok in enumerate(line.split(), start=1):
            try:
                i = int(tok)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: field {col}: bad index {tok!r}") from exc
            if not 0 <= i < params.size:
                raise FileFormatError(f"{path}:{lineno}: field {col}: index {i} out of range")
            if i <= last:
                raise FileFormatError(f"{path}:{lineno}: field {col}: indices must be ascending")
            members.append(i)
            last = i
    return PointSet(params, tuple(members))


def save_set(s: PointSet, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{s.params.p} {s.params.n}\n")
        fh.write(" ".join(str(i) for i in s.members) + "\n")
