"""Canonical model of F_p^n: parameters, element arithmetic, density
functions, point sets, and the .apf/.aps text formats.

Elements are indexed little-endian base p: index = sum(digit_k * p**k),
with coordinate 0 the least significant digit.  Every array, file, and
transform in this package uses that one order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Slack allowed on [0,1] membership after floating-point round trips.
RANGE_SLACK = 1e-12

# p^n must stay comfortably inside int64 indexing.
MAX_SIZE = 2**62


class FileFormatError(ValueError):
    """Malformed .apf or .aps file."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, math.isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """The group F_p^n for an odd prime p and dimension n >= 1."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.p < 3:
            # Over F_2, m+2d == m and every progression degenerates, so we
            # reject p=2 outright rather than return meaningless counts.
            raise ValueError("p must be an odd prime >= 3")
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")
        if self.p**self.n > MAX_SIZE:
            raise ValueError(f"p^n = {self.p}^{self.n} exceeds the supported index range")

    @property
    def size(self) -> int:
        return self.p**self.n


@lru_cache(maxsize=None)
def digit_table(p: int, n: int) -> np.ndarray:
    """(p^n, n) array: row i holds the little-endian base-p digits of i."""
    idx = np.arange(p**n, dtype=np.int64)
    digits = np.empty((p**n, n), dtype=np.int64)
    q = idx
    for k in range(n):
        digits[:, k] = q % p
        q = q // p
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=None)
def place_values(p: int, n: int) -> np.ndarray:
    v = p ** np.arange(n, dtype=np.int64)
    v.setflags(write=False)
    return v


def index_to_digits(i: int, params: GroupParams) -> tuple[int, ...]:
    if not 0 <= i < params.size:
        raise ValueError(f"index {i} out of range [0, {params.size})")
    return tuple(int(d) for d in digit_table(params.p, params.n)[i])


def digits_to_index(digits: Sequence[int], params: GroupParams) -> int:
    if len(digits) != params.n:
        raise ValueError(f"expected {params.n} digits, got {len(digits)}")
    pv = place_values(params.p, params.n)
    return int(sum((int(d) % params.p) * int(v) for d, v in zip(digits, pv)))


def add_indices(a, b, params: GroupParams):
    """Digit-wise mod-p addition of element indices; broadcasts like numpy."""
    t = digit_table(params.p, params.n)
    pv = place_values(params.p, params.n)
    da = t[np.asarray(a, dtype=np.int64)]
    db = t[np.asarray(b, dtype=np.int64)]
    return ((da + db) % params.p) @ pv


def sub_indices(a, b, params: GroupParams):
    t = digit_table(params.p, params.n)
    pv = place_values(params.p, params.n)
    da = t[np.asarray(a, dtype=np.int64)]
    db = t[np.asarray(b, dtype=np.int64)]
    return ((da - db) % params.p) @ pv


def scale_indices(a, c: int, params: GroupParams):
    t = digit_table(params.p, params.n)
    pv = place_values(params.p, params.n)
    return ((t[np.asarray(a, dtype=np.int64)] * (c % params.p)) % params.p) @ pv


@lru_cache(maxsize=None)
def scale_map(p: int, n: int, c: int) -> np.ndarray:
    """Read-only map from each index i to the index of c*i."""
    out = scale_indices(np.arange(p**n), c, GroupParams(p, n))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Element:
    """One point of F_p^n, held by index with digit-wise arithmetic."""

    params: GroupParams
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.params.size:
            raise ValueError(f"index {self.index} out of range [0, {self.params.size})")

    @property
    def digits(self) -> tuple[int, ...]:
        return index_to_digits(self.index, self.params)

    def _check(self, other: "Element") -> None:
        if other.params != self.params:
            raise ValueError("mismatched group parameters")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.params, int(add_indices(self.index, other.index, self.params)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.params, int(sub_indices(self.index, other.index, self.params)))

    def scale(self, c: int) -> "Element":
        return Element(self.params, int(scale_indices(self.index, c, self.params)))

    def __neg__(self) -> "Element":
        return self.scale(self.params.p - 1)


def elem_op(a: Element, b: Element, op: str) -> Element:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    raise ValueError(f"unknown op {op!r}")


@dataclass(frozen=True, eq=False)
class DensityFunction:
    """A map F_p^n -> [0,1], stored as p^n values in canonical index order."""

    params: GroupParams
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.params.size,):
            raise ValueError(f"expected {self.params.size} values, got shape {vals.shape}")
        finite = np.isfinite(vals)
        if not finite.all():
            raise ValueError(f"non-finite value at index {int(np.argmin(finite))}")
        if vals.min() < -RANGE_SLACK or vals.max() > 1.0 + RANGE_SLACK:
            raise ValueError(
                f"values outside [0,1]: min={vals.min()!r} max={vals.max()!r}"
            )
        vals = np.clip(vals, 0.0, 1.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, params: GroupParams, c: float) -> "DensityFunction":
        return cls(params, np.full(params.size, float(c)))

    @property
    def is_indicator(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))

    def support(self) -> "PointSet":
        return PointSet(self.params, tuple(int(i) for i in np.nonzero(self.values)[0]))

    def expectation(self) -> float:
        return math.fsum(self.values) / self.params.size


@dataclass(frozen=True)
class PointSet:
    """A subset of F_p^n as a sorted tuple of element indices."""

    params: GroupParams
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted({int(i) for i in self.members}))
        for i in members:
            if not 0 <= i < self.params.size:
                raise ValueError(f"member {i} out of range [0, {self.params.size})")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_mask(cls, params: GroupParams, mask: np.ndarray) -> "PointSet":
        return cls(params, tuple(int(i) for i in np.nonzero(mask)[0]))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return bool(self.mask()[i])

    def mask(self) -> np.ndarray:
        m = np.zeros(self.params.size, dtype=bool)
        m[list(self.members)] = True
        return m

    def density(self) -> DensityFunction:
        return DensityFunction(self.params, self.mask().astype(np.float64))

    def complement(self) -> "PointSet":
        return PointSet.from_mask(self.params, ~self.mask())

    def fraction(self) -> Fraction:
        return Fraction(len(self.members), self.params.size)


def expectation(f: DensityFunction, over=None) -> float:
    """Mean of f over the whole group, a PointSet, a Subspace, or raw indices."""
    if over is None:
        return f.expectation()
    if isinstance(over, PointSet):
        idx = np.array(over.members, dtype=np.int64)
    elif hasattr(over, "elements"):  # Subspace without importing the module
        idx = np.asarray(over.elements(), dtype=np.int64)
    else:
        idx = np.asarray(list(over), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot average over an empty subset")
    return math.fsum(f.values[idx]) / idx.size


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


def load_density(path: str) -> DensityFunction:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    params = _parse_header(lines[0], path)
    values = np.empty(params.size, dtype=np.float64)
    count = 0
    for lineno, line in enumerate(lines[1:], start=2):
        for col, tok in enumerate(line.split(), start=1):
            if count >= params.size:
                raise FileFormatError(
                    f"{path}:{lineno}: body longer than p^n = {params.size}"
                )
            try:
                v = float(tok)
            except ValueError as exc:
                raise FileFormatError(
                    f"{path}:{lineno}: field {col}: bad value {tok!r}"
                ) from exc
            if not 0.0 <= v <= 1.0:  # also false for NaN
                problem = "outside [0,1]" if math.isfinite(v) else "is not finite"
                raise FileFormatError(f"{path}:{lineno}: field {col}: value {tok} {problem}")
            values[count] = v
            count += 1
    if count != params.size:
        raise FileFormatError(
            f"{path}: body length {count} != p^n = {params.size}"
        )
    return DensityFunction(params, values)


def save_density(f: DensityFunction, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{f.params.p} {f.params.n}\n")
        vals = [format(v, ".17g") for v in f.values]
        for start in range(0, len(vals), 8):
            fh.write(" ".join(vals[start : start + 8]) + "\n")


def load_set(path: str) -> PointSet:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    params = _parse_header(lines[0], path)
    tokens = " ".join(lines[1:]).split()
    members = []
    last = -1
    for col, tok in enumerate(tokens, start=1):
        try:
            i = int(tok)
        except ValueError as exc:
            raise FileFormatError(f"{path}:2: field {col}: bad index {tok!r}") from exc
        if not 0 <= i < params.size:
            raise FileFormatError(f"{path}:2: field {col}: index {i} out of range")
        if i <= last:
            raise FileFormatError(f"{path}:2: field {col}: indices must be ascending")
        members.append(i)
        last = i
    return PointSet(params, tuple(members))


def save_set(s: PointSet, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{s.params.p} {s.params.n}\n")
        fh.write(" ".join(str(i) for i in s.members) + "\n")
