"""numpy's PCG64 stream, drawn without importing numpy's random package,
which loads OpenSSL through `secrets` and `hmac`.

`PCG64(seed)` draws, bit for bit, what numpy's `Generator(PCG64(seed))`
draws for the three calls ap3 makes, each method named after the call it
replaces.  The generator is O'Neill's PCG XSL-RR 128/64: a 128-bit LCG state
s -> A*s + C, output rotr64(hi ^ lo, hi >> 58) of the new state.  Seeding
ports numpy's `SeedSequence` hash-mix (pool of 4 words) and
`pcg_setseq_128_srandom_r`; bounded draws use Lemire's multiply-and-reject,
as numpy does.
"""

from __future__ import annotations

import os

import numpy as np

_M32 = 2**32 - 1
_M64 = 2**64 - 1
_M128 = 2**128 - 1

# PCG_DEFAULT_MULTIPLIER_128.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# States `uint64` computes at once from the jump table: temporaries hold a
# few blocks, whatever the size of the draw.
BLOCK = 2**12

# SeedSequence's hash constants, from numpy's bit_generator.pyx.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _seed_words(entropy: int) -> list[int]:
    """SeedSequence(entropy).generate_state(4, np.uint64), as ints."""
    words = [entropy & _M32]
    while entropy > _M32:
        entropy >>= 32
        words.append(entropy & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    # Eight 32-bit words read as four little-endian 64-bit words.
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _mul_add(a_hi, a_lo, s: int, c_hi, c_lo):
    """(A*s + C) mod 2^128 for 128-bit A and C held as uint64 (hi, lo)
    arrays and an int s; the high word of a_lo*s_lo comes from 32-bit
    halves."""
    s_hi, s_lo = np.uint64(s >> 64), np.uint64(s & _M64)
    b0, b1 = np.uint64(s & _M32), np.uint64(s >> 32 & _M32)
    a0 = a_lo & _M32
    a1 = a_lo >> 32
    t = a0 * b0
    u = a1 * b0 + (t >> 32)
    v = a0 * b1 + (u & _M32)
    hi = a1 * b1 + (u >> 32) + (v >> 32)
    hi += a_lo * s_hi + a_hi * s_lo
    lo = a_lo * s_lo + c_lo
    hi += c_hi + (lo < c_lo)
    return hi, lo


def _jump_table(inc: int):
    """(A_j, C_j) for j = 1..BLOCK as uint64 arrays (A_hi, A_lo, C_hi, C_lo),
    with s_(k+j) = A_j*s_k + C_j; doubled from j = 1, since
    A_(m+i) = A_i*A_m and C_(m+i) = A_i*C_m + C_i."""

    def limbs(x: int):
        return np.array([x >> 64], np.uint64), np.array([x & _M64], np.uint64)

    a, c = limbs(_MULT), limbs(inc)
    zero = np.zeros(1, np.uint64)
    while len(a[0]) < BLOCK:
        a_m = int(a[0][-1]) << 64 | int(a[1][-1])
        c_m = int(c[0][-1]) << 64 | int(c[1][-1])
        a2 = _mul_add(*a, a_m, zero, zero)
        c2 = _mul_add(*a, c_m, *c)
        a = tuple(np.concatenate(pair) for pair in zip(a, a2))
        c = tuple(np.concatenate(pair) for pair in zip(c, c2))
    return a + c


class PCG64:
    """One seeded stream; each draw continues it.

    seed=None takes 128 bits from os.urandom, as numpy takes them from
    `secrets`.  A negative seed raises ValueError, as in numpy.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = int.from_bytes(os.urandom(16), "little")
        if seed < 0:
            raise ValueError("expected non-negative integer")
        w = _seed_words(seed)
        # pcg_setseq_128_srandom_r: step from 0 (which gives inc), add the
        # initial state, step again.
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self._state = self._step(self._inc + (w[0] << 64 | w[1]))
        # numpy's next32 buffer: the high half of the last 64-bit draw,
        # returned by the next 32-bit draw.
        self._half: int | None = None
        self._jumps = None

    def _step(self, s: int) -> int:
        return (s * _MULT + self._inc) & _M128

    def _next64(self) -> int:
        self._state = s = self._step(self._state)
        hi = s >> 64
        x = hi ^ (s & _M64)
        r = hi >> 58
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def uint64(self, size: int) -> np.ndarray:
        """integers(0, 2**64, size, dtype=np.uint64): one state per value."""
        if self._jumps is None:
            self._jumps = _jump_table(self._inc)
        a_hi, a_lo, c_hi, c_lo = self._jumps
        out = np.empty(size, dtype=np.uint64)
        s = self._state
        for start in range(0, size, BLOCK):
            k = min(BLOCK, size - start)
            hi, lo = _mul_add(a_hi[:k], a_lo[:k], s, c_hi[:k], c_lo[:k])
            s = int(hi[-1]) << 64 | int(lo[-1])
            lo ^= hi  # the XSL-RR output of each state
            hi >>= 58
            np.bitwise_or(lo >> hi, lo << (64 - hi & 63), out=out[start : start + k])
        self._state = s
        return out

    def integers(self, high: int, size: int) -> np.ndarray:
        """integers(0, high, size) (int64): 32-bit Lemire draws on the
        buffered next32 while high <= 2^32, 64-bit ones on next64 above."""
        if not 1 <= high <= 2**63:
            raise ValueError(f"high={high} out of range [1, 2**63]")
        if high == 1:
            return np.zeros(size, dtype=np.int64)
        bits, draw = (32, self._next32) if high <= 2**32 else (64, self._next64)
        mask = 2**bits - 1
        threshold = (2**bits - high) % high
        out = []
        for _ in range(size):
            m = draw() * high
            while m & mask < threshold:
                m = draw() * high
            out.append(m >> bits)
        return np.array(out, dtype=np.int64)

    def random(self, size: int) -> np.ndarray:
        """random(size): floats (u >> 11) * 2^-53 in [0, 1)."""
        return (self.uint64(size) >> 11) * 2.0**-53
