"""Deterministic sample-point generation.

Every sample is derived from an integer pair (seed, index): its entries are
the doubles of ``numpy.random.default_rng([seed, index]).random()``, bit for
bit, so sweeps are reproducible and order-independent regardless of how the
samples are scheduled.  plie computes that stream itself (NumPy's PCG64,
seeded through its ``SeedSequence``) rather than importing ``numpy.random``,
and keeps the doubles drawn so far from each recent (seed, index), so a
point asked for again, or a longer prefix of the same stream, is not seeded
and drawn anew.

Every ``sample_*`` function takes one index, which gives one point, or an
array of indices, which gives the stack of those points with the index
array's shape as leading batch axes.  A stacked point is bitwise equal to
the points drawn one index at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .points import DualPair, SPoint, SpinPoint, SpinTuple

__all__ = [
    "draw_disks",
    "sample_spoint",
    "sample_spin",
    "sample_tuple",
    "sample_gl",
    "sample_double",
    "sample_dual",
    "sample_vector",
]

# (seed, index) streams kept, least recently used dropped first.  A suite
# draws one chunk of sample indices from one seed once per point kind, so a
# stream is reused only while the memo holds at least that chunk's indices;
# the value is not tuned
_MEMO_SIZE = 512

_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
# SeedSequence's hash constants (NumPy's bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """The little-endian 32-bit words of a nonnegative int; [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg_start(seed: int, index: int) -> tuple:
    """PCG64's (state, inc) as ``default_rng([seed, index])`` seeds them."""
    entropy = _words(seed) + _words(index)
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value ^= h
        h = (h * _MULT_A) & _MASK32
        value = (value * h) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    h = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % 4] ^ h
        h = (h * _MULT_B) & _MASK32
        value = (value * h) & _MASK32
        state.append(value ^ (value >> 16))
    s0, s1, s2, s3 = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    # from state 0: step (to inc), add initstate = s0 * 2^64 + s1, step again
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc


class _Stream:
    """The doubles of one (seed, index) drawn so far, and the PCG state after them."""

    def __init__(self, seed: int, index: int):
        self._state, self._inc = _pcg_start(seed, index)
        self.doubles = np.empty(0)
        self.doubles.flags.writeable = False

    def prefix(self, k: int) -> np.ndarray:
        """The first k doubles, as a read-only array."""
        have = self.doubles.size
        if k > have:
            state, inc = self._state, self._inc
            new = []
            for _ in range(k - have):
                state = (state * _PCG_MULT + inc) & _MASK128
                hi = state >> 64
                x, rot = hi ^ (state & _MASK64), hi >> 58
                new.append(((x >> rot | x << (64 - rot)) & _MASK64) >> 11)
            self._state = state
            doubles = np.concatenate([self.doubles, np.array(new, dtype=float) * 2.0**-53])
            doubles.flags.writeable = False
            self.doubles = doubles
        return self.doubles[:k]


@lru_cache(maxsize=_MEMO_SIZE)
def _stream(seed: int, index: int) -> _Stream:
    return _Stream(seed, index)


def draw_disks(seed: int, index, parts) -> list:
    """Arrays of entries uniform on the closed complex disk, one for each
    (shape, radius) of ``parts``.  For each part in turn, the stream of
    (seed, i) gives the moduli's uniforms u, then the angles' v, as
    ``radius * sqrt(u) * exp(2 pi i v)``.

    A scalar ``index`` gives arrays of the parts' shapes; an index array
    gives them with its shape as leading axes, one row per index.
    ValueError for a negative seed or index, as ``SeedSequence`` raises.
    """
    index = np.asarray(index)
    shapes = [tuple(shape) if isinstance(shape, (tuple, list)) else (shape,) for shape, _ in parts]
    sizes = [math.prod(shape) for shape in shapes]
    total = 2 * sum(sizes)
    rows = np.empty((index.size, total))
    for row, i in enumerate(index.ravel().tolist()):
        rows[row] = _stream(int(seed), int(i)).prefix(total)
    out, start = [], 0
    for shape, size, (_, radius) in zip(shapes, sizes, parts):
        u, v = (np.ascontiguousarray(rows[:, s : s + size]).reshape(index.shape + shape) for s in (start, start + size))
        out.append(radius * np.sqrt(u) * np.exp(2j * np.pi * v))
        start += 2 * size
    return out


def sample_vector(seed: int, index, dim: int, radius: float) -> np.ndarray:
    """A flat point of shape (dim,), or (..., dim) for an index array."""
    return draw_disks(seed, index, [(dim, radius)])[0]


def sample_spoint(seed: int, index, n: int, d: int, radius: float) -> SPoint:
    return SPoint(*draw_disks(seed, index, [((n, d), radius), ((d, n), radius)]))


def sample_spin(seed: int, index, n: int, radius: float) -> SpinPoint:
    return SpinPoint(*draw_disks(seed, index, [(n, radius), (n, radius)]))


def sample_tuple(seed: int, index, n: int, d: int, radius: float) -> SpinTuple:
    vs = draw_disks(seed, index, [(n, radius)] * (2 * d))
    return SpinTuple(SpinPoint(vs[2 * k], vs[2 * k + 1]) for k in range(d))


def sample_gl(seed: int, index, ell: int, radius: float) -> np.ndarray:
    """A square matrix of disk entries."""
    return draw_disks(seed, index, [((ell, ell), radius)])[0]


def sample_double(seed: int, index, ell: int, radius: float):
    u, v = draw_disks(seed, index, [((ell, ell), radius)] * 2)
    return u, v


def sample_dual(seed: int, index, ell: int, radius: float) -> DualPair:
    """A dual-group element with diagonal kept away from zero."""
    up, lo, diag = draw_disks(seed, index, [((ell, ell), radius)] * 2 + [(ell, min(radius, 0.5))])
    diag += 1.0
    r = np.arange(ell)
    hp = np.triu(up, 1)
    hm = np.tril(lo, -1)
    hp[..., r, r] = diag
    hm[..., r, r] = 1.0 / diag
    return DualPair(hp, hm)
