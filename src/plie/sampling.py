"""Deterministic sample-point generation.

Every sample is derived from an integer pair (seed, index) through
``numpy.random.default_rng``, so sweeps are reproducible and order-independent
regardless of how the samples are scheduled.

Every ``sample_*`` function takes one index, which gives one point, or an
array of indices, which gives the stack of those points with the index
array's shape as leading batch axes.  A stacked point is bitwise equal to
the points drawn one index at a time.
"""

from __future__ import annotations

import numpy as np

from .points import DualPair, SPoint, SpinPoint, SpinTuple

__all__ = [
    "rng_for",
    "complex_disk",
    "draw_disks",
    "sample_spoint",
    "sample_spin",
    "sample_tuple",
    "sample_gl",
    "sample_double",
    "sample_dual",
    "sample_vector",
]


def rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _disk(u: np.ndarray, v: np.ndarray, radius: float) -> np.ndarray:
    return radius * np.sqrt(u) * np.exp(2j * np.pi * v)


def complex_disk(rng: np.random.Generator, shape, radius: float) -> np.ndarray:
    """Entries uniform on the closed complex disk of the given radius."""
    u = rng.random(shape)
    v = rng.random(shape)
    return _disk(u, v, radius)


def draw_disks(seed: int, index, parts) -> list:
    """The arrays ``complex_disk(rng, shape, radius)`` for each (shape, radius)
    of ``parts``, drawn in that order from ``rng_for(seed, i)``.

    A scalar ``index`` gives arrays of the parts' shapes; an index array
    gives them with its shape as leading axes, one row per index.
    """
    index = np.asarray(index)
    shapes = [tuple(np.atleast_1d(shape)) for shape, _ in parts]
    u = [np.empty((index.size,) + shape) for shape in shapes]
    v = [np.empty((index.size,) + shape) for shape in shapes]
    for row, i in enumerate(index.ravel()):
        rng = rng_for(seed, i)
        for k, shape in enumerate(shapes):
            u[k][row] = rng.random(shape)
            v[k][row] = rng.random(shape)
    return [
        _disk(uk, vk, radius).reshape(index.shape + shape)
        for uk, vk, shape, (_, radius) in zip(u, v, shapes, parts)
    ]


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
