"""Deterministic sample-point generation.

Every sample is derived from an integer pair (seed, index) through
``numpy.random.default_rng``, so sweeps are reproducible and order-independent
regardless of how the samples are scheduled.
"""

from __future__ import annotations

import numpy as np

from .points import DualPair, SPoint, SpinPoint, SpinTuple

__all__ = [
    "rng_for",
    "complex_disk",
    "sample_spoint",
    "sample_spin",
    "sample_tuple",
    "sample_gl",
    "sample_double",
    "sample_dual",
    "sample_vector",
    "sample_vectors",
]

def rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def complex_disk(rng: np.random.Generator, shape, radius: float) -> np.ndarray:
    """Entries uniform on the closed complex disk of the given radius."""
    u = rng.random(shape)
    v = rng.random(shape)
    return radius * np.sqrt(u) * np.exp(2j * np.pi * v)


def sample_vector(seed: int, index: int, dim: int, radius: float) -> np.ndarray:
    return complex_disk(rng_for(seed, index), dim, radius)


def sample_vectors(seed: int, indices, dim: int, radius: float) -> np.ndarray:
    """The stack of ``sample_vector(seed, i, dim, radius)`` over ``indices``, shape (S, dim)."""
    u = np.empty((len(indices), dim))
    v = np.empty((len(indices), dim))
    for row, i in enumerate(indices):
        rng = rng_for(seed, i)
        u[row] = rng.random(dim)
        v[row] = rng.random(dim)
    return radius * np.sqrt(u) * np.exp(2j * np.pi * v)


def sample_spoint(seed: int, index: int, n: int, d: int, radius: float) -> SPoint:
    rng = rng_for(seed, index)
    return SPoint(complex_disk(rng, (n, d), radius), complex_disk(rng, (d, n), radius))


def sample_spin(seed: int, index: int, n: int, radius: float) -> SpinPoint:
    rng = rng_for(seed, index)
    return SpinPoint(complex_disk(rng, n, radius), complex_disk(rng, n, radius))


def sample_tuple(seed: int, index: int, n: int, d: int, radius: float) -> SpinTuple:
    rng = rng_for(seed, index)
    return SpinTuple(
        SpinPoint(complex_disk(rng, n, radius), complex_disk(rng, n, radius)) for _ in range(d)
    )


def sample_gl(seed: int, index: int, ell: int, radius: float, near_identity: bool = False) -> np.ndarray:
    """A square matrix; with near_identity, I plus a disk perturbation (invertible)."""
    rng = rng_for(seed, index)
    m = complex_disk(rng, (ell, ell), radius)
    return np.eye(ell) + m if near_identity else m


def sample_double(seed: int, index: int, ell: int, radius: float):
    rng = rng_for(seed, index)
    return complex_disk(rng, (ell, ell), radius), complex_disk(rng, (ell, ell), radius)


def sample_dual(seed: int, index: int, ell: int, radius: float) -> DualPair:
    """A dual-group element with diagonal kept away from zero."""
    rng = rng_for(seed, index)
    hp = np.triu(complex_disk(rng, (ell, ell), radius), 1)
    hm = np.tril(complex_disk(rng, (ell, ell), radius), -1)
    diag = 1.0 + complex_disk(rng, ell, min(radius, 0.5))
    hp[np.diag_indices(ell)] = diag
    hm[np.diag_indices(ell)] = 1.0 / diag
    return DualPair(hp, hm)
