"""Phase-space point containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SPoint", "SpinPoint", "SpinTuple", "DualPair"]


def _as_cstack(entries) -> np.ndarray:
    """Validate and return a complex array of matrices, shape (..., rows, cols)."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class SPoint:
    """A point (A, B) with A of shape (n, d) and B of shape (d, n).

    Both may carry the same leading batch axes, ``(..., n, d)`` and
    ``(..., d, n)``: a stack of points evaluated together.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _as_cstack(self.A)
        B = _as_cstack(self.B)
        n, d = A.shape[-2:]
        if B.shape != A.shape[:-2] + (d, n):
            raise ValueError(f"expected B of shape {A.shape[:-2] + (d, n)}, got {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[-2]

    @property
    def d(self) -> int:
        return self.A.shape[-1]


@dataclass(frozen=True)
class SpinPoint:
    """A single spin copy: a column vector ``a`` and a row covector ``b``.

    Both may carry the same leading batch axes, ``(..., n)``.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=complex))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        if a.shape != b.shape or a.size < 1:
            raise ValueError("a and b must be vectors of equal length >= 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[-1]

    def as_spoint(self) -> SPoint:
        """View the spin copy as an element of S(n, 1)."""
        return SPoint(self.a[..., :, None], self.b[..., None, :])


class SpinTuple:
    """An ordered tuple of d spin copies of uniform size n.

    The copies may carry the same leading batch axes, ``(..., n)``: a stack
    of tuples evaluated together.
    """

    __slots__ = ("spins",)

    def __init__(self, spins):
        spins = tuple(spins)
        if not spins:
            raise ValueError("need at least one spin copy")
        shape = spins[0].a.shape
        if any(s.a.shape != shape for s in spins):
            raise ValueError("all spin copies must share the same size and batch axes")
        self.spins = spins

    @property
    def n(self) -> int:
        return self.spins[0].n

    @property
    def d(self) -> int:
        return len(self.spins)

    def __iter__(self):
        return iter(self.spins)

    def __getitem__(self, i):
        return self.spins[i]

    def __len__(self):
        return len(self.spins)


@dataclass(frozen=True)
class DualPair:
    """An element (h_+, h_-) of the dual group: triangular with reciprocal diagonals.

    Both may carry the same leading batch axes, ``(..., l, l)``.
    """

    hplus: np.ndarray
    hminus: np.ndarray

    def __post_init__(self):
        hp = _as_cstack(self.hplus)
        hm = _as_cstack(self.hminus)
        if hp.shape[-2] != hp.shape[-1]:
            raise ValueError("h_+ must be square")
        if hm.shape != hp.shape:
            raise ValueError(f"expected h_- of shape {hp.shape}, got {hm.shape}")
        if np.any(np.tril(hp, -1) != 0):
            raise ValueError("h_+ must be upper triangular (exact zeros below)")
        if np.any(np.triu(hm, 1) != 0):
            raise ValueError("h_- must be lower triangular (exact zeros above)")
        dp = np.diagonal(hp, axis1=-2, axis2=-1)
        dm = np.diagonal(hm, axis1=-2, axis2=-1)
        if np.max(np.abs(dp * dm - 1.0)) > 1e-12 * max(1.0, np.max(np.abs(dp * dm))):
            raise ValueError("diagonals of h_+ and h_- must be reciprocal")
        object.__setattr__(self, "hplus", hp)
        object.__setattr__(self, "hminus", hm)

    @property
    def ell(self) -> int:
        return self.hplus.shape[-1]
