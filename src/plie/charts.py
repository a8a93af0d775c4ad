"""Coordinate charts: flat indexing of matrix entries for each phase space.

Every bracket evaluator works on a flat complex coordinate vector; the
functions here translate between structured points and those vectors.
Orderings (all row-major, indices 1-based):

* ``S(n,d)``       -- A(i,alpha) for i=1..n, alpha=1..d, then B(alpha,i).
* ``Sprod(n,d)``   -- per copy alpha: a^alpha_1..n then b^alpha_1..n.
* ``GL(l)``        -- g(i,j).
* ``D(l)``         -- u entries then v entries.
* ``GLstar(l)``    -- strict upper of h_+, diagonal of h_+, strict lower of
                      h_-; the diagonal of h_- is dependent, (h_-)_jj = 1/(h_+)_jj.
* ``C2n(n)``       -- a_1..n then b_1..n; the real Zakrzewski bracket,
                      ZakC at kappa = -2i epsilon, reads u and u-bar here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .points import DualPair, SPoint, SpinPoint, SpinTuple

__all__ = [
    "pack_spoint",
    "unpack_spoint",
    "pack_tuple",
    "unpack_tuple",
    "pack_gl",
    "unpack_gl",
    "pack_double",
    "unpack_double",
    "pack_dual",
    "unpack_dual",
    "unpack_spin",
    "glstar_free_indices",
]


# packing ------------------------------------------------------------------
#
# Every packer and unpacker keeps leading batch axes: a flat vector of shape
# (..., dim) unpacks to a point whose arrays carry the same leading axes.
# The public unpackers return validated point containers; the bracket fills
# read the same arrays from the private ``_*_arrays`` helpers, which take
# complex coordinates, build no container and leave the finiteness check to
# their caller: the container, or the fill's one check of x.


def _lead(x: np.ndarray, k: int) -> tuple:
    """Leading batch axes of an array whose last ``k`` axes are one point."""
    return x.shape[: x.ndim - k]


def pack_spoint(p: SPoint) -> np.ndarray:
    b = _lead(p.A, 2)
    return np.concatenate([p.A.reshape(b + (-1,)), p.B.reshape(b + (-1,))], axis=-1)


def _spoint_arrays(x: np.ndarray, n: int, d: int):
    """A of shape (..., n, d) and B of shape (..., d, n), as views of x."""
    b = _lead(x, 1)
    return x[..., : n * d].reshape(b + (n, d)), x[..., n * d :].reshape(b + (d, n))


def unpack_spoint(x: np.ndarray, n: int, d: int) -> SPoint:
    return SPoint(*_spoint_arrays(np.asarray(x, dtype=complex), n, d))


def pack_tuple(t: SpinTuple) -> np.ndarray:
    return np.concatenate([v for s in t for v in (s.a, s.b)], axis=-1)


def _tuple_arrays(x: np.ndarray, n: int, d: int):
    """a and b of shape (..., d, n), row alpha being copy alpha, as views of x."""
    ab = x.reshape(_lead(x, 1) + (d, 2, n))
    return ab[..., 0, :], ab[..., 1, :]


def unpack_tuple(x: np.ndarray, n: int, d: int) -> SpinTuple:
    a, b = _tuple_arrays(np.asarray(x, dtype=complex), n, d)
    return SpinTuple(SpinPoint(a[..., k, :], b[..., k, :]) for k in range(d))


def _spin_arrays(x: np.ndarray, n: int):
    """a and b of shape (..., n), as views of x."""
    return x[..., :n], x[..., n:]


def unpack_spin(x: np.ndarray, n: int) -> SpinPoint:
    return SpinPoint(*_spin_arrays(np.asarray(x, dtype=complex), n))


def pack_gl(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    return g.reshape(_lead(g, 2) + (-1,))


def unpack_gl(x: np.ndarray, ell: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return x.reshape(_lead(x, 1) + (ell, ell))


def pack_double(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.concatenate([pack_gl(u), pack_gl(v)], axis=-1)


def unpack_double(x: np.ndarray, ell: int):
    x = np.asarray(x, dtype=complex)
    b = _lead(x, 1)
    return x[..., : ell * ell].reshape(b + (ell, ell)), x[..., ell * ell :].reshape(b + (ell, ell))


@lru_cache(maxsize=16)
def _dual_index(ell: int) -> tuple:
    """Read-only index arrays of the GLstar chart: the diagonal; the strict
    upper and strict lower (row, column) pairs in row-major order; and the
    flat positions of the free coordinates, in chart order, inside the D(l)
    chart, and split into those in h_+ and those in h_-."""
    r = np.arange(ell)
    up = np.triu_indices(ell, 1)  # row-major, as in the chart
    lo = np.tril_indices(ell, -1)
    free_u = np.concatenate([up[0] * ell + up[1], r * (ell + 1)])
    free_v = lo[0] * ell + lo[1]
    free = np.concatenate([free_u, ell * ell + free_v])
    for t in (r, *up, *lo, free, free_u, free_v):
        t.flags.writeable = False
    return r, up, lo, (free, free_u, free_v)


def glstar_free_indices(ell: int) -> np.ndarray:
    """Positions of the GLstar free coordinates inside the D(l) chart, as a
    read-only array cached per l."""
    return _dual_index(ell)[3][0]


def pack_dual(pair: DualPair) -> np.ndarray:
    full = pack_double(pair.hplus, pair.hminus)
    return full[..., glstar_free_indices(pair.ell)]


def _dual_arrays(x: np.ndarray, ell: int):
    """h_+ and h_- of shape (..., l, l); ValueError if a diagonal entry of h_+
    is 0, or so small that its inverse, on the diagonal of h_-, overflows."""
    b = _lead(x, 1)
    n_up = ell * (ell - 1) // 2
    diag = x[..., n_up : n_up + ell]
    if np.any(diag == 0):
        raise ValueError("h_+ diagonal must be invertible")
    inv = 1.0 / diag
    if not np.isfinite(inv).all():
        raise ValueError("h_- diagonal, the inverse of h_+'s, has non-finite entries")
    r, up, lo, _ = _dual_index(ell)
    hp = np.zeros(b + (ell, ell), dtype=complex)
    hm = np.zeros(b + (ell, ell), dtype=complex)
    hp[..., up[0], up[1]] = x[..., :n_up]
    hp[..., r, r] = diag
    hm[..., r, r] = inv
    hm[..., lo[0], lo[1]] = x[..., n_up + ell :]
    return hp, hm


def unpack_dual(x: np.ndarray, ell: int) -> DualPair:
    return DualPair(*_dual_arrays(np.asarray(x, dtype=complex), ell))
