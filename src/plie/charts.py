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
* ``C2n(n)``       -- a_1..n then b_1..n (also used for the real Zakrzewski
                      chart with u and u-bar).
"""

from __future__ import annotations

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
    "pack_spin",
    "unpack_spin",
    "glstar_free_indices",
]


# packing ------------------------------------------------------------------
#
# Every packer and unpacker keeps leading batch axes: a flat vector of shape
# (..., dim) unpacks to a point whose arrays carry the same leading axes.


def _lead(x: np.ndarray, k: int) -> tuple:
    """Leading batch axes of an array whose last ``k`` axes are one point."""
    return x.shape[: x.ndim - k]


def pack_spoint(p: SPoint) -> np.ndarray:
    b = _lead(p.A, 2)
    return np.concatenate([p.A.reshape(b + (-1,)), p.B.reshape(b + (-1,))], axis=-1)


def unpack_spoint(x: np.ndarray, n: int, d: int) -> SPoint:
    x = np.asarray(x, dtype=complex)
    b = _lead(x, 1)
    return SPoint(x[..., : n * d].reshape(b + (n, d)), x[..., n * d :].reshape(b + (d, n)))


def pack_tuple(t: SpinTuple) -> np.ndarray:
    return np.concatenate([v for s in t for v in (s.a, s.b)], axis=-1)


def unpack_tuple(x: np.ndarray, n: int, d: int) -> SpinTuple:
    x = np.asarray(x, dtype=complex)
    spins = []
    for a in range(d):
        blk = x[..., 2 * n * a : 2 * n * (a + 1)]
        spins.append(SpinPoint(blk[..., :n], blk[..., n:]))
    return SpinTuple(spins)


def pack_spin(s: SpinPoint) -> np.ndarray:
    return np.concatenate([s.a, s.b], axis=-1)


def unpack_spin(x: np.ndarray, n: int) -> SpinPoint:
    x = np.asarray(x, dtype=complex)
    return SpinPoint(x[..., :n], x[..., n:])


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


def glstar_free_indices(ell: int) -> np.ndarray:
    """Positions of the GLstar free coordinates inside the D(l) chart."""
    idx = [i * ell + j for i in range(ell) for j in range(i + 1, ell)]
    idx += [j * ell + j for j in range(ell)]
    idx += [ell * ell + i * ell + j for i in range(1, ell) for j in range(i)]
    return np.array(idx, dtype=int)


def pack_dual(pair: DualPair) -> np.ndarray:
    full = pack_double(pair.hplus, pair.hminus)
    return full[..., glstar_free_indices(pair.ell)]


def unpack_dual(x: np.ndarray, ell: int) -> DualPair:
    x = np.asarray(x, dtype=complex)
    b = _lead(x, 1)
    n_up = ell * (ell - 1) // 2
    diag = x[..., n_up : n_up + ell]
    if np.any(diag == 0):
        raise ValueError("h_+ diagonal must be invertible")
    r = np.arange(ell)
    up = np.triu_indices(ell, 1)  # row-major, as in the chart
    lo = np.tril_indices(ell, -1)
    hp = np.zeros(b + (ell, ell), dtype=complex)
    hm = np.zeros(b + (ell, ell), dtype=complex)
    hp[..., up[0], up[1]] = x[..., :n_up]
    hp[..., r, r] = diag
    hm[..., r, r] = 1.0 / diag
    hm[..., lo[0], lo[1]] = x[..., n_up + ell :]
    return DualPair(hp, hm)
