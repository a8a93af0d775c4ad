"""NumPy kernels of the raw (unsymmetrized) coordinate-bracket matrices.

``quadratic`` is the sign-weighted block (kappa/2)(c0 + c_row sgn(i-k) +
c_col sgn(j-l)) M_il N_kj that every r-matrix bracket is built from.  The
S(n,d) fills take stacks: ``A`` of shape ``(..., n, d)`` and ``B`` of shape
``(..., d, n)`` give a matrix of shape ``(..., 2nd, 2nd)`` per point, in the
S(n,d) chart: A(i,alpha) row-major, then B(alpha,i) row-major.  A single
point is the batch shape ``()``.  A fill is valid on and above the block
diagonal: it writes the AA, BB and AB blocks and leaves the BA block zero,
for ``brackets.antisymmetrize`` to mirror.  The kernels take plain arrays,
such as the views of the flat coordinates that :mod:`plie.brackets` reads
from :mod:`plie.charts`; no kernel builds or validates a point container.

Every Kronecker-delta term of a fill, here and in :mod:`plie.brackets`, is
written in place through a diagonal view such as
``np.einsum("...iaai->...ia", X)`` of an array the fill has just allocated;
NumPy returns those views writable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["sign_grid", "quadratic", "fill_s", "fill_hat"]


@lru_cache(maxsize=None)
def sign_grid(m: int) -> np.ndarray:
    """S[i, k] = sgn(i - k) as a read-only float array."""
    r = np.arange(m)
    S = np.sign(np.subtract.outer(r, r)).astype(float)
    S.flags.writeable = False
    return S


@lru_cache(maxsize=None)
def _quadratic_grid(r: int, c: int, c0: float, c_row: float, c_col: float) -> np.ndarray:
    """W[(i,j),(k,l)] = c0 + c_row sgn(i-k) + c_col sgn(j-l) as a read-only (rc, rc) array."""
    W = c0 + c_row * sign_grid(r)[:, None, :, None] + c_col * sign_grid(c)[None, :, None, :]
    W = W.reshape(r * c, r * c)
    W.flags.writeable = False
    return W


def quadratic(M, N, kappa: complex, c0: float, c_row: float, c_col: float, rows=None, cols=None) -> np.ndarray:
    """(kappa/2)(c0 + c_row sgn(i-k) + c_col sgn(j-l)) M_il N_kj at [(i,j), (k,l)].

    ``M`` and ``N`` are stacks of shape ``(..., r, c)``; the result has shape
    ``(..., r c, r c)`` with rows and columns in row-major (i, j) order.
    ``rows`` and ``cols``, given together, are arrays of flat positions
    i c + j and k c + l: the result is then the (..., len(rows), len(cols))
    block at those rows and columns, bit for bit.
    """
    M = np.asarray(M, dtype=complex)
    N = np.asarray(N, dtype=complex)
    r, c = M.shape[-2:]
    W = _quadratic_grid(r, c, c0, c_row, c_col)
    if rows is None:
        batch = M.shape[:-2]
        if N.shape[:-2] != batch:
            batch = np.broadcast_shapes(batch, N.shape[:-2])
        P = np.empty(batch + (r, c, r, c), dtype=complex)  # axes (i, j, k, l), C order
        np.multiply(M[..., :, None, None, :], N.swapaxes(-1, -2)[..., None, :, :, None], out=P)
        P = P.reshape(batch + (r * c, r * c))
    else:
        (i, j), (k, l) = divmod(rows[:, None], c), divmod(cols[None, :], c)
        P = M[..., i, l] * N[..., k, j]
        W = W[rows[:, None], cols]
    return np.multiply((0.5 * kappa) * W, P, out=P)  # in place, in the operand order of (kappa/2) W P


def _fill(A, B, kappa: complex, hat: bool, cross_const: complex) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    n, d = A.shape[-2:]
    batch = A.shape[:-2]
    nd = n * d
    s = -1.0 if hat else 1.0
    half = 0.5 * kappa

    M = np.zeros(batch + (2 * nd, 2 * nd), dtype=complex)
    # {A_i^a, A_k^b} = (kappa/2)(s sgn(i-k) - sgn(a-b)) A_i^b A_k^a
    M[..., :nd, :nd] = quadratic(A, A, kappa, 0.0, s, -1.0)
    # {B_i^a, B_k^b} = (kappa/2)(sgn(a-b) - s sgn(i-k)) B_k^a B_i^b,  B_i^a = B[a,i]
    M[..., nd:, nd:] = quadratic(B, B, kappa, 0.0, 1.0, -s)

    # {A_i^a, B_k^b}, axes (i, a, b, k):
    #   s delta_ik [ (k/2) A_i^a B_i^b + k sum_{t>i} A_t^a B_t^b ]
    # + s delta_ab [ (k/2) A_i^a B_k^a + k sum_{mu<a} A_i^mu B_k^mu ]   (S: mu < a)
    #                                    k sum_{mu>a} ...               (hat: mu > a)
    # + cross_const delta_ab delta_ik
    diag_ik = np.einsum("...ia,...bi->...iab", A, B)  # A_i^a B_i^b
    tail = np.cumsum(diag_ik[..., ::-1, :, :], axis=-3)[..., ::-1, :, :] - diag_ik
    im = np.einsum("...im,...mk->...imk", A, B)  # A_i^mu B_k^mu
    if hat:
        part = np.cumsum(im[..., ::-1, :], axis=-2)[..., ::-1, :] - im
    else:
        part = np.cumsum(im, axis=-2) - im
    T_ik = half * diag_ik + kappa * tail
    T_ab = half * im + kappa * part
    if hat:
        np.negative(T_ik, out=T_ik)
        np.negative(T_ab, out=T_ab)

    # the three delta terms, written through diagonal views of the (i, a, b, k) cross block
    AB = np.zeros(batch + (n, d, d, n), dtype=complex)
    np.einsum("...iabi->...iab", AB)[...] = T_ik
    np.einsum("...iaak->...iak", AB)[...] += T_ab
    np.einsum("...iaai->...ia", AB)[...] += cross_const
    M[..., :nd, nd:] = AB.reshape(batch + (nd, nd))
    return M


def fill_s(A: np.ndarray, B: np.ndarray, kappa: complex, cross_const: complex) -> np.ndarray:
    """Raw bracket matrix of the covariant bracket on S(n,d) and its relatives.

    ``cross_const`` is the coefficient of delta_{ab} delta_{ik} in the
    cross bracket: +kappa for the covariant bracket itself; the minus
    oscillator bracket at kappa is this fill at -kappa with -1.
    """
    return _fill(A, B, kappa, False, cross_const)


def fill_hat(A: np.ndarray, B: np.ndarray, kappa: complex, cross_const: complex) -> np.ndarray:
    """Raw bracket matrix shared by the oscillator-type brackets on S(n,d).

    ``cross_const`` is the coefficient of delta_{ab} delta_{ik} in the
    cross bracket: +kappa for the primed bracket, -1 for the plus bracket.
    """
    return _fill(A, B, kappa, True, cross_const)
