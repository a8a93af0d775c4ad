"""Triangular factorizations: Gauss decomposition, the 2-to-the-n local
square-root factorization chi^{-1}, and the closed-form spin factorization
(g_+, g_-) with its ordered products.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchCut, SingularMinor, ZeroG
from .points import DualPair, SPoint, SpinPoint, SpinTuple

__all__ = [
    "gauss",
    "chi",
    "chi_inverse_local",
    "factor_inv_pair",
    "g_functions",
    "g_factors",
    "g_pm",
    "gamma",
    "gamma_pm",
    "calG_pm",
]

_MINOR_RTOL = 1e-12
_CUT_RTOL = 1e-13


def _principal_sqrt(values: np.ndarray) -> np.ndarray:
    """Principal square roots, entrywise over (..., k); an entry on the negative
    real axis raises BranchCut with its 1-based index along the last axis."""
    cut = (values.real < 0) & (np.abs(values.imag) <= _CUT_RTOL * np.abs(values))
    if np.any(cut):
        at = tuple(np.argwhere(cut)[0])
        raise BranchCut(int(at[-1]) + 1, complex(values[at]))
    return np.sqrt(np.asarray(values, dtype=complex))


def gauss(g: np.ndarray):
    """Factor g = g_gt * g_0 * g_lt (unit upper, diagonal, unit lower).

    Elimination proceeds from the bottom-right corner; the pivots are ratios
    of trailing principal minors.  SingularMinor(k) reports a vanishing
    trailing k x k minor.  Triangular factors carry exact zeros off their
    triangles.  A stack of matrices (..., l, l) gives stacks of factors; a
    singular minor of any matrix of the stack raises.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"expected square matrices (..., l, l), got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix has non-finite entries")
    ell = g.shape[-1]
    r = np.arange(ell)
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))

    def pivot(m, k):
        piv = m[..., k, k]
        small = np.abs(piv) <= _MINOR_RTOL * scale
        if np.any(small):
            raise SingularMinor(k + 1, complex(np.ravel(piv)[np.argmax(small)]))
        return piv

    # LDU of the anti-transposed matrix = UDL of g.
    m = g[..., ::-1, ::-1].copy()
    lower = np.zeros_like(m)
    lower[..., r, r] = 1.0
    for k in range(ell - 1):
        f = m[..., k + 1 :, k] / pivot(m, k)[..., None]
        lower[..., k + 1 :, k] = f
        m[..., k + 1 :, k:] -= f[..., :, None] * m[..., None, k, k:]
        m[..., k + 1 :, k] = 0.0
    pivot(m, ell - 1)

    diag = np.diagonal(m, axis1=-2, axis2=-1)
    upper = m / diag[..., :, None]
    upper[..., r, r] = 1.0

    g_gt = lower[..., ::-1, ::-1]  # unit upper triangular
    g_0 = np.zeros_like(m)
    g_0[..., r, r] = diag[..., ::-1]
    g_lt = upper[..., ::-1, ::-1]  # unit lower triangular
    return g_gt, g_0, g_lt


def chi(pair: DualPair) -> np.ndarray:
    """The product h_+ h_-^{-1}."""
    hm = pair.hminus
    if np.any(np.diagonal(hm, axis1=-2, axis2=-1) == 0):
        raise ValueError("h_- is singular")
    return np.linalg.solve(hm.swapaxes(-1, -2), pair.hplus.swapaxes(-1, -2)).swapaxes(-1, -2)


def chi_inverse_local(h: np.ndarray) -> DualPair:
    """The factorization branch of h = h_+ h_-^{-1} continuous at h = I.

    Uses the Gauss decomposition and the principal square root of each
    diagonal entry; BranchCut(j) is raised when that entry is a negative
    real number.  A stack of matrices (..., l, l) gives a stack of pairs.
    """
    g_gt, g_0, g_lt = gauss(h)
    h0 = _principal_sqrt(np.diagonal(g_0, axis1=-2, axis2=-1))[..., None, :]
    return DualPair(np.triu(g_gt * h0), np.tril(np.linalg.inv(g_lt) / h0))


def factor_inv_pair(m: np.ndarray) -> DualPair:
    """Factor m = g_+^{-1} g_- with (g_+, g_-) a DualPair, branch at m = I;
    a stack of matrices (..., l, l) gives a stack of pairs."""
    inner = chi_inverse_local(m)
    return DualPair(np.triu(np.linalg.inv(inner.hplus)), np.tril(np.linalg.inv(inner.hminus)))


def g_functions(p: SpinPoint) -> np.ndarray:
    """Partial sums G_j = 1 + sum_{k>=j} a_k b_k, indices 0..n+1, G_0 = G_{n+1} = 1.

    Spins of shape (..., n) give sums of shape (..., n + 2).
    """
    ab = p.a * p.b
    G = np.ones(ab.shape[:-1] + (p.n + 2,), dtype=complex)
    G[..., 1 : p.n + 1] += np.cumsum(ab[..., ::-1], axis=-1)[..., ::-1]
    return G


def _nonvanishing_g(p: SpinPoint) -> np.ndarray:
    """``g_functions(p)``; ZeroG(j) reports a G_j, 1 <= j <= n, that vanishes
    relative to the largest |G| of its point."""
    G = g_functions(p)
    scale = np.maximum(1.0, np.max(np.abs(G), axis=-1, keepdims=True))
    small = np.abs(G[..., 1 : p.n + 1]) <= 1e-12 * scale
    if np.any(small):
        at = tuple(np.argwhere(small)[0])
        raise ZeroG(int(at[-1]) + 1, complex(G[at[:-1] + (at[-1] + 1,)]))
    return G


def g_factors(p: SpinPoint):
    """Closed-form (g_+, g_-, g_+^{-1}, g_-^{-1}) of 1 + a b = g_+ g_-^{-1}.

    Entries (1-based), with a single consistent root s_j = sqrt(G_j) per index:

    * (g_+)_jj = (g_-^{-1})_jj = s_j/s_{j+1} and (g_-)_jj = (g_+^{-1})_jj = s_{j+1}/s_j;
    * (g_+)_jk = a_j b_k/(s_k s_{k+1}) for j < k and (g_-)_jk = -a_j b_k/(s_k s_{k+1}) for j > k;
    * (g_-^{-1})_jk = a_j b_k/(s_j s_{j+1}) for j > k and (g_+^{-1})_jk = -a_j b_k/(s_j s_{j+1}) for j < k.

    Spins of shape (..., n) give four stacks of shape (..., n, n).  ZeroG(j)
    reports a vanishing G_j, BranchCut(j) a G_j on the negative real axis.
    """
    n = p.n
    G = _nonvanishing_g(p)
    s = _principal_sqrt(G[..., 1 : n + 2])  # s[..., j-1] = sqrt(G_j), j = 1..n+1

    ss = s[..., :n] * s[..., 1:]
    off = p.a[..., :, None] * p.b[..., None, :]
    col = off / ss[..., None, :]  # a_j b_k / (s_k s_{k+1})
    row = off / ss[..., :, None]  # a_j b_k / (s_j s_{j+1})
    r = np.arange(n)
    gp = np.triu(col, 1)
    gm = np.tril(-col, -1)
    gp_inv = np.triu(-row, 1)
    gm_inv = np.tril(row, -1)
    gp[..., r, r] = gm_inv[..., r, r] = s[..., :n] / s[..., 1:]
    gm[..., r, r] = gp_inv[..., r, r] = s[..., 1:] / s[..., :n]
    return gp, gm, gp_inv, gm_inv


def g_pm(p: SpinPoint) -> DualPair:
    """Closed-form factorization 1 + a b = g_+ g_-^{-1} as the pair (g_+, g_-); see g_factors."""
    gp, gm, _, _ = g_factors(p)
    return DualPair(gp, gm)


def gamma(point: SPoint) -> np.ndarray:
    """The quadratic matrix 1 + A B."""
    return np.eye(point.n, dtype=complex) + point.A @ point.B


def gamma_pm(point: SPoint) -> DualPair:
    """Local triangular factorization of 1 + A B, branch with value (I, I) at zero."""
    return chi_inverse_local(gamma(point))


def calG_pm(t: SpinTuple) -> DualPair:
    """Ordered products of the per-copy factors: (g_+(1)...g_+(d), g_-(1)...g_-(d))."""
    factors = [g_factors(s) for s in t]
    Gp, Gm = factors[0][:2]
    for gp, gm, _, _ in factors[1:]:
        Gp = Gp @ gp
        Gm = Gm @ gm
    return DualPair(np.triu(Gp), np.tril(Gm))
