"""The decoupling diffeomorphisms m and F with their local inverses, and the
auxiliary (anti-)Poisson maps nu, xi, theta and iota.

The forward maps are defined wherever no partial sum G_j of a copy they
factor lies on (-inf, 0]: ``factorization.g_factors`` checks that per index
and raises ``ZeroG`` or ``BranchCut``, which is the maps' only domain check.
map_m_inverse refactors each copy it recovers with the same roots, but
map_F_inverse is local: it takes the principal root of each ratio
G_j/G_{j+1}, so it recovers only tuples whose every sqrt(G_j)/sqrt(G_{j+1})
has a positive real part.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintViolated
from .factorization import chi_inverse_local, g_factors
from .points import SPoint, SpinPoint, SpinTuple
from .tensors import eta

__all__ = [
    "map_m",
    "map_m_inverse",
    "map_F",
    "map_F_inverse",
    "map_nu",
    "map_xi",
    "map_theta",
    "iota",
]


def _dress(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """h a for stacks of matrices (..., n, n) and columns (..., n)."""
    return (h @ a[..., :, None])[..., 0]


def _dress_row(b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """b h for stacks of rows (..., n) and matrices (..., n, n)."""
    return (b[..., None, :] @ h)[..., 0, :]


def map_m(t: SpinTuple) -> SPoint:
    """Column-wise dressing: A^al = g_+(1)...g_+(al-1) a^al, B^al = b^al g_-(al-1)^-1...g_-(1)^-1.

    Copies of shape (..., n) give A of shape (..., n, d) and B of shape (..., d, n).
    """
    n, d = t.n, t.d
    batch = t[0].a.shape[:-1]
    A = np.empty(batch + (n, d), dtype=complex)
    B = np.empty(batch + (d, n), dtype=complex)
    hp = np.eye(n, dtype=complex)  # running g_+(1)...g_+(al-1)
    hm = np.eye(n, dtype=complex)  # running g_-(al-1)^-1...g_-(1)^-1
    for al, s in enumerate(t):
        A[..., :, al] = _dress(hp, s.a)
        B[..., al, :] = _dress_row(s.b, hm)
        if al < d - 1:
            gp, _, _, gm_inv = g_factors(s)
            hp = hp @ gp
            hm = gm_inv @ hm
    return SPoint(A, B)


def map_m_inverse(p: SPoint) -> SpinTuple:
    """Inductive inverse: recover copy al, refactor it, undress copy al+1.

    A stack of points gives copies with the same leading axes.
    """
    n, d = p.n, p.d
    hp_inv = np.eye(n, dtype=complex)
    hm_inv = np.eye(n, dtype=complex)
    spins = []
    for al in range(d):
        s = SpinPoint(_dress(hp_inv, p.A[..., :, al]), _dress_row(p.B[..., al, :], hm_inv))
        spins.append(s)
        if al < d - 1:
            _, gm, gp_inv, _ = g_factors(s)
            hp_inv = gp_inv @ hp_inv
            hm_inv = hm_inv @ gm
    return SpinTuple(spins)


def map_F(t: SpinTuple) -> SPoint:
    """Reverse dressing: A-hat^al = g_+(d)^-1...g_+(al)^-1 a^al, B-hat^al = b^al g_-(al)...g_-(d).

    Copies of shape (..., n) give A of shape (..., n, d) and B of shape (..., d, n).
    """
    n, d = t.n, t.d
    batch = t[0].a.shape[:-1]
    A = np.empty(batch + (n, d), dtype=complex)
    B = np.empty(batch + (d, n), dtype=complex)
    left = np.eye(n, dtype=complex)  # g_+(d)^-1 ... g_+(al+1)^-1
    right = np.eye(n, dtype=complex)  # g_-(al+1) ... g_-(d)
    for al in range(d - 1, -1, -1):
        _, gm, gp_inv, _ = g_factors(t[al])
        left = left @ gp_inv
        right = gm @ right
        A[..., :, al] = _dress(left, t[al].a)
        B[..., al, :] = _dress_row(t[al].b, right)
    return SPoint(A, B)


def map_F_inverse(p: SPoint) -> SpinTuple:
    """Iterative inverse of map_F via successive local factorizations.

    For al = d down to 1: factor 1 - P (A-hat^al B-hat^al) R = g_+^{-1} g_-
    with (P, R) the accumulated conjugators, then undress the copy.  The
    factorization is chi_inverse_local's m = h_+ h_-^{-1}, with g_+ = h_+^{-1}
    and g_-^{-1} = h_-.  A stack of points gives copies with the same
    leading axes.
    """
    n, d = p.n, p.d
    P = np.eye(n, dtype=complex)
    R = np.eye(n, dtype=complex)
    spins = [None] * d
    for al in range(d - 1, -1, -1):
        a, b = p.A[..., :, al], p.B[..., al, :]
        h = chi_inverse_local(np.eye(n) - P @ (a[..., :, None] * b[..., None, :]) @ R)
        P = np.triu(np.linalg.inv(h.hplus)) @ P
        R = R @ h.hminus
        spins[al] = SpinPoint(_dress(P, a), _dress_row(b, R))
    return SpinTuple(spins)


def map_nu(p: SPoint) -> SPoint:
    """Swap map S(n,d) -> S(d,n): (A, B) -> (eta_d B eta_n, eta_n A eta_d)."""
    en, ed = eta(p.n), eta(p.d)
    return SPoint(ed @ p.B @ en, en @ p.A @ ed)


def map_xi(p: SPoint, xi_a: complex, xi_b: complex, kappa: complex) -> SPoint:
    """Rescaled anti-diagonal twist (xi_a A eta_d, xi_b eta_d B); needs xi_a xi_b = -1/kappa."""
    if not abs(xi_a * xi_b + 1.0 / kappa) <= 1e-12 * max(1.0, abs(1.0 / kappa)):  # NaN fails too
        raise ConstraintViolated(f"xi_a*xi_b = {xi_a * xi_b}, expected {-1.0 / kappa}")
    ed = eta(p.d)
    return SPoint(xi_a * (p.A @ ed), xi_b * (ed @ p.B))


def map_theta(p: SPoint, th_a: complex, th_b: complex, kappa: complex) -> SPoint:
    """Plain rescaling (th_a A, th_b B); needs th_a th_b = -1/kappa."""
    if not abs(th_a * th_b + 1.0 / kappa) <= 1e-12 * max(1.0, abs(1.0 / kappa)):  # NaN fails too
        raise ConstraintViolated(f"th_a*th_b = {th_a * th_b}, expected {-1.0 / kappa}")
    return SPoint(th_a * p.A, th_b * p.B)


def iota(t: SpinTuple) -> SpinTuple:
    """Per-copy swap (a, b) -> (b^T, a^T); an involution."""
    return SpinTuple(SpinPoint(s.b.copy(), s.a.copy()) for s in t)
