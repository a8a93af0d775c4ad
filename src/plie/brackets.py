"""Evaluation of every Poisson structure as a matrix of coordinate brackets.

Each ``*_bivector`` function returns the full antisymmetric matrix
``Pi[p, q] = {x_p, x_q}`` at the given point, in the chart orderings of
:mod:`plie.charts`.  The componentwise fills are the performance path; the
tensor-contraction builders (``s_bivector_tensor`` and friends) are kept as
an independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import charts, kernels
from .errors import ConfigError
from .points import DualPair, SPoint, SpinPoint, SpinTuple
from .tensors import Tensor4, c12, dj_r, r_pm

__all__ = [
    "HoloFn1",
    "BracketSpec",
    "antisymmetrize",
    "s_bivector",
    "s_bivector_tensor",
    "s1_product_bivector",
    "ao_plus_bivector",
    "ao_minus_bivector",
    "prime_bivector",
    "gl_mult_bivector",
    "double_bivector",
    "dual_group_bivector",
    "sts_bivector",
    "zak_complex_bivector",
    "zak_real_bivector",
    "DualBases",
    "dual_bases",
    "pairing",
]


def antisymmetrize(M: np.ndarray) -> np.ndarray:
    """Exact antisymmetry: keep the strict upper triangle, mirror with a sign."""
    U = np.triu(M, 1)
    return U - U.swapaxes(-1, -2)


@dataclass(frozen=True)
class HoloFn1:
    """A holomorphic function of one variable with its analytic derivative.

    The supplied derivative is validated against a central difference at a
    few generic probe points (relative tolerance 1e-6).
    """

    eval: Callable[[complex], complex]
    deriv: Callable[[complex], complex]
    name: str = "F"

    def __post_init__(self):
        h = 1e-5
        for t in (0.1732 + 0.0451j, -0.2934 + 0.1177j, 0.3815 - 0.2208j):
            fd = (self.eval(t + h) - self.eval(t - h)) / (2 * h)
            an = self.deriv(t)
            if abs(fd - an) > 1e-6 * max(1.0, abs(an)):
                raise ValueError(
                    f"{self.name}: supplied derivative disagrees with finite difference at t={t}"
                )

    @classmethod
    def affine(cls, c0: complex, c1: complex, name: str = "F") -> "HoloFn1":
        return cls(lambda t: c0 + c1 * t, lambda t: c1 + 0 * t, name)


# --- componentwise evaluators ----------------------------------------------
#
# Every evaluator takes points (or arrays) with leading batch axes and returns
# one matrix per point: shape (..., dim, dim).  A single point is the batch
# shape ().


def s_bivector(kappa: complex, point: SPoint) -> np.ndarray:
    return antisymmetrize(kernels.fill_s(point.A, point.B, kappa))


def s1_product_bivector(kappa: complex, t: SpinTuple) -> np.ndarray:
    """Block-diagonal bracket of d independent copies of S(n,1).

    Chart: per copy alpha, the coordinates a^alpha then b^alpha.
    """
    n, d = t.n, t.d
    # the d copies form one stack of S(n,1) points; S(n,1)'s chart is (a, b)
    a = np.stack([s.a for s in t], axis=-2)
    b = np.stack([s.b for s in t], axis=-2)
    blk = antisymmetrize(kernels.fill_s(a[..., :, None], b[..., None, :], kappa))
    m = 2 * n
    M = np.zeros(blk.shape[:-3] + (m * d, m * d), dtype=complex)
    for al in range(d):
        M[..., m * al : m * (al + 1), m * al : m * (al + 1)] = blk[..., al, :, :]
    return M


def prime_bivector(kappa: complex, point: SPoint) -> np.ndarray:
    return antisymmetrize(kernels.fill_hat(point.A, point.B, kappa, kappa))


def ao_plus_bivector(kappa: complex, point: SPoint) -> np.ndarray:
    return antisymmetrize(kernels.fill_hat(point.A, point.B, kappa, -1.0))


@lru_cache(maxsize=None)
def _eta_permutation(n: int, d: int) -> np.ndarray:
    """Coordinate permutation induced by alpha -> d+1-alpha on both blocks."""
    nd = n * d
    a_part = np.arange(nd).reshape(n, d)[:, ::-1].ravel()
    b_part = nd + np.arange(nd).reshape(d, n)[::-1, :].ravel()
    perm = np.concatenate([a_part, b_part])
    perm.flags.writeable = False
    return perm


def ao_minus_bivector(kappa: complex, point: SPoint) -> np.ndarray:
    """The minus variant: plus bracket evaluated after the eta substitution."""
    # A eta_d and eta_d B reverse the columns of A and the rows of B
    primed = SPoint(point.A[..., ::-1], point.B[..., ::-1, :])
    M = ao_plus_bivector(kappa, primed)
    perm = _eta_permutation(point.n, point.d)
    return M[..., perm[:, None], perm]


def gl_mult_bivector(kappa: complex, g: np.ndarray) -> np.ndarray:
    """{g_ij, g_kl} = (kappa/2)(sgn(i-k) + sgn(j-l)) g_il g_kj."""
    return antisymmetrize(kernels.quadratic(g, g, kappa, 0.0, 1.0, 1.0))


def _double_raw(kappa: complex, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    m = u.shape[-1] ** 2
    # {u_ij, v_kl} = (kappa/2) [ (1 + sgn(j-l)) u_il v_kj - (1 - sgn(i-k)) v_il u_kj ]
    uv = kernels.quadratic(u, v, kappa, 1.0, 0.0, 1.0) - kernels.quadratic(v, u, kappa, 1.0, -1.0, 0.0)
    M = np.empty(u.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    M[..., :m, :m] = kernels.quadratic(u, u, kappa, 0.0, 1.0, 1.0)
    M[..., m:, m:] = kernels.quadratic(v, v, kappa, 0.0, 1.0, 1.0)
    M[..., :m, m:] = uv
    M[..., m:, :m] = -uv.swapaxes(-1, -2)
    return M


def double_bivector(kappa: complex, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError("u, v must be square of equal size")
    return antisymmetrize(_double_raw(kappa, u, v))


def dual_group_bivector(kappa: complex, pair: DualPair) -> np.ndarray:
    """Bracket on the free coordinates of the dual-group chart.

    The dual group sits inside the double as a Poisson submanifold, so the
    free-coordinate bracket is the restriction of the double bracket; the
    dependent diagonal of h_- never enters the chart.
    """
    if np.any(np.diagonal(pair.hminus, axis1=-2, axis2=-1) == 0):
        raise ValueError("h_- diagonal must be invertible")
    M = _double_raw(kappa, pair.hplus, pair.hminus)
    idx = charts.glstar_free_indices(pair.ell)
    return antisymmetrize(M[..., idx[:, None], idx])


def sts_bivector(kappa: complex, h: np.ndarray) -> np.ndarray:
    """Quadratic Semenov-Tian-Shansky-type bracket on GL(l)."""
    h = np.asarray(h, dtype=complex)
    ell = h.shape[-1]
    eye = np.eye(ell)

    C = np.einsum("...ia,...al->...ila", h, h)  # C[i,l,a] = h_ia h_al
    Ctail = np.flip(np.cumsum(np.flip(C, axis=-1), axis=-1), axis=-1) - C
    # W[i,l,j] = kappa sum_a (1/2)(1 - sgn(j-a)) h_ia h_al, which is also
    # kappa sum_b (1/2)(sgn(b-i) + 1) h_kb h_bj at [k,j,i]
    W = kappa * (Ctail + 0.5 * C)

    # delta_jk (-W[i,l,j]) + delta_il W[k,j,i]
    D = eye[:, None, None, :] * W.swapaxes(-1, -3)[..., :, :, :, None]
    D = D - eye[None, :, :, None] * W.swapaxes(-1, -2)[..., :, :, None, :]
    M = kernels.quadratic(h, h, kappa, 0.0, 1.0, -1.0) + D.reshape(h.shape[:-2] + (ell * ell, ell * ell))
    return antisymmetrize(M)


def zak_complex_bivector(kappa: complex, F: HoloFn1, G: HoloFn1, point: SpinPoint) -> np.ndarray:
    """Holomorphic Zakrzewski-type bracket on C^{2n} in coordinates (a, b).

    ``F`` and ``G`` are evaluated once per batch, on the array of t = a.b.
    """
    a, b = point.a, point.b
    n = point.n
    ab = a * b
    t = np.sum(ab, axis=-1)
    Fv, Gv = F.eval(t), G.eval(t)
    S = kernels.sign_grid(n)
    # {a_i, a_k} = (kappa/2) sgn(i-k) a_i a_k and {b_i, b_k} = -(kappa/2) sgn(i-k) b_i b_k
    ac = a[..., :, None]
    br = b[..., None, :]
    cross = np.asarray(-0.5 * kappa * Gv)[..., None, None] * (ac * br)
    diag = 0.5 * kappa * (np.asarray(Fv)[..., None] - (S @ ab[..., None])[..., 0])
    r = np.arange(n)
    cross[..., r, r] += diag
    M = np.empty(a.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    M[..., :n, :n] = kernels.quadratic(ac, ac, kappa, 0.0, 1.0, 0.0)
    M[..., n:, n:] = kernels.quadratic(br, br, kappa, 0.0, 0.0, -1.0)
    M[..., :n, n:] = cross
    M[..., n:, :n] = -cross.swapaxes(-1, -2)
    return antisymmetrize(M)


def zak_real_bivector(epsilon: float, F: HoloFn1, G: HoloFn1, u: np.ndarray, ubar: np.ndarray) -> np.ndarray:
    """Complexified real Zakrzewski bracket; (u, ubar) treated as independent.

    On the real slice ubar = conj(u) this is the real covariant bracket;
    algebraically it is the holomorphic bracket with kappa = -2*i*epsilon.
    """
    if epsilon == 0:
        raise ConfigError("epsilon must be nonzero")
    return zak_complex_bivector(-2j * epsilon, F, G, SpinPoint(u, ubar))


# --- tensor-form oracle -----------------------------------------------------


def s_bivector_tensor(kappa: complex, point: SPoint) -> np.ndarray:
    """Independent evaluation of the S(n,d) bracket from its tensor form."""
    A, B = point.A, point.B
    n, d = point.n, point.d
    rn, rd = dj_r(n), dj_r(d)
    rpn, rpd = r_pm(n, +1), r_pm(d, +1)
    AAt = -kappa * (rn.rmul1(A).rmul2(A) + rd.lmul1(A).lmul2(A))
    BBt = -kappa * (rn.lmul1(B).lmul2(B) + rd.rmul1(B).rmul2(B))
    ABt = kappa * (rpn.rmul1(A).lmul2(B) + rpd.lmul1(A).rmul2(B) + c12(n, d))
    nd = n * d
    M = np.zeros((2 * nd, 2 * nd), dtype=complex)
    M[:nd, :nd] = AAt.array.reshape(nd, nd)
    M[nd:, nd:] = BBt.array.reshape(nd, nd)
    ABf = ABt.array.reshape(nd, nd)
    M[:nd, nd:] = ABf
    M[nd:, :nd] = -ABf.T
    return M


def sts_rhs_tensor(kappa: complex, h: np.ndarray, ell: int) -> Tensor4:
    """kappa (h1 r- h2 + h2 r+ h1 - h1 h2 r - r h1 h2) as a Tensor4."""
    r = dj_r(ell)
    rp, rm = r_pm(ell, +1), r_pm(ell, -1)
    return kappa * (
        rm.rmul2(h).lmul1(h)
        + rp.rmul1(h).lmul2(h)
        - r.lmul1(h).lmul2(h)
        - r.rmul1(h).rmul2(h)
    )


# --- dual bases --------------------------------------------------------------


def pairing(kappa: complex, UV, XY) -> complex:
    """<(U,V),(X,Y)> = (1/kappa)(tr(UX) - tr(VY))."""
    U, V = UV
    X, Y = XY
    return (np.trace(U @ X) - np.trace(V @ Y)) / kappa


@dataclass(frozen=True)
class DualBases:
    """Dual bases of the diagonal subalgebra and its isotropic complement."""

    Ta: tuple  # elements (X^a, X^a)
    Tb: tuple  # elements (Z_a, W_a)
    kappa: complex


def dual_bases(ell: int, kappa: complex) -> DualBases:
    if kappa == 0:
        raise ConfigError("kappa must be nonzero")
    Ta, Tb = [], []
    for p in range(ell):
        for q in range(ell):
            X = np.zeros((ell, ell), dtype=complex)
            X[p, q] = 1.0
            Ta.append((X, X))
            Z = np.zeros((ell, ell), dtype=complex)
            W = np.zeros((ell, ell), dtype=complex)
            if q < p:  # E_qp is strictly upper
                Z[q, p] = kappa
            elif q > p:  # E_qp is strictly lower
                W[q, p] = -kappa
            else:
                Z[p, p] = 0.5 * kappa
                W[p, p] = -0.5 * kappa
            Tb.append((Z, W))
    return DualBases(tuple(Ta), tuple(Tb), kappa)


# --- spec-driven dispatch -----------------------------------------------------

_S_KINDS = ("S", "AOplus", "AOminus", "Prime")
_GL_KINDS = ("GLmult", "Double", "DualGroup", "STS")


@dataclass(frozen=True)
class BracketSpec:
    """Tagged description of which Poisson structure to evaluate."""

    kind: str
    kappa: complex = 1.0
    n: int = 0
    d: int = 0
    ell: int = 0
    epsilon: float = 0.0
    F: Optional[HoloFn1] = None
    G: Optional[HoloFn1] = None

    def __post_init__(self):
        valid = _S_KINDS + _GL_KINDS + ("Sprod", "ZakC", "ZakR")
        if self.kind not in valid:
            raise ConfigError(f"unknown bracket kind {self.kind!r}")
        if self.kind == "ZakR":
            if self.epsilon == 0:
                raise ConfigError("epsilon must be nonzero")
        elif self.kappa == 0:
            raise ConfigError("kappa must be nonzero")
        if self.kind in _S_KINDS + ("Sprod",) and (self.n < 1 or self.d < 1):
            raise ConfigError("n and d must be >= 1")
        if self.kind in _GL_KINDS and self.ell < 1:
            raise ConfigError("ell must be >= 1")
        if self.kind in ("ZakC", "ZakR"):
            if self.n < 1:
                raise ConfigError("n must be >= 1")
            if self.F is None or self.G is None:
                raise ConfigError("ZakC/ZakR require F and G")

    @property
    def dim(self) -> int:
        k = self.kind
        if k in _S_KINDS + ("Sprod",):
            return 2 * self.n * self.d
        if k == "Double":
            return 2 * self.ell * self.ell
        if k in ("GLmult", "DualGroup", "STS"):
            return self.ell * self.ell
        return 2 * self.n  # ZakC / ZakR

    def bivector(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the bracket matrix at flat coordinates.

        ``x`` has shape ``(..., dim)``; the result has shape ``(..., dim, dim)``.
        """
        k = self.kind
        x = np.asarray(x, dtype=complex)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected coordinates of shape (..., {self.dim}), got {x.shape}")
        if k in _S_KINDS:
            p = charts.unpack_spoint(x, self.n, self.d)
            if k == "S":
                return s_bivector(self.kappa, p)
            if k == "AOplus":
                return ao_plus_bivector(self.kappa, p)
            if k == "AOminus":
                return ao_minus_bivector(self.kappa, p)
            return prime_bivector(self.kappa, p)
        if k == "Sprod":
            return s1_product_bivector(self.kappa, charts.unpack_tuple(x, self.n, self.d))
        if k == "GLmult":
            return gl_mult_bivector(self.kappa, charts.unpack_gl(x, self.ell))
        if k == "Double":
            return double_bivector(self.kappa, *charts.unpack_double(x, self.ell))
        if k == "DualGroup":
            return dual_group_bivector(self.kappa, charts.unpack_dual(x, self.ell))
        if k == "STS":
            return sts_bivector(self.kappa, charts.unpack_gl(x, self.ell))
        if k == "ZakC":
            return zak_complex_bivector(self.kappa, self.F, self.G, charts.unpack_spin(x, self.n))
        n = self.n
        return zak_real_bivector(self.epsilon, self.F, self.G, x[..., :n], x[..., n:])
