"""Evaluation of every Poisson structure as a matrix of coordinate brackets.

``BracketSpec.bivector`` is the one evaluator: at flat coordinates in the
chart orderings of :mod:`plie.charts` it returns the full antisymmetric
matrix ``Pi[p, q] = {x_p, x_q}``.  It antisymmetrizes, once, what
``BracketSpec.upper`` returns: the raw fill of its kind, which is valid on
and above the block diagonal, so its strict upper triangle is that of
``Pi``.  Callers that read only that triangle call ``upper``.  The
componentwise fills are the performance path: a fill on a point chart reads
its arrays from x (views of it, but for the dual group's h_+ and h_-)
through the array-level helpers of :mod:`plie.charts`, after one finiteness
check of x, so no point container is built per call; only the public
unpackers and the samplers build them.
The tensor-contraction builders (``s_bivector_tensor`` and friends) are
kept as an independent cross-check oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import charts, kernels
from .errors import ConfigError
from .points import SPoint
from .tensors import Tensor4, c12, dj_r, r_pm

__all__ = [
    "HoloFn1",
    "BracketSpec",
    "antisymmetrize",
    "s_bivector_tensor",
    "DualBases",
    "dual_bases",
    "pairing",
]


@lru_cache(maxsize=64)
def _on_or_below_diagonal(rows: int, cols: int) -> np.ndarray:
    """The read-only (rows, cols) mask of the entries on or below the diagonal."""
    mask = np.tri(rows, cols, dtype=bool)
    mask.flags.writeable = False
    return mask


def antisymmetrize(M: np.ndarray) -> np.ndarray:
    """Exact antisymmetry: keep the strict upper triangle, mirror with a sign."""
    U = np.where(_on_or_below_diagonal(*M.shape[-2:]), 0, M)  # np.triu(M, 1), bit for bit
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


# --- raw fills ----------------------------------------------------------------
#
# One fill per kind maps flat coordinates (..., dim) to raw matrices
# (..., dim, dim) that write the diagonal and upper off-diagonal blocks and
# leave the lower ones zero; only the strict upper triangle is read.  The
# fills on point charts (S(n,d), Sprod, C2n, GLstar) read their arrays from
# ``charts`` without building a point container, after one finiteness check
# of x that raises ValueError as the containers do; the matrix-group fills
# take any entries.


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValueError("coordinates have non-finite entries")
    return x


# The S-type kinds are one r-matrix formula.  Per kind: the hat kernel or not
# (looked up in kernels per call, which perfbench's tracer wraps), the sign of
# kappa and the cross constant, None for the signed kappa.  AOminus is the plus
# bracket after alpha -> d+1-alpha on both blocks: S at -kappa, constant -1.
_S_TYPES = {
    "S": (False, operator.pos, None),
    "Prime": (True, operator.pos, None),
    "AOplus": (True, operator.pos, -1.0),
    "AOminus": (False, operator.neg, -1.0),
}


def _fill_s_type(spec: "BracketSpec", x: np.ndarray) -> np.ndarray:
    hat, sign, cross = _S_TYPES[spec.kind]
    A, B = charts._spoint_arrays(_finite(x), spec.n, spec.d)
    kappa = sign(spec.kappa)
    return (kernels.fill_hat if hat else kernels.fill_s)(A, B, kappa, kappa if cross is None else cross)


def _fill_sprod(spec: "BracketSpec", x: np.ndarray) -> np.ndarray:
    """Block-diagonal bracket of d independent copies of S(n,1).

    Chart: per copy alpha, the coordinates a^alpha then b^alpha.
    """
    n, d = spec.n, spec.d
    # the d copies form one stack of S(n,1) points; S(n,1)'s chart is (a, b)
    a, b = charts._tuple_arrays(_finite(x), n, d)
    blk = kernels.fill_s(a[..., :, None], b[..., None, :], spec.kappa, spec.kappa)
    m, batch = 2 * n, blk.shape[:-3]
    M = np.zeros(batch + (m * d, m * d), dtype=complex)
    np.einsum("...aiaj->...aij", M.reshape(batch + (d, m, d, m)))[...] = blk  # copy alpha's diagonal block
    return M


def _fill_gl_mult(spec: "BracketSpec", x: np.ndarray) -> np.ndarray:
    """{g_ij, g_kl} = (kappa/2)(sgn(i-k) + sgn(j-l)) g_il g_kj."""
    g = charts.unpack_gl(x, spec.ell)
    return kernels.quadratic(g, g, spec.kappa, 0.0, 1.0, 1.0)


def _double_raw(kappa: complex, u: np.ndarray, v: np.ndarray, free_u=None, free_v=None) -> np.ndarray:
    """Raw fill of the double bracket at (u, v); with ``free_u`` and
    ``free_v``, flat positions in u and in v, its rows and columns at those
    coordinates only, u's before v's, bit for bit."""
    m_u, m_v = (u.shape[-1] ** 2,) * 2 if free_u is None else (len(free_u), len(free_v))
    M = np.zeros(u.shape[:-2] + (m_u + m_v, m_u + m_v), dtype=complex)
    M[..., :m_u, :m_u] = kernels.quadratic(u, u, kappa, 0.0, 1.0, 1.0, free_u, free_u)
    M[..., m_u:, m_u:] = kernels.quadratic(v, v, kappa, 0.0, 1.0, 1.0, free_v, free_v)
    # {u_ij, v_kl} = (kappa/2) [ (1 + sgn(j-l)) u_il v_kj - (1 - sgn(i-k)) v_il u_kj ]
    uv = kernels.quadratic(u, v, kappa, 1.0, 0.0, 1.0, free_u, free_v)
    M[..., :m_u, m_u:] = uv - kernels.quadratic(v, u, kappa, 1.0, -1.0, 0.0, free_u, free_v)
    return M


def _fill_double(spec: "BracketSpec", x: np.ndarray) -> np.ndarray:
    return _double_raw(spec.kappa, *charts.unpack_double(x, spec.ell))


def _fill_dual_group(spec: "BracketSpec", x: np.ndarray) -> np.ndarray:
    """Bracket on the free coordinates of the dual-group chart.

    The dual group sits inside the double as a Poisson submanifold, so the
    free-coordinate bracket is the restriction of the double bracket; the
    dependent diagonal of h_- never enters the chart.  Every free h_+
    coordinate comes before every free h_- one, so the double's raw fill,
    formed at the free coordinates only, is valid on and above the diagonal.
    """
    hplus, hminus = charts._dual_arrays(_finite(x), spec.ell)
    _, free_u, free_v = charts._dual_index(spec.ell)[3]
    return _double_raw(spec.kappa, hplus, hminus, free_u, free_v)


def _fill_sts(spec: "BracketSpec", x: np.ndarray) -> np.ndarray:
    """Quadratic Semenov-Tian-Shansky-type bracket on GL(l)."""
    h = charts.unpack_gl(x, spec.ell)
    ell = spec.ell

    C = np.einsum("...ia,...al->...ila", h, h)  # C[i,l,a] = h_ia h_al
    Ctail = np.cumsum(C[..., ::-1], axis=-1)[..., ::-1] - C
    # W[i,l,j] = kappa sum_a (1/2)(1 - sgn(j-a)) h_ia h_al, which is also
    # kappa sum_b (1/2)(sgn(b-i) + 1) h_kb h_bj at [k,j,i]
    W = spec.kappa * (Ctail + 0.5 * C)

    M = kernels.quadratic(h, h, spec.kappa, 0.0, 1.0, -1.0)
    M4 = M.reshape(h.shape[:-2] + (ell,) * 4)  # axes (i, j, k, l)
    # + delta_il W[k,j,i] - delta_jk W[i,l,j]
    np.einsum("...ijki->...ijk", M4)[...] += W.swapaxes(-1, -3)
    np.einsum("...ijjl->...ijl", M4)[...] -= W.swapaxes(-1, -2)
    return M


def _fill_zak(spec: "BracketSpec", x: np.ndarray) -> np.ndarray:
    """Holomorphic Zakrzewski-type bracket on C^{2n} in coordinates (a, b).

    ``F`` and ``G`` are evaluated once per batch, on the array of t = a.b.
    """
    n, kappa = spec.n, spec.kappa
    a, b = charts._spin_arrays(_finite(x), n)
    ab = a * b
    t = np.sum(ab, axis=-1)
    Fv, Gv = spec.F.eval(t), spec.G.eval(t)
    S = kernels.sign_grid(n)
    # {a_i, a_k} = (kappa/2) sgn(i-k) a_i a_k and {b_i, b_k} = -(kappa/2) sgn(i-k) b_i b_k
    ac = a[..., :, None]
    br = b[..., None, :]
    cross = np.asarray(-0.5 * kappa * Gv)[..., None, None] * (ac * br)
    diag = 0.5 * kappa * (np.asarray(Fv)[..., None] - (S @ ab[..., None])[..., 0])
    np.einsum("...ii->...i", cross)[...] += diag
    M = np.zeros(a.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    M[..., :n, :n] = kernels.quadratic(ac, ac, kappa, 0.0, 1.0, 0.0)
    M[..., n:, n:] = kernels.quadratic(br, br, kappa, 0.0, 0.0, -1.0)
    M[..., :n, n:] = cross
    return M


_FILLS = {
    "S": _fill_s_type,
    "AOplus": _fill_s_type,
    "AOminus": _fill_s_type,
    "Prime": _fill_s_type,
    "Sprod": _fill_sprod,
    "GLmult": _fill_gl_mult,
    "Double": _fill_double,
    "DualGroup": _fill_dual_group,
    "STS": _fill_sts,
    "ZakC": _fill_zak,
}


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

_S_KINDS = tuple(_S_TYPES)
_GL_KINDS = ("GLmult", "Double", "DualGroup", "STS")


@dataclass(frozen=True)
class BracketSpec:
    """Tagged description of which Poisson structure to evaluate."""

    kind: str
    kappa: complex = 1.0
    n: int = 0
    d: int = 0
    ell: int = 0
    F: Optional[HoloFn1] = None
    G: Optional[HoloFn1] = None

    def __post_init__(self):
        if self.kind not in _FILLS:
            raise ConfigError(f"unknown bracket kind {self.kind!r}")
        if self.kappa == 0:
            raise ConfigError("kappa must be nonzero")
        if self.kind in _S_KINDS + ("Sprod",) and (self.n < 1 or self.d < 1):
            raise ConfigError("n and d must be >= 1")
        if self.kind in _GL_KINDS and self.ell < 1:
            raise ConfigError("ell must be >= 1")
        if self.kind == "ZakC":
            if self.n < 1:
                raise ConfigError("n must be >= 1")
            if self.F is None or self.G is None:
                raise ConfigError("ZakC requires F and G")

    @property
    def dim(self) -> int:
        k = self.kind
        if k in _S_KINDS + ("Sprod",):
            return 2 * self.n * self.d
        if k == "Double":
            return 2 * self.ell * self.ell
        if k in ("GLmult", "DualGroup", "STS"):
            return self.ell * self.ell
        return 2 * self.n  # ZakC

    def upper(self, x: np.ndarray) -> np.ndarray:
        """The raw fill of the bracket matrix at flat coordinates: equal to
        ``bivector(x)`` strictly above the diagonal, unspecified on and below it.

        ``x`` has shape ``(..., dim)``; the result has shape ``(..., dim, dim)``.
        """
        x = np.asarray(x, dtype=complex)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"expected coordinates of shape (..., {self.dim}), got {x.shape}")
        return _FILLS[self.kind](self, x)

    def bivector(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the bracket matrix at flat coordinates.

        ``x`` has shape ``(..., dim)``; the result has shape ``(..., dim, dim)``.
        """
        return antisymmetrize(self.upper(x))
