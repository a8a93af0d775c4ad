"""Residual computations for every identity the library asserts: Jacobi,
Poisson/anti-Poisson maps, Poisson actions, moment-map relations, the
h-product bracket identities, symplectic inversion, rank, and the
admissibility condition of the holomorphic covariant brackets.

All differentiation goes through one routine: central differences along
real directions of the complex coordinates (valid for holomorphic maps) on
the stencil of the ``DiffScheme`` each caller names; exact Jacobians should
be supplied for linear maps.  A differentiated map takes points of shape
(..., dim) to values of shape (..., m), and each Jacobian evaluates all its
probe points, along the coordinate axes, in one call.  Brackets of
functions g are read from C = Pi J_g^T, the brackets {x_p, g_q} of the
coordinates with g (``_coordinate_brackets``), and J_g C: only the functions
are differentiated, never the coordinates themselves.

Every residual takes one point and returns a float (a dict of floats for
the identity families), or a stack of S points and returns the (S,) array
of their residuals (a dict of such arrays).  Points are flat coordinates of
shape (dim,) or (S, dim), or point containers whose arrays carry the
leading axis S.

``jacobi_residual`` needs T[i,j,k] = sum_l Pi_il d_l Pi_jk, the derivative
of the bivector along its own rows.  Every probe calls the raw fill
``BracketSpec.upper``, so T is read only where j < k, and one cyclic max
over i < j < k (``_upper_cyclic_max``), taken in blocks of rows, gives the
residual: a subset of the (i, j, k), so it is never above the max over all
of them from the same derivatives, and below it only by the rounding of the
three cyclic sums.  Two regimes differ only in the probe directions.  While
one sample's probes fit in one call (``_BLOCK_ENTRIES``), the probes of a
chunk of samples run along the coordinate axes, in one call with their
points, and T is the product of Pi with the derivatives.  Beyond that, each
sample's point gets a bivector call of its own and its probes run along the
rows of Pi(x), block by block, so the differences are T itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import charts
from .brackets import BracketSpec, HoloFn1, antisymmetrize, sts_rhs_tensor
from .errors import ConfigError
from .factorization import _nonvanishing_g, g_factors, g_pm
from .points import SPoint, SpinPoint, SpinTuple
from .tensors import Tensor4, dj_r, r_pm

__all__ = [
    "DiffScheme",
    "VerificationReport",
    "max_abs",
    "jacobian_fd",
    "jacobi_residual",
    "poisson_map_residual",
    "anti_poisson_residual",
    "action_residual",
    "bracket_coord_fn",
    "bracket_functions",
    "moment_residuals",
    "moment_gamma_residuals",
    "moment_factor_residuals",
    "lemma_h_residuals",
    "symplectic_matrix",
    "symplectic_inversion_residual",
    "rank_at",
    "zak_condition_residual",
]


@dataclass(frozen=True)
class DiffScheme:
    """Central-difference stencil for holomorphic derivatives: the derivative
    along v is sum_k weights[k] (f(x + offsets[k] v) - f(x - offsets[k] v)),
    with offsets (h,) and weights (1/2h,) at ``step`` h; one ``richardson``
    level, (4 D_{h/2} - D_h) / 3, is offsets (h, h/2), weights (-1/6h, 4/3h)."""

    step: float
    richardson: bool
    offsets: tuple = field(init=False, repr=False, compare=False)
    weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (1e-9 <= self.step <= 1e-2):
            raise ConfigError(f"step {self.step} outside [1e-9, 1e-2]")
        h = self.step
        offsets, weights = ((h, h / 2), (-1 / (6 * h), 4 / (3 * h))) if self.richardson else ((h,), (1 / (2 * h),))
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    params: dict
    seed: int
    samples: int
    max_residual: float
    ok: bool
    failures: tuple = ()

    def __post_init__(self):
        if self.ok != (self.max_residual <= 1.0):  # the rule: normalized residual <= 1
            raise ValueError("pass flag inconsistent with the maximum normalized residual")
        if self.ok != (not self.failures):
            raise ValueError("pass flag inconsistent with the failure list")


def _central_differences(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    scheme: DiffScheme,
    block: int,
    with_base: bool = False,
    directions: Optional[np.ndarray] = None,
):
    """Derivative stacks D[s, l] = sum_k c_k (f(x_s + t_k v_sl) - f(x_s - t_k v_sl))
    of the S points x of shape (S, dim) along directions v, with the offsets
    t_k and weights c_k of ``scheme``; D has shape (S, m, ...).  ``directions``
    has shape (S, m, dim), or (1, m, dim) for the same directions at every
    point; by default they are the coordinate vectors e_l (m = dim).

    ``f`` maps a (P, dim) stack of probes to P values; it is called once per
    block of at most ``block`` consecutive l, on the probes x_s +- t_k v_sl
    of that block for every s and k.  With ``with_base`` the S points
    themselves go first in the first block's call, and (D, f(x)) is
    returned.  ValueError if the values do not come back one per probe.
    """
    S, dim = x.shape
    if directions is None:
        directions = np.eye(dim)[None]
    m = directions.shape[1]
    K = len(scheme.offsets)
    D = base = None
    for l0 in range(0, m, block):
        l1 = min(m, l0 + block)
        X = np.empty((S, K, 2, l1 - l0, dim), dtype=complex)
        X[...] = x[:, None, None, None, :]
        for k, t in enumerate(scheme.offsets):
            X[:, k, 0] += t * directions[:, l0:l1]
            X[:, k, 1] -= t * directions[:, l0:l1]
        X = X.reshape(-1, dim)
        lead = with_base and l0 == 0
        if lead:
            X = np.concatenate([x, X])
        Y = np.asarray(f(X))
        if Y.shape[:1] != X.shape[:1]:
            raise ValueError(f"map must take (..., {dim}) to (..., m): a {X.shape} stack gave {Y.shape}")
        if lead:
            base = Y[:S].copy()  # a copy, so the block's buffer is not kept alive
            Y = Y[S:]
        Y = Y.reshape((S, K, 2, l1 - l0) + Y.shape[1:])
        if D is None:
            D = np.empty((S, m) + Y.shape[4:], dtype=complex)
        blk = np.subtract(Y[:, 0, 0], Y[:, 0, 1], out=D[:, l0:l1])
        blk *= scheme.weights[0]
        for k in range(1, K):
            diff = np.subtract(Y[:, k, 0], Y[:, k, 1], out=Y[:, k, 0])  # in place: no temporary
            diff *= scheme.weights[k]
            blk += diff
        del Y  # not alive during the next block's call
    return (D, base) if with_base else D


def jacobian_fd(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, scheme: DiffScheme) -> np.ndarray:
    """Central-difference Jacobian of a holomorphic map: shape (m, dim) at one
    point x of shape (dim,), and (..., m, dim) at a stack of shape (..., dim).

    ``f`` maps points of shape (..., dim) to values of shape (..., m).  All
    probes x +- t_k e_l (t_k the scheme's offsets) of all the points go to
    ``f`` in one call on a (P, dim) stack; ValueError if the values do not
    come back as (P, m), e.g. from a map written for one point only.
    """
    x = np.asarray(x, dtype=complex)
    dim = x.shape[-1]
    D = _central_differences(f, x.reshape(-1, dim), scheme, dim)
    if D.ndim != 3:
        raise ValueError(f"map must take (..., {dim}) to (..., m): its values have shape {D.shape[2:]}")
    return D.swapaxes(-1, -2).reshape(x.shape[:-1] + (D.shape[2], dim))


# Entries of one bivector call in ``jacobi_residual``: at most this many
# complex entries in the call's (samples x probes, dim, dim) output, unless
# one sample's probes along a single direction exceed it.  The bivector's
# own temporaries are a few times its output, so this sets the peak memory.
_BLOCK_ENTRIES = 2**16


def jacobi_residual(spec: BracketSpec, x: np.ndarray, scheme: DiffScheme):
    """Max over coordinate triples i < j < k of the cyclic Jacobiator of the
    bivector.

    ``x`` is one point of shape (dim,), which gives a float, or a stack of S
    points of shape (S, dim), which gives the (S,) array of their residuals.
    The Jacobiator is J[i,j,k] = T[i,j,k] + T[k,i,j] + T[j,k,i] with
    T[i,j,k] = sum_l Pi_il d_l Pi_jk, the derivative of Pi along row i of
    Pi.  Every probe calls the raw fill ``spec.upper``, so T is read only
    where j < k, with T[j,k,i] = -T[j,i,k]; J is totally antisymmetric, so
    the max over i < j < k is the full max up to the rounding of the three
    cyclic sums, and never above it.  The two regimes, chosen by the entries
    ``per_sample`` of the calls one sample's probes need, differ only in the
    probe directions:

    - single call (``per_sample <= _BLOCK_ENTRIES``): the stack is cut into
      chunks of consecutive samples whose probes along the coordinate axes
      e_l, and the samples' own points, fit in one call; T is the batched
      product of Pi(x) with the derivative stack, about
      ``_BLOCK_ENTRIES * dim / 2`` multiply-adds per call.
    - multi-call: one sample at a time, its point in a bivector call of its
      own, then its probes along the rows Pi(x) e_i (unnormalised) in blocks
      of consecutive rows of at most ``_BLOCK_ENTRIES`` entries a call.  The
      differences are T itself, so no dim^4 product is formed.

    The cyclic sum is taken in blocks of rows i and only its running max is
    kept.  A sample's residual depends only on its point.
    """
    x = np.asarray(x, dtype=complex)
    dim = spec.dim
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"jacobi_residual takes ({dim},) or (S, {dim}) points, got {x.shape}")
    X = x.reshape(-1, dim)
    per_direction = 2 * len(scheme.offsets) * dim * dim  # output entries of one direction's probes
    per_sample = dim * per_direction + dim * dim  # all probes of one sample, and its point
    parts = []
    if per_sample <= _BLOCK_ENTRIES:
        chunk = _BLOCK_ENTRIES // per_sample
        for s0 in range(0, len(X), chunk):
            D, U0 = _central_differences(spec.upper, X[s0 : s0 + chunk], scheme, dim, with_base=True)
            S = len(D)
            T = antisymmetrize(U0) @ D.reshape(S, dim, dim * dim)
            parts.append(_upper_cyclic_max(T.reshape(S, dim, dim, dim)))
    else:
        block = max(1, _BLOCK_ENTRIES // per_direction)
        for s in range(len(X)):
            Xs = X[s : s + 1]
            D = _central_differences(spec.upper, Xs, scheme, block, directions=spec.bivector(Xs))
            parts.append(_upper_cyclic_max(D))
            del D  # one (dim, dim, dim) stack at a time: not alive during the next sample's fill
    out = np.concatenate(parts) if parts else np.empty(0)
    return float(out[0]) if x.ndim == 1 else out


def _upper_cyclic_max(D: np.ndarray) -> np.ndarray:
    """max over i < j < k of |D[i,j,k] + D[k,i,j] - D[j,i,k]| for each D of a
    (S, dim, dim, dim) stack that is read only where its last two indices
    increase: the cyclic sum of the T antisymmetric in (j, k) that equals D
    there, with T[j,k,i] = -D[j,i,k].  Taken in blocks of rows i from i0 on,
    each on the sub-square j, k > i0 of at most ``_BLOCK_ENTRIES`` entries per
    D; shape (S,)."""
    S, dim = D.shape[:2]
    out = np.zeros(S)
    i0 = 0
    while i0 < dim - 2:  # rows with a pair j < k above them
        o = i0 + 1
        m = dim - o
        i1 = min(dim - 2, i0 + max(1, _BLOCK_ENTRIES // (m * m)))
        B = D[:, o:, i0:i1, o:]  # B[j, i, k] = D[j, i, k], with j and k shifted by o
        J = D[:, i0:i1, o:, o:] + B.transpose(0, 2, 3, 1)
        J -= B.transpose(0, 2, 1, 3)
        j = np.arange(m)
        keep = (np.arange(i1 - i0)[:, None, None] <= j[:, None]) & (j[:, None] < j)  # i < j < k
        np.maximum(out, np.max(np.abs(J), axis=(1, 2, 3), where=keep, initial=0.0), out=out)
        i0 = i1
    return out


def max_abs(m: np.ndarray):
    """max |m| over each matrix of a stack (..., r, c); a float for one matrix."""
    r = np.max(np.abs(m), axis=(-2, -1))
    return float(r) if r.ndim == 0 else r


def _t(m: np.ndarray) -> np.ndarray:
    """The transposes of a stack of matrices."""
    return np.swapaxes(m, -1, -2)


def _pushforward(J: np.ndarray, Pi: np.ndarray) -> np.ndarray:
    """J Pi J^T for stacks of Jacobians and bivectors."""
    return J @ Pi @ _t(J)


def _map_jacobian(f, x: np.ndarray, scheme: Optional[DiffScheme], jac: Optional[np.ndarray]) -> np.ndarray:
    """The given Jacobian ``jac``, or the Jacobian of f at x by ``scheme``."""
    if (scheme is None) == (jac is None):
        raise TypeError("give exactly one of scheme and jac")
    return jacobian_fd(f, x, scheme) if jac is None else jac


def poisson_map_residual(
    src: BracketSpec,
    tgt: BracketSpec,
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    scheme: Optional[DiffScheme] = None,
    jac: Optional[np.ndarray] = None,
):
    """max |J Pi_src(x) J^T - Pi_tgt(f(x))| with J the Jacobian of f at x:
    ``jac`` (of a linear f) or by ``scheme``, exactly one of them given.

    One point (dim,) gives a float, a stack (S, dim) the (S,) residuals."""
    x = np.asarray(x, dtype=complex)
    J = _map_jacobian(f, x, scheme, jac)
    return max_abs(_pushforward(J, src.bivector(x)) - tgt.bivector(np.asarray(f(x))))


def anti_poisson_residual(
    spec: BracketSpec,
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    scheme: Optional[DiffScheme] = None,
    jac: Optional[np.ndarray] = None,
):
    """max |J Pi(x) J^T + Pi(f(x))|, per point and with J as in ``poisson_map_residual``."""
    x = np.asarray(x, dtype=complex)
    J = _map_jacobian(f, x, scheme, jac)
    return max_abs(_pushforward(J, spec.bivector(x)) + spec.bivector(np.asarray(f(x))))


def action_residual(
    group_spec: BracketSpec,
    space_spec: BracketSpec,
    action: Callable[[np.ndarray, np.ndarray], np.ndarray],
    g: np.ndarray,
    x: np.ndarray,
    scheme: DiffScheme,
):
    """Poisson-action defect |J diag(Pi_G(g), Pi_S(x)) J^T - Pi_S(g.x)|, with J
    the Jacobian of the joint map (g, x) -> g.x.

    ``g`` and ``x`` are one group element and one point, which give a float,
    or stacks with the same leading axis S, which give the (S,) residuals."""
    g = np.asarray(g, dtype=complex)
    x = np.asarray(x, dtype=complex)
    k = g.shape[-1]
    J = jacobian_fd(lambda z: action(z[..., :k], z[..., k:]), np.concatenate([g, x], axis=-1), scheme)
    lhs = _pushforward(J[..., :k], group_spec.bivector(g)) + _pushforward(J[..., k:], space_spec.bivector(x))
    return max_abs(lhs - space_spec.bivector(np.asarray(action(g, x))))


def _coordinate_brackets(spec: BracketSpec, x: np.ndarray, g: Callable[[np.ndarray], np.ndarray], scheme: DiffScheme):
    """(C, J_g): the brackets C[p, q] = {x_p, g_q} = (Pi(x) J_g^T)[p, q] of the
    coordinates with the functions g, and the Jacobian J_g of g at x; one
    pair per point of a stack of shape (..., dim).  The coordinates' own
    Jacobian is exactly I, so only g is differentiated."""
    Jg = jacobian_fd(g, x, scheme)
    return spec.bivector(x) @ _t(Jg), Jg


def bracket_functions(
    spec: BracketSpec,
    x: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    scheme: DiffScheme,
) -> np.ndarray:
    """Matrix of brackets {f_p, g_q} at x via the chain rule Jf Pi Jg^T;
    one matrix per point of a stack of shape (..., dim)."""
    x = np.asarray(x, dtype=complex)
    C, Jg = _coordinate_brackets(spec, x, g, scheme)
    Jf = Jg if g is f else jacobian_fd(f, x, scheme)
    return Jf @ C


def bracket_coord_fn(
    spec: BracketSpec,
    x: np.ndarray,
    coord_index: int,
    f: Callable[[np.ndarray], complex],
    scheme: DiffScheme,
):
    """The bracket {x_p, f} = sum_c Pi[p, c] d_c f at x; ``f`` maps (..., dim) to (...).

    A complex at one point x of shape (dim,), an array at a stack (..., dim)."""
    x = np.asarray(x, dtype=complex)
    C, _ = _coordinate_brackets(spec, x, lambda xx: np.asarray(f(xx))[..., None], scheme)
    r = C[..., coord_index, 0]
    return complex(r) if r.ndim == 0 else r


# --- moment-map identities ----------------------------------------------------


def _flat(m: np.ndarray) -> np.ndarray:
    """Row-major entries of a stack of matrices (..., r, c) as (..., r * c)."""
    return m.reshape(m.shape[:-2] + (-1,))


def _matrix(t: Tensor4, rows: int, cols: int) -> np.ndarray:
    """The entries of a (stack of) Tensor4 in index order as (..., rows, cols)."""
    return t.array.reshape(t.array.shape[:-4] + (rows, cols))


def moment_residuals(kappa: complex, point: SPoint, scheme: DiffScheme) -> dict:
    """Residuals of the quadratic moment-map bracket identities at a point (or
    a stack of points): the union of ``moment_gamma_residuals`` and
    ``moment_factor_residuals``."""
    out = moment_gamma_residuals(kappa, point, scheme)
    out.update(moment_factor_residuals(kappa, point, scheme))
    return out


def moment_gamma_residuals(kappa: complex, point: SPoint, scheme: DiffScheme) -> dict:
    """The closed bracket relation of Gamma = 1 + AB with itself ('Ga1') and
    with the coordinates ('Ga2_A', 'Ga2_B'), and the same set for the hatted
    structure with Gamma-hat = 1 - AB ('*prime'), whose right-hand sides are
    the unhatted ones times -1, at a point or a stack of points.  All maps
    differentiated here are polynomial."""
    n, d = point.n, point.d
    nd = n * d
    x = charts.pack_spoint(point)
    rpn, rmn = r_pm(n, +1), r_pm(n, -1)
    out = {}
    for kind, sign, suffix in (("S", +1, ""), ("Prime", -1, "prime")):

        def gamma_flat(xx, sign=sign):
            p = charts.unpack_spoint(xx, n, d)
            return _flat(np.eye(n, dtype=complex) + sign * (p.A @ p.B))

        C, J = _coordinate_brackets(BracketSpec(kind, kappa, n=n, d=d), x, gamma_flat, scheme)
        G = np.eye(n, dtype=complex) + sign * (point.A @ point.B)
        out[f"Ga1{suffix}"] = max_abs(J @ C - sign * _matrix(sts_rhs_tensor(kappa, G, n), n * n, n * n))
        # {A1, G2} = kappa (G2 r+ - r- G2) A1 ; {B1, G2} = kappa B1 (r- G2 - G2 r+)
        rhs_A = _matrix(sign * kappa * (rpn.lmul2(G) - rmn.rmul2(G)).rmul1(point.A), nd, n * n)
        rhs_B = _matrix(sign * kappa * (rmn.rmul2(G) - rpn.lmul2(G)).lmul1(point.B), nd, n * n)
        out[f"Ga2{suffix}_A"] = max_abs(C[..., :nd, :] - rhs_A)
        out[f"Ga2{suffix}_B"] = max_abs(C[..., nd:, :] - rhs_B)
    return out


def moment_factor_residuals(kappa: complex, point: SPoint, scheme: DiffScheme) -> dict:
    """The factor relations for (g_+, g_-) on the spin pair from the first
    column/row of the point ('mom1_*'); g+- is rational, so this takes a
    Richardson scheme."""
    n = point.n
    rpn, rmn = r_pm(n, +1), r_pm(n, -1)
    out = {}
    sp = SpinPoint(point.A[..., :, 0], point.B[..., 0, :])
    a_col = sp.a[..., :, None]
    b_row = sp.b[..., None, :]

    # S(n, 1) and the spin chart C2n(n) order coordinates alike: a, then b
    def gpm_flat(xx):
        pair = g_pm(charts.unpack_spin(xx, n))
        return np.concatenate([_flat(pair.hplus), _flat(pair.hminus)], axis=-1)

    pair = g_pm(sp)
    C, _ = _coordinate_brackets(BracketSpec("S", kappa, n=n, d=1), charts.pack_spoint(sp.as_spoint()), gpm_flat, scheme)
    Mab_p = C[..., : n * n]
    Mab_m = C[..., n * n :]
    # {A1, phi+-2} = -kappa r_-+ A1 phi+-2 ; {B1, phi+-2} = kappa B1 r_-+ phi+-2
    rhs = _matrix(-kappa * rmn.rmul1(a_col).rmul2(pair.hplus), n, n * n)
    out["mom1_gplus_a"] = max_abs(Mab_p[..., :n, :] - rhs)
    rhs = _matrix(kappa * rmn.lmul1(b_row).rmul2(pair.hplus), n, n * n)
    out["mom1_gplus_b"] = max_abs(Mab_p[..., n:, :] - rhs)
    rhs = _matrix(-kappa * rpn.rmul1(a_col).rmul2(pair.hminus), n, n * n)
    out["mom1_gminus_a"] = max_abs(Mab_m[..., :n, :] - rhs)
    rhs = _matrix(kappa * rpn.lmul1(b_row).rmul2(pair.hminus), n, n * n)
    out["mom1_gminus_b"] = max_abs(Mab_m[..., n:, :] - rhs)
    return out


# --- bracket identities for the ordered factor products ------------------------


def _h_products(t: SpinTuple):
    """Per-copy factors g_+, g_-^{-1} and the cumulative products h+^al, h-^al (index 0..d).

    Copies of shape (..., n) give factors and products of shape (..., n, n);
    h+^0 = h-^0 is the unbatched identity.
    """
    n = t.n
    factors = [g_factors(s) for s in t]
    gplus = [f[0] for f in factors]
    gminus_inv = [f[3] for f in factors]
    hp = [np.eye(n, dtype=complex)]
    hm = [np.eye(n, dtype=complex)]
    for al in range(t.d):
        hp.append(hp[-1] @ gplus[al])
        hm.append(gminus_inv[al] @ hm[-1])
    return gplus, gminus_inv, hp, hm


def _h_map(x: np.ndarray, n: int, d: int) -> np.ndarray:
    """The functions lemma_h_residuals differentiates, (..., 2nd) -> (..., 2dn^2):
    h+^1..d, then h-^1..d, flattened."""
    _, _, hp, hm = _h_products(charts.unpack_tuple(x, n, d))
    return np.concatenate([_flat(m) for m in hp[1:] + hm[1:]], axis=-1)


def _product(factors, n: int) -> np.ndarray:
    """The left-to-right product of a list of (stacks of) n x n factors; empty = I."""
    out = np.eye(n, dtype=complex)
    for g in factors:
        out = out @ g
    return out


def lemma_h_residuals(kappa: complex, t: SpinTuple, scheme: DiffScheme) -> dict:
    """Residuals of the seven bracket identities between the spin coordinates,
    the cumulative products h+-^beta, and among the h's themselves, maximized
    over all index pairs (alpha, beta), at a tuple or a stack of tuples.

    With 1-based copies, h+^{al;be} = g_+(al)...g_+(be) and
    h-^{al;be} = g_-(be)^-1...g_-(al)^-1 (both I when al > be).
    """
    n, d = t.n, t.d
    n2 = n * n
    x = charts.pack_tuple(t)
    rn, rp, rm = dj_r(n), r_pm(n, +1), r_pm(n, -1)
    gp_list, gminus_inv, hp, hm = _h_products(t)
    C, J = _coordinate_brackets(BracketSpec("Sprod", kappa, n=n, d=d), x, lambda xx: _h_map(xx, n, d), scheme)
    batch = C.shape[:-2]
    # axes: copy al, a/b, entry of the spin; h+/h-, copy be, entry of h
    ch = C.reshape(batch + (d, 2, n, 2, d, n2))
    # {h+^al, h^be}; axes: copy al, entry of h+; h+/h-, copy be, entry of h
    hh = (J[..., : d * n2, :] @ C).reshape(batch + (d, n2, 2, d, n2))

    keys = ["a_hplus", "b_hplus", "a_hminus", "b_hminus", "hplus_hplus", "hplus_hminus_le", "hplus_hminus_ge"]
    out = {k: 0.0 for k in keys}

    def upd(key, lhs, rhs_t4=None):
        diff = lhs if rhs_t4 is None else lhs - _matrix(rhs_t4, *lhs.shape[-2:])
        out[key] = np.maximum(out[key], max_abs(diff))

    for al in range(1, d + 1):
        a_col = t[al - 1].a[..., :, None]
        b_row = t[al - 1].b[..., None, :]
        for be in range(1, d + 1):
            lhs_ap, lhs_bp = ch[..., al - 1, 0, :, 0, be - 1, :], ch[..., al - 1, 1, :, 0, be - 1, :]
            lhs_am, lhs_bm = ch[..., al - 1, 0, :, 1, be - 1, :], ch[..., al - 1, 1, :, 1, be - 1, :]
            pp, pm = hh[..., al - 1, :, 0, be - 1, :], hh[..., al - 1, :, 1, be - 1, :]
            if al <= be:
                hpr = _product(gp_list[al - 1 : be], n)  # h+^{al;be}
                hmr = _product(gminus_inv[al - 1 : be][::-1], n)  # h-^{al;be}
                upd("a_hplus", lhs_ap, -kappa * rm.rmul1(a_col).lmul2(hp[al - 1]).rmul2(hpr))
                upd("b_hplus", lhs_bp, kappa * rm.lmul1(b_row).lmul2(hp[al - 1]).rmul2(hpr))
                upd("a_hminus", lhs_am, kappa * rp.rmul1(a_col).lmul2(hmr).rmul2(hm[al - 1]))
                upd("b_hminus", lhs_bm, -kappa * rp.lmul1(b_row).lmul2(hmr).rmul2(hm[al - 1]))
                mid = _product(gp_list[al:be], n)  # h+^{al+1;be}
                rhs = kappa * (rn.lmul1(hp[al]).lmul2(hp[al]).rmul2(mid) - rn.rmul1(hp[al]).rmul2(hp[be]))
                upd("hplus_hplus", pp, rhs)
                midm = _product(gminus_inv[al:be][::-1], n)  # h-^{al+1;be}
                rhs = kappa * (rp.lmul2(hm[be]).rmul1(hp[al]) - rp.lmul1(hp[al]).lmul2(midm).rmul2(hm[al]))
                upd("hplus_hminus_le", pm, rhs)
            else:
                for key, lhs in (("a_hplus", lhs_ap), ("b_hplus", lhs_bp), ("a_hminus", lhs_am), ("b_hminus", lhs_bm)):
                    upd(key, lhs)
            if al >= be:
                midp = _product(gp_list[be:al], n)  # h+^{be+1;al}
                rhs = kappa * (rp.lmul2(hm[be]).rmul1(hp[al]) - rp.lmul1(hp[be]).rmul1(midp).rmul2(hm[be]))
                upd("hplus_hminus_ge", pm, rhs)
    return out


# --- symplectic form, rank, admissibility --------------------------------------


def symplectic_matrix(kappa: complex, p: SpinPoint) -> np.ndarray:
    """Matrix of the local symplectic 2-form in the chart (a_1..a_n, b_1..b_n);
    spins of shape (..., n) give a stack of matrices (..., 2n, 2n)."""
    n = p.n
    G = _nonvanishing_g(p)
    a, b = p.a[..., :, None], p.b[..., :, None]  # row index i
    a_s, b_s = p.a[..., None, :], p.b[..., None, :]  # column index s
    # each wedge term sits once, at row i < column s; folding antisymmetrizes
    c = 1.0 / (2 * kappa * G[..., 1 : n + 1, None] * G[..., 2 : n + 2, None])
    r = np.arange(n)
    Om = np.empty(G.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    Om[..., :n, :n] = np.triu(c * b * b_s, 1)
    Om[..., :n, n:] = np.triu(c * b * a_s, 1)
    Om[..., r, n + r] = -1.0 / (kappa * G[..., 1 : n + 1])
    Om[..., n:, :n] = np.triu(-c * a * b_s, 1)
    Om[..., n:, n:] = np.triu(-c * a * a_s, 1)
    return Om - _t(Om)


def symplectic_inversion_residual(kappa: complex, p: SpinPoint):
    """|Omega Pi - I| with Pi the bracket matrix of the spin space at p; one
    spin gives a float, a stack of spins (..., n) their residuals."""
    Om = symplectic_matrix(kappa, p)
    Pi = BracketSpec("S", kappa, n=p.n, d=1).bivector(charts.pack_spoint(p.as_spoint()))
    return max_abs(Om @ Pi - np.eye(2 * p.n))


def rank_at(spec: BracketSpec, x: np.ndarray, sv_tolerance: float) -> int:
    """Numerical rank of the bracket matrix at x via its singular values."""
    sv = np.linalg.svd(spec.bivector(np.asarray(x, dtype=complex)), compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.count_nonzero(sv > sv_tolerance * max(float(sv[0]), 1.0)))


def zak_condition_residual(F: HoloFn1, G: HoloFn1, t):
    """|F F' + G (F - F' t) - t|: zero iff the covariant bracket is Poisson for n >= 2.

    A scalar t gives a float; an array of t gives the array of residuals."""
    Fv, Fp, Gv = F.eval(t), F.deriv(t), G.eval(t)
    r = np.abs(Fv * Fp + Gv * (Fv - Fp * t) - t)
    return float(r) if np.ndim(r) == 0 else r
