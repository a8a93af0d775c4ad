"""Residual computations for every identity the library asserts: Jacobi,
Poisson/anti-Poisson maps, Poisson actions, moment-map relations, the
h-product bracket identities, symplectic inversion, rank, and the
admissibility condition of the holomorphic covariant brackets.

All differentiation goes through one routine: central differences along
the real directions each caller passes (valid for holomorphic maps) on the
stencil of the ``DiffScheme`` it names; exact Jacobians should be supplied
for linear maps.  A differentiated map takes points of shape (..., dim) to
values of shape (..., m), and each Jacobian evaluates all its probe points,
along the rows of the identity, in one call.  Brackets of
functions g are read from C = Pi J_g^T, the brackets {x_p, g_q} of the
coordinates with g (``_coordinate_brackets``), and J_g C: only the functions
are differentiated, never the coordinates themselves.  Every product of
dim-sided matrices goes through ``_matmul``, which keeps it on one core.

Every residual takes one point and returns a float (a dict of floats for
the identity families), or a stack of S points and returns the (S,) array
of their residuals (a dict of such arrays).  Points are flat coordinates of
shape (dim,) or (S, dim), or point containers whose arrays carry the
leading axis S.

``jacobi_residual`` probes the bivector along its own rows Pi(x) e_i, so the
differences are T[i,j,k] = sum_l Pi_il d_l Pi_jk itself, and takes the max
of the cyclic sums over i < j < k from a packed Jacobiator.  Only the memory
blocking depends on the size (``_BLOCK_ENTRIES``): a chunk of samples per
call, gathered whole (``_gather_jacobiator``), or a block of one sample's
rows per call, added as it arrives (``_add_rows``).  Both sum each triple in
the same order, so a sample's residual is the same, bit for bit, at every
block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import charts
from .brackets import BracketSpec, HoloFn1, sts_rhs_tensor
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


def _difference_blocks(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    scheme: DiffScheme,
    block: int,
    directions: np.ndarray,
):
    """Derivative stacks D[s, l] = sum_k c_k (f(x_s + t_k v_sl) - f(x_s - t_k v_sl))
    of the S points x of shape (S, dim) along directions v, with the offsets
    t_k and weights c_k of ``scheme``, one block at a time: yields
    (l0, D[:, l0:l1]), of shape (S, l1 - l0, ...), for each block of at most
    ``block`` consecutive directions l, each in an array of its own, after
    one call of ``f`` on that block's probes x_s +- t_k v_sl.  ``directions``
    has shape (S, m, dim), or (1, m, dim) for the same directions at every
    point.

    ``f`` maps a (P, dim) stack of probes to P values; ValueError if the
    values do not come back one per probe."""
    S, dim = x.shape
    m = directions.shape[1]
    K = len(scheme.offsets)
    for l0 in range(0, m, block):
        l1 = min(m, l0 + block)
        steps = np.multiply.outer(scheme.offsets, directions[:, l0:l1]).swapaxes(0, 1)  # [s, k, l] = t_k v_sl
        X = np.empty((S, K, 2, l1 - l0, dim), dtype=complex)
        np.add(x[:, None, None, :], steps, out=X[:, :, 0])
        np.subtract(x[:, None, None, :], steps, out=X[:, :, 1])
        X = X.reshape(-1, dim)
        Y = np.asarray(f(X))
        if Y.shape[:1] != X.shape[:1]:
            raise ValueError(f"map must take (..., {dim}) to (..., m): a {X.shape} stack gave {Y.shape}")
        Y = Y.reshape((S, K, 2, l1 - l0) + Y.shape[1:])
        blk = np.subtract(Y[:, 0, 0], Y[:, 0, 1])
        blk *= scheme.weights[0]
        for k in range(1, K):
            diff = np.subtract(Y[:, k, 0], Y[:, k, 1], out=Y[:, k, 0])  # in place: no temporary
            diff *= scheme.weights[k]
            blk += diff
        del Y  # not alive during the next block's call
        yield l0, blk
        del blk  # nor this block, once the caller is done with it


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for stacks of matrices, in blocks of at least two rows of A.

    OpenBLAS (0.3.31) runs a product of M*N*K >= 2^16 multiply-adds on a
    second thread, which then spins between calls, and a one-row product
    goes to gemv, which threads far sooner.  Each block stays below 2^16
    where two rows do, but for one block of three rows of an odd M where
    three rows do not.  A block of rows of A gives the same rows of A @ B,
    bit for bit; each is written into one output, so no block outlives its
    product."""
    M, K = A.shape[-2:]
    rows = max(1, (2**16 - 1) // max(1, K * B.shape[-1]))
    blocks = min(M // 2, -(-M // rows))
    if blocks <= 1:
        return A @ B
    out = np.empty(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (M, B.shape[-1]), np.result_type(A, B))
    r0 = 0
    for a in np.array_split(A, blocks, axis=-2):
        r1 = r0 + a.shape[-2]
        np.matmul(a, B, out=out[..., r0:r1, :])
        r0 = r1
    return out


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
    ((_, D),) = _difference_blocks(f, x.reshape(-1, dim), scheme, dim, np.eye(dim)[None])
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
    Pi: the probes run along the rows Pi(x) e_i (unnormalised), so their
    differences are T itself.  Every probe calls the raw fill
    ``spec.upper``, so T is read only where j < k, with
    T[j,k,i] = -T[j,i,k]; J is totally antisymmetric, so the max over
    i < j < k is the full max up to the rounding of the three cyclic sums,
    and never above it.  The packed J over i < j < k, C(dim, 3) complex
    entries (a sixth of a (dim, dim, dim) array) in colex order, sums each
    triple as (T[i,j,k] - T[j,i,k]) + T[k,i,j], and max |J| is taken per
    sample in chunks.  Two blockings, chosen by the entries ``per_sample``
    of the calls one sample's probes need, keep the memory bounded:

    - one call (``per_sample <= _BLOCK_ENTRIES``): the stack is cut into
      chunks of consecutive samples whose probes fit in one call, after one
      bivector call for the chunk's directions, and J is gathered from the
      chunk's T whole.
    - row blocks: one sample at a time, after a bivector call for its
      directions, its probes in blocks of consecutive rows of at most
      ``_BLOCK_ENTRIES`` entries a call, each block's differences added to
      J as the block arrives.

    A sample's residual depends only on its point, and is the same, bit for
    bit, at every ``_BLOCK_ENTRIES``.
    """
    x = np.asarray(x, dtype=complex)
    dim = spec.dim
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"jacobi_residual takes ({dim},) or (S, {dim}) points, got {x.shape}")
    X = x.reshape(-1, dim)
    per_direction = 2 * len(scheme.offsets) * dim * dim  # output entries of one row's probes
    per_sample = dim * per_direction
    parts = []
    if per_sample <= _BLOCK_ENTRIES:
        chunk = _BLOCK_ENTRIES // per_sample
        for s0 in range(0, len(X), chunk):
            Xc = X[s0 : s0 + chunk]
            ((_, T),) = _difference_blocks(spec.upper, Xc, scheme, dim, directions=spec.bivector(Xc))
            parts.append(_max_abs_chunked(_gather_jacobiator(T)))
            del T  # not alive during the next chunk's fill
    else:
        block = max(1, _BLOCK_ENTRIES // per_direction)
        for s in range(len(X)):
            Xs = X[s : s + 1]
            J = np.zeros(_packed_size(dim), dtype=complex)
            for l0, D in _difference_blocks(spec.upper, Xs, scheme, block, directions=spec.bivector(Xs)):
                _add_rows(J, D[0], l0)
                del D  # not alive during the next block's call
            parts.append(_max_abs_chunked(J[None, : math.comb(dim, 3)]))
            del J  # not alive during the next sample's fill
    out = np.concatenate(parts) if parts else np.empty(0)
    return float(out[0]) if x.ndim == 1 else out


@lru_cache(maxsize=None)
def _triple_tables(dim: int):
    """Index tables of the packed Jacobiator of ``jacobi_residual``, which
    holds J[i,j,k] for i < j < k at the colex position C(k,3) + C(j,2) + i.

    For the pairs b < c in colex order (c, then b): their flat positions
    b*dim + c in a (dim, dim) matrix, b and c; and (dim, dim) tables F, G
    and E with the entry D[a,b,c] of row a going to position
    F[a,b] + G[a,c] with sign E[a,b] E[a,c]: the position of sort(a,b,c),
    and - when b < a < c, + otherwise.  E[a,x] = sgn(x - a) is 0 for
    x = a, where F and G are 0, so an entry with a in {b, c} adds 0 at a
    position below C(dim, 2)."""
    r = np.arange(dim)
    C2 = r * (r - 1) // 2
    C3 = C2 * (r - 2) // 3
    c, b = np.tril_indices(dim, -1)
    a, x = r[:, None], r[None, :]
    F = np.where(x > a, C2[x] + a, C2[a] + x)  # the colex position of the pair {a, x}
    G = np.where(x > a, C3[x], C3[a] - C2[a] + C2[x])
    np.fill_diagonal(F, 0)
    np.fill_diagonal(G, 0)
    E = np.sign(x - a).astype(float)
    for t in (b, c, F, G, E):
        t.flags.writeable = False
    return b * dim + c, b, c, F, G, E


def _packed_size(dim: int) -> int:
    """Entries of the packed Jacobiator: C(dim, 3), and at least C(dim, 2)
    for the zero terms of ``_add_rows``."""
    return max(math.comb(dim, 3), math.comb(dim, 2))


def _add_rows(J: np.ndarray, D: np.ndarray, l0: int) -> None:
    """Add the rows a = l0, l0 + 1, ... of the derivative block D of shape
    (rows, dim, dim), read only where its last two indices b < c increase,
    to the packed Jacobiator J: D[a,b,c] = T[a,b,c] is a term of
    J[sort(a,b,c)], with sign - when b < a < c (T[b,c,a] = -T[b,a,c]).
    A triple of three rows of one block takes its terms in the order of
    the rows."""
    rows, dim = D.shape[:2]
    flat, b, c, F, G, E = _triple_tables(dim)
    a = slice(l0, l0 + rows)
    vals = np.take(D.reshape(rows, dim * dim), flat, axis=1)
    vals *= np.take(E[a], b, axis=1) * np.take(E[a], c, axis=1)
    index = np.take(F[a], b, axis=1)
    index += np.take(G[a], c, axis=1)
    np.add.at(J, index.ravel(), vals.ravel())


@lru_cache(maxsize=32)
def _cyclic_positions(dim: int) -> np.ndarray:
    """The read-only (3, C(dim, 3)) flat positions, in a (dim, dim, dim)
    array, of [i,j,k], [j,i,k] and [k,i,j] for the triples i < j < k in the
    packed Jacobiator's colex order (k, then j, then i)."""
    r = np.arange(dim)
    k, j, i = np.nonzero((r[:, None, None] > r[:, None]) & (r[:, None] > r))
    pos = np.stack([(i * dim + j) * dim + k, (j * dim + i) * dim + k, (k * dim + i) * dim + j])
    pos.flags.writeable = False
    return pos


def _gather_jacobiator(T: np.ndarray) -> np.ndarray:
    """The packed Jacobiators (T[i,j,k] - T[j,i,k]) + T[k,i,j] over i < j < k
    in colex order, of shape (S, C(dim, 3)), of an (S, dim, dim, dim) stack T
    read only where its last two indices increase: the sums ``_add_rows``
    accumulates, in its order, so the same bits."""
    S, dim = T.shape[:2]
    T = T.reshape(S, -1)
    ijk, jik, kij = _cyclic_positions(dim)
    J = np.take(T, ijk, axis=1) - np.take(T, jik, axis=1)
    J += np.take(T, kij, axis=1)
    return J


def _max_abs_chunked(J: np.ndarray) -> np.ndarray:
    """max |J| over each row of an (S, m) array, taken in chunks of about
    ``_BLOCK_ENTRIES`` entries: no float copy of the whole array; shape (S,),
    0 for an empty row, NaN where a row has a NaN."""
    S, m = J.shape
    out = np.zeros(S)
    step = max(1, _BLOCK_ENTRIES // S)
    for j0 in range(0, m, step):
        np.maximum(out, np.max(np.abs(J[:, j0 : j0 + step]), axis=1), out=out)
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
    return _matmul(_matmul(J, Pi), _t(J))


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
    return _matmul(spec.bivector(x), _t(Jg)), Jg


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
    return _matmul(Jf, C)


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
    the unhatted ones times -1, and the STS fill at Gamma against the oracle
    of 'Ga1' ('Ga1_sts'), at a point or a stack of points.  All maps
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
        sts = _matrix(sts_rhs_tensor(kappa, G, n), n * n, n * n)
        out[f"Ga1{suffix}"] = max_abs(_matmul(J, C) - sign * sts)
        if sign > 0:  # the STS bracket at Gamma is this oracle, exactly
            out["Ga1_sts"] = max_abs(BracketSpec("STS", kappa, ell=n).bivector(charts.pack_gl(G)) - sts)
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
    gplus, gminus_inv = [], []
    for s in t:  # g_- and g_+^{-1} are never read: drop them copy by copy
        gp, _, _, gm_inv = g_factors(s)
        gplus.append(gp)
        gminus_inv.append(gm_inv)
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
    hh = _matmul(J[..., : d * n2, :], C).reshape(batch + (d, n2, 2, d, n2))

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
    return max_abs(_matmul(Om, Pi) - np.eye(2 * p.n))


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
