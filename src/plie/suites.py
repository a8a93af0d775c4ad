"""Verification suites: named bundles of residual checks over seeded samples.

Each suite evaluates a set of identity checks at deterministic sample points.
A check returns raw residuals; ``_execute`` divides each by its bound from
the suite's ``params["bounds"]`` and reports a single normalized residual
per sample, so the suite passes iff the normalized maximum is at most 1.
The bounds are fixed here (``TOL_EXACT``, ``TOL_FD`` and per-check values)
and appear in the report params.

A suite builder returns (params, sample count, check).  The check takes the
array of S sample indices and returns {check name: (S,) array of raw
residuals}.  It evaluates each of its checks once, on the (S, ...) stack of
its samples: the sampling functions draw that stack from the index array,
and every residual below them takes it.  ``_execute`` hands a check all of
a run's samples at once unless they would make its arrays too large, and
then in chunks (``_STACK_ENTRIES``).  The rank suite's check does not
depend on the sample; it is evaluated once and repeated per index.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import charts, decoupling as dc, factorization as fc, sampling, verify as vf
from .brackets import BracketSpec, HoloFn1
from .errors import ConfigError
from .points import SPoint
from .verify import DiffScheme, VerificationReport, max_abs

__all__ = ["MAX_DIM", "MAX_RADIUS", "MAX_SAMPLES", "MAX_SCALE", "RunConfig", "SUITES", "check_dims", "run_suite"]

SUITES = (
    "jacobi",
    "decouple-m",
    "decouple-F",
    "factorization",
    "ao-maps",
    "moment",
    "lemma4",
    "symplectic",
    "rank",
    "zakrzewski",
    "actions",
    "all",
)

# The largest coordinate dimension a run may ask for: at dim 256 the packed
# Jacobiator of one jacobi sample, C(256, 3) complex entries, is 44 MB.
MAX_DIM = 256

# The most samples a run may ask for: _execute keeps a few (checks x samples)
# float arrays, each 8 MB at the moment suite's ten checks.
MAX_SAMPLES = 10**5

# |kappa| and |epsilon| lie in [1/MAX_SCALE, MAX_SCALE].  With K the larger of
# the scale and its inverse, every fill, Jacobian and Jacobiator of every suite
# is at most about 1e13 K^3 at MAX_DIM: K^3 is the bivector at the Jacobi
# probes x + t Pi(x) e_i, and 1e13 bounds the dimension, stencil and chart
# factors.  At K <= 1e50 nothing comes near overflow (1e308) or underflow.
MAX_SCALE = 1e50

# The sample radius lies in (0, MAX_RADIUS].  The highest power of the radius
# R in any suite is R^(2d) <= R^32 (d <= 16 at MAX_DIM), in lemma4's ordered
# products of d factors; every other suite's is at most R^4.  At R <= 1e3 that
# is 1e96; times K^2 <= 1e100 at MAX_SCALE and 1e13 for the dimension, stencil
# and chart factors, every value stays below about 1e209, far from overflow.
MAX_RADIUS = 1e3


def check_dims(dims: dict) -> None:
    """ConfigError naming the first dimension above MAX_DIM; ``dims`` maps a
    formula such as '2*n*d' to its value."""
    for formula, value in dims.items():
        if value > MAX_DIM:
            raise ConfigError(f"{formula} must be <= MAX_DIM = {MAX_DIM}")


# per annotated field type: the numbers it admits (never a bool) and its canonical type
_KINDS = {
    "int": (numbers.Integral, int),
    "float": (numbers.Real, float),
    "complex": (numbers.Complex, complex),
}


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run; ``plie verify`` takes one flag per field."""

    suite: str
    n: int = 2
    d: int = 2
    ell: int = 3
    kappa: complex = 1.0 + 0j
    epsilon: float = 1.0
    seed: int = 42
    samples: int = 25
    radius: float = 0.3

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            kind, canonical = _KINDS[f.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            try:
                value = canonical(value)
            except OverflowError:  # an integer too large for a float
                value = math.inf
            if not isinstance(value, int) and not cmath.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            object.__setattr__(self, f.name, value)
        for name in ("n", "d", "ell", "samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.samples > MAX_SAMPLES:
            raise ConfigError(f"samples must be <= MAX_SAMPLES = {MAX_SAMPLES}")
        # the spaces S(n,d), GL(n), GL(d) and GL(ell) x GL(ell) of the suites
        n, d, ell = self.n, self.d, self.ell
        check_dims({"2*n*d": 2 * n * d, "n*n": n * n, "d*d": d * d, "2*ell*ell": 2 * ell * ell})
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not 0 < self.radius <= MAX_RADIUS:
            raise ConfigError(f"radius must lie in (0, MAX_RADIUS] = (0, {MAX_RADIUS:g}]")
        if self.kappa == 0:
            raise ConfigError("kappa must be nonzero")
        if not cmath.isfinite(1 / self.kappa):  # the decoupling maps scale by -1/kappa
            raise ConfigError(f"1/kappa must be finite, got kappa = {self.kappa!r}")
        if self.epsilon == 0:
            raise ConfigError("epsilon must be nonzero")
        for name in ("kappa", "epsilon"):
            if not 1 / MAX_SCALE <= abs(getattr(self, name)) <= MAX_SCALE:
                raise ConfigError(f"|{name}| must lie in [1/MAX_SCALE, MAX_SCALE] = [{1 / MAX_SCALE:g}, {MAX_SCALE:g}]")


# bounds: exact-class identities hold to rounding; FD-class ones carry the
# truncation error of the _RATIONAL scheme
TOL_EXACT = 1e-10
TOL_FD = 1e-7

# the two schemes: central differences at a large step are exact (up to
# rounding) for polynomial maps; every rational one (g+-, the decoupling
# maps, the GL actions, DualGroup) takes a small step and one Richardson level
_POLY = DiffScheme(step=1e-2, richardson=False)
_RATIONAL = DiffScheme(step=1e-3, richardson=True)


# (F, G) pairs of the Zakrzewski brackets: affine F = 2 + t with G = -1 and
# linear F = t with G = 0 are admissible; F = 1 with G = 0 is not
_F_AFF = HoloFn1.affine(2, 1, "F")
_G_AFF = HoloFn1.affine(-1, 0, "G")
_F_LIN = HoloFn1.affine(0, 1, "F")
_F_ONE = HoloFn1.affine(1, 0, "F")
_G_ZERO = HoloFn1.affine(0, 0, "G")


def _tuple_diff(t1, t2) -> np.ndarray:
    """Per point of two stacks of spin tuples: the largest entry difference."""
    return np.max(np.abs(charts.pack_tuple(t1) - charts.pack_tuple(t2)), axis=-1)


# --- individual suites -------------------------------------------------------


def _suite_jacobi(cfg: RunConfig):
    kinds_s = ("S", "AOplus", "AOminus", "Prime", "Sprod")
    kinds_gl = ("GLmult", "Double", "STS")
    bounds = {k: TOL_EXACT for k in kinds_s + kinds_gl + ("DualGroup",)}
    params = {
        "kinds": sorted(bounds),
        "n": cfg.n,
        "d": cfg.d,
        "ell": cfg.ell,
        "kappa": cfg.kappa,
        "point_radius": 1.0,
        "bounds": bounds,
    }

    specs = [BracketSpec(k, cfg.kappa, n=cfg.n, d=cfg.d) for k in kinds_s]
    specs += [BracketSpec(k, cfg.kappa, ell=cfg.ell) for k in kinds_gl]
    dual = BracketSpec("DualGroup", cfg.kappa, ell=cfg.ell)

    def check(indices: np.ndarray) -> dict:
        # a sample depends only on (seed, index, dim, radius): kinds of one dim share a stack
        stacks = {}
        out = {}
        for spec in specs:
            if spec.dim not in stacks:
                stacks[spec.dim] = sampling.sample_vector(cfg.seed, indices, spec.dim, 1.0)
            out[spec.kind] = vf.jacobi_residual(spec, stacks[spec.dim], _POLY)
        X = charts.pack_dual(sampling.sample_dual(cfg.seed, indices, cfg.ell, 0.4))
        out["DualGroup"] = vf.jacobi_residual(dual, X, _RATIONAL)
        return out

    return params, cfg.samples, check


def _suite_decouple_m(cfg: RunConfig):
    bounds = {"poisson_map": TOL_FD, "roundtrip": TOL_EXACT}
    params = {"n": cfg.n, "d": cfg.d, "kappa": cfg.kappa, "radius": cfg.radius, "bounds": bounds}
    src = BracketSpec("Sprod", cfg.kappa, n=cfg.n, d=cfg.d)
    tgt = BracketSpec("S", cfg.kappa, n=cfg.n, d=cfg.d)

    def fmap(x):
        return charts.pack_spoint(dc.map_m(charts.unpack_tuple(x, cfg.n, cfg.d)))

    def check(indices: np.ndarray) -> dict:
        t = sampling.sample_tuple(cfg.seed, indices, cfg.n, cfg.d, cfg.radius)
        return {
            "poisson_map": vf.poisson_map_residual(src, tgt, fmap, charts.pack_tuple(t), _RATIONAL),
            "roundtrip": _tuple_diff(t, dc.map_m_inverse(dc.map_m(t))),
        }

    return params, cfg.samples, check


def _suite_decouple_F(cfg: RunConfig):
    bounds = {
        "poisson_map_F": TOL_FD,
        "poisson_map_thetaF": TOL_FD,
        "roundtrip": TOL_EXACT,
        "residue_identity": TOL_EXACT,
    }
    params = {"n": cfg.n, "d": cfg.d, "kappa": cfg.kappa, "radius": cfg.radius, "bounds": bounds}
    src = BracketSpec("Sprod", cfg.kappa, n=cfg.n, d=cfg.d)
    tgt_pr = BracketSpec("Prime", cfg.kappa, n=cfg.n, d=cfg.d)
    tgt_ao = BracketSpec("AOplus", cfg.kappa, n=cfg.n, d=cfg.d)
    th_a = 1.0
    th_b = -1.0 / cfg.kappa

    def f_theta_f(x):
        # x -> [F(x), theta(F(x))]: one Jacobian of it is both maps', and map_F runs once on the probes
        p = dc.map_F(charts.unpack_tuple(x, cfg.n, cfg.d))
        q = dc.map_theta(p, th_a, th_b, cfg.kappa)
        return np.concatenate([charts.pack_spoint(p), charts.pack_spoint(q)], axis=-1)

    def check(indices: np.ndarray) -> dict:
        t = sampling.sample_tuple(cfg.seed, indices, cfg.n, cfg.d, cfg.radius)
        x = charts.pack_tuple(t)
        q = dc.map_theta(dc.map_F(t), th_a, th_b, cfg.kappa)
        GG = fc.calG_pm(t)
        lhs = np.eye(cfg.n) + cfg.kappa * q.A @ q.B
        J, m = vf.jacobian_fd(f_theta_f, x, _RATIONAL), x.shape[-1]
        return {
            "poisson_map_F": vf.poisson_map_residual(src, tgt_pr, lambda y: f_theta_f(y)[:, :m], x, jac=J[:, :m]),
            "poisson_map_thetaF": vf.poisson_map_residual(src, tgt_ao, lambda y: f_theta_f(y)[:, m:], x, jac=J[:, m:]),
            "roundtrip": _tuple_diff(t, dc.map_F_inverse(dc.map_F(t))),
            "residue_identity": max_abs(lhs - np.linalg.solve(GG.hplus, GG.hminus)),
        }

    return params, cfg.samples, check


def _suite_factorization(cfg: RunConfig):
    bounds = {"factid1": 1e-12, "factid2": 1e-11, "chi_roundtrip": TOL_EXACT, "gauss": 1e-12}
    params = {"n": cfg.n, "d": cfg.d, "radius": cfg.radius, "bounds": bounds}

    def check(indices: np.ndarray) -> dict:
        n = cfg.n
        s = sampling.sample_spin(cfg.seed, indices, n, cfg.radius)
        t = sampling.sample_tuple(cfg.seed, indices, n, cfg.d, cfg.radius)
        h = np.eye(n) + sampling.sample_gl(cfg.seed, indices, n, cfg.radius)
        gt, g0, lt = fc.gauss(h)
        return {
            "factid1": max_abs(np.eye(n) + s.a[..., :, None] * s.b[..., None, :] - fc.chi(fc.g_pm(s))),
            "factid2": max_abs(fc.gamma(dc.map_m(t)) - fc.chi(fc.calG_pm(t))),
            "chi_roundtrip": max_abs(fc.chi(fc.chi_inverse_local(h)) - h),
            "gauss": max_abs(gt @ g0 @ lt - h),
        }

    return params, cfg.samples, check


def _linear_jacobian(fmap: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Exact Jacobian of a linear map, from one call on the stack (0, e_1, ..., e_dim)."""
    Y = np.asarray(fmap(np.eye(dim + 1, dim, -1, dtype=complex)))
    return (Y[1:] - Y[0]).T


def _suite_ao_maps(cfg: RunConfig):
    n, d, kap = cfg.n, cfg.d, cfg.kappa
    bounds = {k: TOL_EXACT for k in ("xi", "nu", "theta", "iota", "iota_spin")}
    params = {"n": n, "d": d, "kappa": kap, "bounds": bounds}
    s_spec = BracketSpec("S", kap, n=n, d=d)
    xi_a = 1.0
    xi_b = -1.0 / kap
    maps = {
        "xi": (
            s_spec,
            BracketSpec("AOplus", -kap, n=n, d=d),
            lambda x: charts.pack_spoint(dc.map_xi(charts.unpack_spoint(x, n, d), xi_a, xi_b, kap)),
        ),
        "nu": (
            s_spec,
            BracketSpec("S", -kap, n=d, d=n),
            lambda x: charts.pack_spoint(dc.map_nu(charts.unpack_spoint(x, n, d))),
        ),
        "theta": (
            BracketSpec("Prime", kap, n=n, d=d),
            BracketSpec("AOplus", kap, n=n, d=d),
            lambda x: charts.pack_spoint(dc.map_theta(charts.unpack_spoint(x, n, d), xi_a, xi_b, kap)),
        ),
    }
    jacs = {k: _linear_jacobian(f, src.dim) for k, (src, tgt, f) in maps.items()}
    sprod = BracketSpec("Sprod", kap, n=n, d=d)
    iota_f = lambda x: charts.pack_tuple(dc.iota(charts.unpack_tuple(x, n, d)))
    J_iota = _linear_jacobian(iota_f, sprod.dim)
    zak = BracketSpec("ZakC", kap, n=n, F=_F_AFF, G=_G_AFF)
    swap = np.zeros((2 * n, 2 * n))
    swap[:n, n:] = np.eye(n)
    swap[n:, :n] = np.eye(n)

    def check(indices: np.ndarray) -> dict:
        # every source chart has dim 2nd, so the maps share one stack of points
        x = sampling.sample_vector(cfg.seed, indices, sprod.dim, 1.0)
        out = {k: vf.poisson_map_residual(src, tgt, f, x, jac=jacs[k]) for k, (src, tgt, f) in maps.items()}
        out["iota"] = vf.anti_poisson_residual(sprod, iota_f, x, jac=J_iota)
        xz = sampling.sample_vector(cfg.seed, indices, zak.dim, 1.0)
        out["iota_spin"] = vf.anti_poisson_residual(zak, lambda xx: xx @ swap.T, xz, jac=swap)
        return out

    return params, cfg.samples, check


def _suite_moment(cfg: RunConfig):
    exact_keys = ("Ga1", "Ga2_A", "Ga2_B", "Ga1prime", "Ga2prime_A", "Ga2prime_B")
    fd_keys = ("mom1_gplus_a", "mom1_gplus_b", "mom1_gminus_a", "mom1_gminus_b")
    bounds = {k: TOL_EXACT for k in exact_keys}
    bounds.update({k: 1e-6 for k in fd_keys})
    params = {"n": cfg.n, "d": cfg.d, "kappa": cfg.kappa, "radius": cfg.radius, "bounds": bounds}

    def check(indices: np.ndarray) -> dict:
        p = sampling.sample_spoint(cfg.seed, indices, cfg.n, cfg.d, cfg.radius)
        # the Gamma relations are polynomial; only g+- is rational
        res = vf.moment_gamma_residuals(cfg.kappa, p, _POLY)
        res.update(vf.moment_factor_residuals(cfg.kappa, p, _RATIONAL))
        return {k: res[k] for k in exact_keys + fd_keys}

    return params, cfg.samples, check


def _suite_lemma4(cfg: RunConfig):
    keys = (
        "a_hplus",
        "b_hplus",
        "a_hminus",
        "b_hminus",
        "hplus_hplus",
        "hplus_hminus_le",
        "hplus_hminus_ge",
    )
    bounds = {k: 1e-6 for k in keys}
    params = {"n": cfg.n, "d": cfg.d, "kappa": cfg.kappa, "radius": cfg.radius, "bounds": bounds}

    def check(indices: np.ndarray) -> dict:
        t = sampling.sample_tuple(cfg.seed, indices, cfg.n, cfg.d, cfg.radius)
        res = vf.lemma_h_residuals(cfg.kappa, t, _RATIONAL)
        return {k: res[k] for k in keys}

    return params, cfg.samples, check


def _suite_symplectic(cfg: RunConfig):
    bounds = {"inversion": TOL_EXACT}
    params = {"n": cfg.n, "kappa": cfg.kappa, "radius": cfg.radius, "bounds": bounds}

    def check(indices: np.ndarray) -> dict:
        p = sampling.sample_spin(cfg.seed, indices, cfg.n, cfg.radius)
        return {"inversion": vf.symplectic_inversion_residual(cfg.kappa, p)}

    return params, cfg.samples, check


def _degenerate_spoint(n: int, d: int) -> SPoint:
    A = np.zeros((n, d), dtype=complex)
    B = np.zeros((d, n), dtype=complex)
    A[n - 1, 0] = 1.0
    B[0, n - 1] = -1.0
    return SPoint(A, B)


def _suite_rank(cfg: RunConfig):
    sizes = [(n, d) for n in range(2, 6) for d in range(2, 6)]
    spec0 = BracketSpec("S", cfg.kappa, n=cfg.n, d=cfg.d)
    degen_rank = vf.rank_at(spec0, charts.pack_spoint(_degenerate_spoint(cfg.n, cfg.d)), 1e-8)
    params = {
        "kappa": cfg.kappa,
        "sv_tolerance": 1e-8,
        "sizes": sizes,
        "origin_size": [cfg.n, cfg.d],
        "degenerate_rank": degen_rank,
        "bounds": {"rank_mismatch": 0.5},
    }

    def check(indices: np.ndarray) -> dict:
        worst = 0.0
        for n, d in sizes:
            spec = BracketSpec("S", cfg.kappa, n=n, d=d)
            r = vf.rank_at(spec, charts.pack_spoint(_degenerate_spoint(n, d)), 1e-8)
            worst = max(worst, float(abs(r - 2 * (n - 1) * (d - 1))))
        r = vf.rank_at(spec0, np.zeros(spec0.dim, dtype=complex), 1e-8)
        worst = max(worst, float(abs(r - 2 * cfg.n * cfg.d)))
        return {"rank_mismatch": np.full(len(indices), worst)}

    return params, 1, check


def _suite_zakrzewski(cfg: RunConfig):
    n = max(cfg.n, 2)
    bounds = {
        "jacobi_affine": 1e-8,
        "jacobi_linear": 1e-8,
        "jacobi_affine_real": 1e-8,
        "condition_affine": 1e-12,
        "condition_linear": 1e-12,
        "dichotomy": 1.0,
    }
    params = {"n": n, "kappa": cfg.kappa, "epsilon": cfg.epsilon, "bounds": bounds}
    spec_aff = BracketSpec("ZakC", cfg.kappa, n=n, F=_F_AFF, G=_G_AFF)
    spec_lin = BracketSpec("ZakC", cfg.kappa, n=n, F=_F_LIN, G=_G_ZERO)
    # the real bracket at epsilon is ZakC at kappa = -2i epsilon, with (u, ubar)
    # treated as independent coordinates: on the slice ubar = conj(u) it is the real bracket
    spec_real = BracketSpec("ZakC", -2j * cfg.epsilon, n=n, F=_F_AFF, G=_G_AFF)
    spec_bad = BracketSpec("ZakC", cfg.kappa, n=n, F=_F_ONE, G=_G_ZERO)

    def check(indices: np.ndarray) -> dict:
        x = sampling.sample_vector(cfg.seed, indices, 2 * n, 1.0)
        t = np.sum(x[:, :n] * x[:, n:], axis=-1)
        out = {
            "jacobi_affine": vf.jacobi_residual(spec_aff, x, _POLY),
            "jacobi_linear": vf.jacobi_residual(spec_lin, x, _POLY),
            "jacobi_affine_real": vf.jacobi_residual(spec_real, x, _POLY),
            "condition_affine": vf.zak_condition_residual(_F_AFF, _G_AFF, t),
            "condition_linear": vf.zak_condition_residual(_F_LIN, _G_ZERO, t),
        }
        # inadmissible (F, G): Jacobi must visibly fail at generic points, relative to
        # |kappa|^2 |t|: the Jacobiator is quadratic in kappa, the pair's condition residual is |t|
        bad = vf.jacobi_residual(spec_bad, x, _POLY)
        out["dichotomy"] = np.where(bad > 1e-2 * abs(cfg.kappa) ** 2 * np.abs(t), 0.0, 2.0)
        return out

    return params, cfg.samples, check


def _suite_actions(cfg: RunConfig):
    n, d, kap = cfg.n, cfg.d, cfg.kappa
    bounds = {"gl_n_action": TOL_FD, "gl_d_action": TOL_FD, "spin_action": TOL_FD}
    params = {"n": n, "d": d, "kappa": kap, "radius": cfg.radius, "bounds": bounds}
    gspec_n = BracketSpec("GLmult", kap, ell=n)
    gspec_d = BracketSpec("GLmult", kap, ell=d)
    sspec = BracketSpec("S", kap, n=n, d=d)
    zspec = BracketSpec("ZakC", kap, n=n, F=_F_AFF, G=_G_AFF)

    # group element and point each of shape (..., dim); either may be one point
    def act_n(gv, xv):
        g = charts.unpack_gl(gv, n)
        p = charts.unpack_spoint(xv, n, d)
        return charts.pack_spoint(SPoint(g @ p.A, p.B @ np.linalg.inv(g)))

    def act_d(gv, xv):
        g = charts.unpack_gl(gv, d)
        p = charts.unpack_spoint(xv, n, d)
        return charts.pack_spoint(SPoint(p.A @ np.linalg.inv(g), g @ p.B))

    def act_z(gv, xv):
        g = charts.unpack_gl(gv, n)
        a = (g @ xv[..., :n, None])[..., 0]
        b = (xv[..., None, n:] @ np.linalg.inv(g))[..., 0, :]
        return np.concatenate([a, b], axis=-1)

    def check(indices: np.ndarray) -> dict:
        r = cfg.radius
        parts = [((n, n), 0.2), ((d, d), 0.2), (n * d, r), (n * d, r), (2 * n, r)]
        un, ud, xa, xb, xz = sampling.draw_disks(cfg.seed, indices, parts)
        gn = charts.pack_gl(np.eye(n) + un)
        gd = charts.pack_gl(np.eye(d) + ud)
        x = np.concatenate([xa, xb], axis=-1)
        return {
            "gl_n_action": vf.action_residual(gspec_n, sspec, act_n, gn, x, _RATIONAL),
            "gl_d_action": vf.action_residual(gspec_d, sspec, act_d, gd, x, _RATIONAL),
            "spin_action": vf.action_residual(gspec_n, zspec, act_z, gn, xz, _RATIONAL),
        }

    return params, cfg.samples, check


_BUILDERS = {
    "jacobi": _suite_jacobi,
    "decouple-m": _suite_decouple_m,
    "decouple-F": _suite_decouple_F,
    "factorization": _suite_factorization,
    "ao-maps": _suite_ao_maps,
    "moment": _suite_moment,
    "lemma4": _suite_lemma4,
    "symplectic": _suite_symplectic,
    "rank": _suite_rank,
    "zakrzewski": _suite_zakrzewski,
    "actions": _suite_actions,
}


# A check's arrays grow with the samples it is handed, so _execute hands it
# chunks of samples: a chunk times m^2 entries, m = 2nd(1 + n), stays under
# this.  m^2 bounds every per-sample matrix of every suite, lemma4's largest
# among them: its 2nd x 2dn^2 brackets {x, h} and dn^2 x 2dn^2 brackets
# {h+, h}.  Every benchmark-sized run is one chunk.
_STACK_ENTRIES = 2**20


def _execute(cfg: RunConfig, suite: str) -> VerificationReport:
    params, count, check = _BUILDERS[suite](cfg)
    bounds = params["bounds"]
    m = 2 * cfg.n * cfg.d * (1 + cfg.n)
    chunk = max(1, _STACK_ENTRIES // (m * m))
    parts = []
    for start in range(0, count, chunk):
        indices = np.arange(start, min(count, start + chunk))
        res = check(indices)
        if set(res) != set(bounds):
            raise ValueError(
                f"{suite}: checks without a bound {sorted(set(res) - set(bounds))}, "
                f"bounds without a check {sorted(set(bounds) - set(res))}"
            )
        for key, values in res.items():
            if np.shape(values) != indices.shape:
                raise ValueError(f"{suite}: check {key} gave shape {np.shape(values)}, expected {indices.shape}")
        parts.append(res)

    keys = list(parts[0])
    raw = np.array([np.concatenate([p[k] for p in parts]) for k in keys], dtype=float)  # (checks, samples)
    norm = raw / np.array([bounds[k] for k in keys])[:, None]
    finite = np.isfinite(norm)
    # per sample: its first non-finite check, else its first largest one
    pick = np.where(finite.all(axis=0), np.argmax(norm, axis=0), np.argmin(finite, axis=0))
    worst = norm[pick, np.arange(count)]
    worst = np.where(np.isfinite(worst), worst, np.abs(worst))  # -inf is reported as +inf

    max_res = float(np.max(worst))  # NaN if any residual is NaN
    failures = tuple(
        # "not r <= 1" also holds for NaN, which compares false with everything
        (i, float(worst[i]), f"seed={cfg.seed} index={i} check={keys[pick[i]]}")
        for i in range(count)
        if not worst[i] <= 1.0
    )
    return VerificationReport(
        suite=suite,
        params=params,
        seed=cfg.seed,
        samples=count,
        max_residual=max_res,
        ok=not failures,
        failures=failures,
    )


def run_suite(cfg: RunConfig) -> VerificationReport:
    """Execute the configured suite; 'all' aggregates every other suite."""
    if cfg.suite != "all":
        return _execute(cfg, cfg.suite)
    reports = {name: _execute(cfg, name) for name in _BUILDERS}
    max_res = float(np.max([r.max_residual for r in reports.values()]))
    failures = tuple(
        (i, res, f"{name}: {digest}") for name, r in reports.items() for i, res, digest in r.failures
    )
    params = {
        "suites": {name: {"max_residual": r.max_residual, "pass": r.ok} for name, r in reports.items()}
    }
    return VerificationReport(
        suite="all",
        params=params,
        seed=cfg.seed,
        samples=sum(r.samples for r in reports.values()),
        max_residual=max_res,
        ok=not failures,
        failures=failures,
    )
