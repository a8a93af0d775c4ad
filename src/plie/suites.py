"""Verification suites: named bundles of residual checks over seeded samples.

Each suite evaluates a set of identity checks at deterministic sample points.
A check returns raw residuals; ``_execute`` divides each by its bound from
the suite's ``params["bounds"]`` and reports a single normalized residual
per sample, so the suite passes iff the normalized maximum is at most 1.
The bounds are fixed here (``TOL_EXACT``, ``TOL_FD`` and per-check values)
and appear in the report params.

A suite builder returns (params, sample count, check).  The check takes the
array of sample indices and returns {check name: (S,) array of raw
residuals}; the jacobi and zakrzewski suites evaluate each bracket once on
the stack of all their samples, and the other suites wrap a per-sample
function with ``_each``.
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
from .verify import DiffScheme, VerificationReport

__all__ = ["RunConfig", "SUITES", "run_suite"]

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
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.radius <= 0:
            raise ConfigError("radius must be > 0")
        if self.kappa == 0:
            raise ConfigError("kappa must be nonzero")
        if self.epsilon == 0:
            raise ConfigError("epsilon must be nonzero")


# bounds: exact-class identities hold to rounding; FD-class ones carry the
# truncation error of the _FD scheme
TOL_EXACT = 1e-10
TOL_FD = 1e-7

# schemes: central differences are exact (up to rounding) for polynomial
# bivectors at a large step; rational/root-bearing maps get a small step
# with one Richardson level.
_POLY = DiffScheme(step=1e-2, richardson=False)
_RATIONAL = DiffScheme(step=1e-3, richardson=True)
_FD = DiffScheme(step=1e-5, richardson=True)


# (F, G) pairs of the Zakrzewski brackets: affine F = 2 + t with G = -1 and
# linear F = t with G = 0 are admissible; F = 1 with G = 0 is not
_F_AFF = HoloFn1.affine(2, 1, "F")
_G_AFF = HoloFn1.affine(-1, 0, "G")
_F_LIN = HoloFn1.affine(0, 1, "F")
_F_ONE = HoloFn1.affine(1, 0, "F")
_G_ZERO = HoloFn1.affine(0, 0, "G")


def _each(sample: Callable[[int], dict]) -> Callable[[np.ndarray], dict]:
    """A per-sample function {check: raw residual} as a check over an index
    array.  Every sample must report the same checks in the same order."""

    def check(indices: np.ndarray) -> dict:
        rows = [sample(int(i)) for i in indices]
        keys = list(rows[0]) if rows else []
        for i, row in zip(indices, rows):
            if list(row) != keys:
                raise ValueError(f"sample {i} reports checks {list(row)}, expected {keys}")
        return {k: np.array([row[k] for row in rows], dtype=float) for k in keys}

    return check


def _tuple_diff(t1, t2) -> float:
    return max(
        max(float(np.max(np.abs(u.a - v.a))), float(np.max(np.abs(u.b - v.b))))
        for u, v in zip(t1, t2)
    )


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
                stacks[spec.dim] = sampling.sample_vectors(cfg.seed, indices, spec.dim, 1.0)
            out[spec.kind] = vf.jacobi_residual(spec, stacks[spec.dim], _POLY)
        X = np.stack([charts.pack_dual(sampling.sample_dual(cfg.seed, i, cfg.ell, 0.4)) for i in indices])
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

    def sample(i: int) -> dict:
        t = sampling.sample_tuple(cfg.seed, i, cfg.n, cfg.d, cfg.radius)
        x = charts.pack_tuple(t)
        return {
            "poisson_map": vf.poisson_map_residual(src, tgt, fmap, x, _FD),
            "roundtrip": _tuple_diff(t, dc.map_m_inverse(dc.map_m(t))),
        }

    return params, cfg.samples, _each(sample)


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

    def fmap(x):
        return charts.pack_spoint(dc.map_F(charts.unpack_tuple(x, cfg.n, cfg.d)))

    def thfmap(x):
        p = dc.map_F(charts.unpack_tuple(x, cfg.n, cfg.d))
        return charts.pack_spoint(dc.map_theta(p, th_a, th_b, cfg.kappa))

    def sample(i: int) -> dict:
        t = sampling.sample_tuple(cfg.seed, i, cfg.n, cfg.d, cfg.radius)
        x = charts.pack_tuple(t)
        out = {
            "poisson_map_F": vf.poisson_map_residual(src, tgt_pr, fmap, x, _FD),
            "poisson_map_thetaF": vf.poisson_map_residual(src, tgt_ao, thfmap, x, _FD),
            "roundtrip": _tuple_diff(t, dc.map_F_inverse(dc.map_F(t))),
        }
        q = dc.map_theta(dc.map_F(t), th_a, th_b, cfg.kappa)
        GG = fc.calG_pm(t)
        lhs = np.eye(cfg.n) + cfg.kappa * q.A @ q.B
        rhs = np.linalg.solve(GG.hplus, GG.hminus)
        out["residue_identity"] = float(np.max(np.abs(lhs - rhs)))
        return out

    return params, cfg.samples, _each(sample)


def _suite_factorization(cfg: RunConfig):
    bounds = {"factid1": 1e-12, "factid2": 1e-11, "chi_roundtrip": TOL_EXACT, "gauss": 1e-12}
    params = {"n": cfg.n, "d": cfg.d, "radius": cfg.radius, "bounds": bounds}

    def sample(i: int) -> dict:
        s = sampling.sample_spin(cfg.seed, i, cfg.n, cfg.radius)
        pair = fc.g_pm(s)
        res1 = float(np.max(np.abs(np.eye(cfg.n) + np.outer(s.a, s.b) - fc.chi(pair))))
        t = sampling.sample_tuple(cfg.seed, i, cfg.n, cfg.d, cfg.radius)
        p = dc.map_m(t)
        res2 = float(np.max(np.abs(fc.gamma(p) - fc.chi(fc.calG_pm(t)))))
        h = np.eye(cfg.n) + sampling.complex_disk(sampling.rng_for(cfg.seed, i), (cfg.n, cfg.n), cfg.radius)
        res3 = float(np.max(np.abs(fc.chi(fc.chi_inverse_local(h)) - h)))
        gt, g0, lt = fc.gauss(h)
        res4 = float(np.max(np.abs(gt @ g0 @ lt - h)))
        return {"factid1": res1, "factid2": res2, "chi_roundtrip": res3, "gauss": res4}

    return params, cfg.samples, _each(sample)


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

    def sample(i: int) -> dict:
        out = {}
        for k, (src, tgt, f) in maps.items():
            x = sampling.sample_vector(cfg.seed, i, src.dim, 1.0)
            out[k] = vf.poisson_map_residual(src, tgt, f, x, jac=jacs[k])
        x = sampling.sample_vector(cfg.seed, i, sprod.dim, 1.0)
        out["iota"] = vf.anti_poisson_residual(sprod, iota_f, x, jac=J_iota)
        xz = sampling.sample_vector(cfg.seed, i, 2 * n, 1.0)
        out["iota_spin"] = vf.anti_poisson_residual(zak, lambda xx: swap @ xx, xz, jac=swap)
        return out

    return params, cfg.samples, _each(sample)


def _suite_moment(cfg: RunConfig):
    exact_keys = ("Ga1", "Ga2_A", "Ga2_B", "Ga1prime", "Ga2prime_A", "Ga2prime_B")
    fd_keys = ("mom1_gplus_a", "mom1_gplus_b", "mom1_gminus_a", "mom1_gminus_b")
    bounds = {k: TOL_EXACT for k in exact_keys}
    bounds.update({k: 1e-6 for k in fd_keys})
    params = {"n": cfg.n, "d": cfg.d, "kappa": cfg.kappa, "radius": cfg.radius, "bounds": bounds}

    def sample(i: int) -> dict:
        p = sampling.sample_spoint(cfg.seed, i, cfg.n, cfg.d, cfg.radius)
        # the Gamma relations are polynomial; only g+- needs the fine FD scheme
        res = vf.moment_gamma_residuals(cfg.kappa, p, _POLY)
        res.update(vf.moment_factor_residuals(cfg.kappa, p, _FD))
        return {k: res[k] for k in exact_keys + fd_keys}

    return params, cfg.samples, _each(sample)


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

    def sample(i: int) -> dict:
        t = sampling.sample_tuple(cfg.seed, i, cfg.n, cfg.d, cfg.radius)
        res = vf.lemma_h_residuals(cfg.kappa, t, _FD)
        return {k: res[k] for k in keys}

    return params, cfg.samples, _each(sample)


def _suite_symplectic(cfg: RunConfig):
    bounds = {"inversion": TOL_EXACT}
    params = {"n": cfg.n, "kappa": cfg.kappa, "radius": cfg.radius, "bounds": bounds}

    def sample(i: int) -> dict:
        p = sampling.sample_spin(cfg.seed, i, cfg.n, cfg.radius)
        return {"inversion": vf.symplectic_inversion_residual(cfg.kappa, p)}

    return params, cfg.samples, _each(sample)


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

    def sample(i: int) -> dict:
        worst = 0.0
        for n, d in sizes:
            spec = BracketSpec("S", cfg.kappa, n=n, d=d)
            r = vf.rank_at(spec, charts.pack_spoint(_degenerate_spoint(n, d)), 1e-8)
            worst = max(worst, float(abs(r - 2 * (n - 1) * (d - 1))))
        spec = BracketSpec("S", cfg.kappa, n=cfg.n, d=cfg.d)
        r = vf.rank_at(spec, np.zeros(spec.dim, dtype=complex), 1e-8)
        worst = max(worst, float(abs(r - 2 * cfg.n * cfg.d)))
        return {"rank_mismatch": worst}

    return params, 1, _each(sample)


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
    spec_real = BracketSpec("ZakR", epsilon=cfg.epsilon, n=n, F=_F_AFF, G=_G_AFF)
    spec_bad = BracketSpec("ZakC", cfg.kappa, n=n, F=_F_ONE, G=_G_ZERO)

    def check(indices: np.ndarray) -> dict:
        x = sampling.sample_vectors(cfg.seed, indices, 2 * n, 1.0)
        t = np.sum(x[:, :n] * x[:, n:], axis=-1)
        out = {
            "jacobi_affine": vf.jacobi_residual(spec_aff, x, _POLY),
            "jacobi_linear": vf.jacobi_residual(spec_lin, x, _POLY),
            "jacobi_affine_real": vf.jacobi_residual(spec_real, x, _POLY),
            "condition_affine": vf.zak_condition_residual(_F_AFF, _G_AFF, t),
            "condition_linear": vf.zak_condition_residual(_F_LIN, _G_ZERO, t),
        }
        # inadmissible (F, G): Jacobi must visibly fail at generic points
        bad = vf.jacobi_residual(spec_bad, x, _POLY)
        out["dichotomy"] = np.where(bad > 1e-4, 0.0, 2.0)
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

    def sample(i: int) -> dict:
        rng = sampling.rng_for(cfg.seed, i)
        gn = np.eye(n) + sampling.complex_disk(rng, (n, n), 0.2)
        gd = np.eye(d) + sampling.complex_disk(rng, (d, d), 0.2)
        x = np.concatenate(
            [sampling.complex_disk(rng, n * d, cfg.radius), sampling.complex_disk(rng, n * d, cfg.radius)]
        )
        xz = sampling.complex_disk(rng, 2 * n, cfg.radius)
        return {
            "gl_n_action": vf.action_residual(gspec_n, sspec, act_n, gn.ravel(), x, _FD),
            "gl_d_action": vf.action_residual(gspec_d, sspec, act_d, gd.ravel(), x, _FD),
            "spin_action": vf.action_residual(gspec_n, zspec, act_z, gn.ravel(), xz, _FD),
        }

    return params, cfg.samples, _each(sample)


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


def _execute(cfg: RunConfig, suite: str) -> VerificationReport:
    params, count, check = _BUILDERS[suite](cfg)
    res = check(np.arange(count))
    bounds = params["bounds"]
    if set(res) != set(bounds):
        raise ValueError(
            f"{suite}: checks without a bound {sorted(set(res) - set(bounds))}, "
            f"bounds without a check {sorted(set(bounds) - set(res))}"
        )
    for key, values in res.items():
        if np.shape(values) != (count,):
            raise ValueError(f"{suite}: check {key} gave shape {np.shape(values)}, expected ({count},)")

    keys = list(res)
    raw = np.array([res[k] for k in keys], dtype=float)  # (checks, samples)
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
        tolerance=1.0,
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
        tolerance=1.0,
        max_residual=max_res,
        ok=not failures,
        failures=failures,
    )
