"""Correctness checks, run outside the timed region.

None of them compares against a stored copy of plie's earlier output:

* every verdict passes with a finite residual and the expected sample count;
* every JSON report parses as strict JSON (NaN and Infinity rejected);
* the ``BracketSpec("S")`` fill path matches the independent tensor-form
  oracle ``s_bivector_tensor`` at the workload's own points, and the
  bivectors the workload's suites evaluate at those points are antisymmetric;
* the S(n,d) bracket has full rank 2nd at a generic point of the workload;
* two negative controls fail: ``map_m`` with A scaled by 1 + 1e-3 is not a
  Poisson map, and the inadmissible Zakrzewski pair (F = 1, G = 0) violates
  the Jacobi identity.
"""

from __future__ import annotations

import json
import math

import numpy as np

from plie import charts, decoupling as dc, sampling, verify as vf
from plie.brackets import BracketSpec, HoloFn1, s_bivector_tensor
from plie.cli import report_to_json
from plie.points import SPoint
from plie.verify import DiffScheme

ANTISYM_RTOL = 1e-13
ORACLE_RTOL = 1e-12
RANK_SV_TOL = 1e-8
# the bounds the suites themselves use for these checks
TOL_FD = 1e-7
ZAK_JACOBI_BOUND = 1e-8
POLY = DiffScheme(step=1e-2, richardson=False)
FD = DiffScheme(step=1e-5, richardson=True)
RADIUS = 0.3  # the CLI's default --radius


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def check_payload(v, payload: dict) -> tuple[bool, list]:
    """(verdict failed, problems) for one parsed JSON report of verdict ``v``."""
    problems = []
    if payload.get("suite") != v.suite:
        problems.append(f"{v.label}: report names suite {payload.get('suite')!r}")
    if payload.get("samples") != v.expected_samples:
        problems.append(f"{v.label}: {payload.get('samples')} samples, expected {v.expected_samples}")
    res = payload.get("max_residual")
    if not isinstance(res, (int, float)) or not math.isfinite(res):
        problems.append(f"{v.label}: max_residual {res!r} is not a finite number")
    failed = payload.get("pass") is not True or bool(payload.get("failures"))
    return failed, problems


def check_report(v, report) -> tuple[bool, list, float]:
    """A ``run_suite`` report: its JSON form must be strict and pass."""
    try:
        payload = strict_json(report_to_json(report))
    except ValueError as exc:
        return False, [f"{v.label}: report is not strict JSON: {exc}"], math.nan
    failed, problems = check_payload(v, payload)
    return failed, problems, payload.get("max_residual", math.nan)


def check_cli_output(v, rc: int, path) -> tuple[bool, list, float]:
    """A ``plie verify --out`` call: exit code 0 and a strict, passing report."""
    try:
        with open(path) as fh:
            payload = strict_json(fh.read())
    except (OSError, ValueError) as exc:
        return True, [f"{v.label}: exit code {rc}, unreadable report: {exc}"], math.nan
    failed, problems = check_payload(v, payload)
    return failed or rc != 0, problems, payload.get("max_residual", math.nan)


# --- bivectors at the workload's own points ------------------------------------


def _jacobi_points(v):
    """(spec, x) for every structure the jacobi suite evaluates, per sample."""
    for i in range(v.samples):
        for kind in ("S", "AOplus", "AOminus", "Prime", "Sprod"):
            spec = BracketSpec(kind, v.kappa, n=v.n, d=v.d)
            yield spec, sampling.sample_vector(v.seed, i, spec.dim, 1.0)
        for kind in ("GLmult", "Double", "STS"):
            spec = BracketSpec(kind, v.kappa, ell=v.ell)
            yield spec, sampling.sample_vector(v.seed, i, spec.dim, 1.0)
        pair = sampling.sample_dual(v.seed, i, v.ell, 0.4)
        yield BracketSpec("DualGroup", v.kappa, ell=v.ell), charts.pack_dual(pair)


def _decoupling_points(v):
    """(spec, x) at the points the decoupling and moment suites evaluate."""
    n, d, k = v.n, v.d, v.kappa
    for i in range(v.samples):
        t = sampling.sample_tuple(v.seed, i, n, d, RADIUS)
        yield BracketSpec("Sprod", k, n=n, d=d), charts.pack_tuple(t)
        yield BracketSpec("S", k, n=n, d=d), charts.pack_spoint(dc.map_m(t))
        yield BracketSpec("Prime", k, n=n, d=d), charts.pack_spoint(dc.map_F(t))
        p = dc.map_theta(dc.map_F(t), 1.0, -1.0 / k, k)
        yield BracketSpec("AOplus", k, n=n, d=d), charts.pack_spoint(p)
        yield BracketSpec("S", k, n=n, d=d), charts.pack_spoint(sampling.sample_spoint(v.seed, i, n, d, RADIUS))


def workload_points(verdicts):
    """Points of the first verdict at each shape of the workload."""
    seen = set()
    for v in verdicts:
        key = (v.suite == "jacobi", v.n, v.d, v.ell, v.kappa, v.seed)
        if key in seen:
            continue
        seen.add(key)
        yield from (_jacobi_points(v) if v.suite == "jacobi" else _decoupling_points(v))


def check_bivectors(verdicts) -> list:
    problems = []
    ranked = set()
    for spec, x in workload_points(verdicts):
        P = spec.bivector(x)
        scale = max(1.0, float(np.max(np.abs(P))))
        asym = float(np.max(np.abs(P + P.T)))
        if not asym <= ANTISYM_RTOL * scale:
            problems.append(f"{spec.kind} n={spec.n} d={spec.d} ell={spec.ell}: |Pi + Pi^T| = {asym:.3e}")
        if spec.kind != "S":
            continue
        O = s_bivector_tensor(spec.kappa, charts.unpack_spoint(x, spec.n, spec.d))
        err = float(np.max(np.abs(P - O)))
        if not err <= ORACLE_RTOL * max(1.0, float(np.max(np.abs(O)))):
            problems.append(f"S n={spec.n} d={spec.d}: fill differs from tensor oracle by {err:.3e}")
        key = (spec.n, spec.d, spec.kappa)
        if key not in ranked:
            ranked.add(key)
            r = vf.rank_at(spec, x, RANK_SV_TOL)
            if r != spec.dim:
                problems.append(f"S n={spec.n} d={spec.d}: rank {r} at a generic point, expected {spec.dim}")
    return problems


# --- negative controls -----------------------------------------------------------


def negative_controls(seed: int) -> list:
    """Both controls must fail while their unperturbed twins pass."""
    problems = []
    n, d, kappa = 2, 2, 1.0
    src = BracketSpec("Sprod", kappa, n=n, d=d)
    tgt = BracketSpec("S", kappa, n=n, d=d)

    def m(x, scale=1.0):
        p = dc.map_m(charts.unpack_tuple(x, n, d))
        return charts.pack_spoint(SPoint(scale * p.A, p.B))

    x = charts.pack_tuple(sampling.sample_tuple(seed, 0, n, d, RADIUS))
    good = vf.poisson_map_residual(src, tgt, m, x, FD)
    bad = vf.poisson_map_residual(src, tgt, lambda xx: m(xx, 1.0 + 1e-3), x, FD)
    if not good <= TOL_FD:
        problems.append(f"map_m fails its Poisson-map bound: {good:.3e} > {TOL_FD:g}")
    if not bad > TOL_FD:
        problems.append(f"map_m with A scaled by 1+1e-3 passes as a Poisson map: {bad:.3e}")

    F_aff = HoloFn1(lambda t: 2 + t, lambda t: 1 + 0 * t, "F")
    G_aff = HoloFn1(lambda t: -1 + 0 * t, lambda t: 0 * t, "G")
    F_one = HoloFn1(lambda t: 1 + 0 * t, lambda t: 0 * t, "F")
    G_zero = HoloFn1(lambda t: 0 * t, lambda t: 0 * t, "G")
    xz = sampling.sample_vector(seed, 0, 2 * n, 1.0)
    good = vf.jacobi_residual(BracketSpec("ZakC", kappa, n=n, F=F_aff, G=G_aff), xz, POLY)
    bad = vf.jacobi_residual(BracketSpec("ZakC", kappa, n=n, F=F_one, G=G_zero), xz, POLY)
    if not good <= ZAK_JACOBI_BOUND:
        problems.append(f"admissible Zakrzewski pair fails Jacobi: {good:.3e}")
    if not bad > ZAK_JACOBI_BOUND:
        problems.append(f"inadmissible Zakrzewski pair (F=1, G=0) passes Jacobi: {bad:.3e}")
    return problems
