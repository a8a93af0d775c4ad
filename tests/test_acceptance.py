"""Acceptance criteria.

Each test exercises one numbered criterion end to end and prints a single
PASS/FAIL line (bypassing capture) so the run log shows the verdicts.
"""

import time

import numpy as np
import pytest

from plie import charts, decoupling as dc, factorization as fc, sampling, verify as vf
from plie.brackets import (
    BracketSpec,
    HoloFn1,
    antisymmetrize,
    dual_bases,
    s_bivector,
    s_bivector_tensor,
)
from plie.cli import report_to_json
from plie.errors import ZeroG
from plie.points import SPoint, SpinPoint
from plie.suites import RunConfig, run_suite
from plie.tensors import r_pm
from plie.verify import DiffScheme

POLY = DiffScheme(step=1e-2, richardson=False)
RATIONAL = DiffScheme(step=1e-3, richardson=True)
FD = DiffScheme(step=1e-5, richardson=True)

KAPPAS = (1.0, 1.0j, 2.0 - 1.0j)

F_AFF = HoloFn1(lambda t: 2 + t, lambda t: 1 + 0 * t, "F")
G_AFF = HoloFn1(lambda t: -1 + 0 * t, lambda t: 0 * t, "G")
F_LIN = HoloFn1(lambda t: t, lambda t: 1 + 0 * t, "F")
F_ONE = HoloFn1(lambda t: 1 + 0 * t, lambda t: 0 * t, "F")
G_ZERO = HoloFn1(lambda t: 0 * t, lambda t: 0 * t, "G")


def _verdict(capsys, num: int, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_jacobi(capsys):
    # one jacobi_residual call per spec, on the stack of its 100 samples
    t0 = time.time()
    residuals = []
    seed = 42
    indices = np.arange(100)
    for kind in ("S", "AOplus", "AOminus", "Prime"):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                for kappa in KAPPAS:
                    spec = BracketSpec(kind, kappa, n=n, d=d)
                    X = sampling.sample_vector(seed, indices, spec.dim, 1.0)
                    residuals.append(vf.jacobi_residual(spec, X, POLY))
    for kind in ("GLmult", "Double", "STS"):
        for ell in (1, 2, 3, 4):
            for kappa in KAPPAS:
                spec = BracketSpec(kind, kappa, ell=ell)
                X = sampling.sample_vector(seed, indices, spec.dim, 1.0)
                residuals.append(vf.jacobi_residual(spec, X, POLY))
    for ell in (2, 3, 4):
        for kappa in KAPPAS:
            spec = BracketSpec("DualGroup", kappa, ell=ell)
            X = np.stack([charts.pack_dual(sampling.sample_dual(seed, i, ell, 0.4)) for i in indices])
            residuals.append(vf.jacobi_residual(spec, X, RATIONAL))
    worst = float(np.max(np.concatenate(residuals)))  # NaN if any residual is NaN
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    _verdict(capsys, 1, "jacobi", ok, f"max residual {worst:.3e}, runtime {elapsed:.1f}s")


def test_criterion_02_decoupling_m(capsys):
    worst_map = worst_rt = 0.0
    for n in (2, 3):
        for d in (2, 3):
            src = BracketSpec("Sprod", 1.0, n=n, d=d)
            tgt = BracketSpec("S", 1.0, n=n, d=d)

            def fmap(x, n=n, d=d):
                return charts.pack_spoint(dc.map_m(charts.unpack_tuple(x, n, d)))

            for i in range(50):
                t = sampling.sample_tuple(42, i, n, d, 0.3)
                x = charts.pack_tuple(t)
                worst_map = max(worst_map, vf.poisson_map_residual(src, tgt, fmap, x, FD))
                back = dc.map_m_inverse(dc.map_m(t))
                worst_rt = max(
                    worst_rt,
                    max(
                        float(np.max(np.abs(u.a - v.a)) + np.max(np.abs(u.b - v.b)))
                        for u, v in zip(t, back)
                    ),
                )
    ok = worst_map < 1e-7 and worst_rt < 1e-10
    _verdict(capsys, 2, "decoupling m", ok, f"map {worst_map:.3e}, roundtrip {worst_rt:.3e}")


def test_criterion_03_decoupling_F(capsys):
    kappa = 1.0
    th_a, th_b = 1.0, -1.0 / kappa
    worst_F = worst_th = worst_res = 0.0
    for n in (2, 3):
        for d in (2, 3):
            src = BracketSpec("Sprod", kappa, n=n, d=d)
            tgt_pr = BracketSpec("Prime", kappa, n=n, d=d)
            tgt_ao = BracketSpec("AOplus", kappa, n=n, d=d)

            def fmap(x, n=n, d=d):
                return charts.pack_spoint(dc.map_F(charts.unpack_tuple(x, n, d)))

            def thmap(x, n=n, d=d):
                p = dc.map_F(charts.unpack_tuple(x, n, d))
                return charts.pack_spoint(dc.map_theta(p, th_a, th_b, kappa))

            for i in range(50):
                t = sampling.sample_tuple(42, i, n, d, 0.3)
                x = charts.pack_tuple(t)
                worst_F = max(worst_F, vf.poisson_map_residual(src, tgt_pr, fmap, x, FD))
                worst_th = max(worst_th, vf.poisson_map_residual(src, tgt_ao, thmap, x, FD))
                q = dc.map_theta(dc.map_F(t), th_a, th_b, kappa)
                GG = fc.calG_pm(t)
                lhs = np.eye(n) + kappa * q.A @ q.B
                rhs = np.linalg.solve(GG.hplus, GG.hminus)
                worst_res = max(worst_res, float(np.max(np.abs(lhs - rhs))))
    ok = worst_F < 1e-7 and worst_th < 1e-7 and worst_res < 1e-10
    _verdict(
        capsys, 3, "decoupling F",
        ok, f"F {worst_F:.3e}, theta.F {worst_th:.3e}, residue {worst_res:.3e}",
    )


def test_criterion_04_factorization_identities(capsys):
    worst1 = worst2 = 0.0
    for n in range(1, 6):
        for d in range(1, 5):
            for i in range(100):
                s = sampling.sample_spin(42, i, n, 0.3)
                pair = fc.g_pm(s)
                worst1 = max(
                    worst1,
                    float(np.max(np.abs(np.eye(n) + np.outer(s.a, s.b) - fc.chi(pair)))),
                )
                t = sampling.sample_tuple(42, i, n, d, 0.3)
                worst2 = max(
                    worst2, float(np.max(np.abs(fc.gamma(dc.map_m(t)) - fc.chi(fc.calG_pm(t)))))
                )
    ok = worst1 < 1e-12 and worst2 < 1e-12
    _verdict(capsys, 4, "factorization identities", ok, f"factid1 {worst1:.3e}, factid2 {worst2:.3e}")


def test_criterion_05_moment_relations(capsys):
    exact_keys = ("Ga1", "Ga2_A", "Ga2_B")
    fd_keys = (
        "mom1_gplus_a", "mom1_gplus_b", "mom1_gminus_a", "mom1_gminus_b",
        "Ga1prime", "Ga2prime_A", "Ga2prime_B",
    )
    worst_exact = worst_fd = 0.0
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            for i in range(25):
                p = sampling.sample_spoint(42, i, n, d, 0.3)
                exact = vf.moment_residuals(1.0, p, POLY)
                fd = vf.moment_residuals(1.0, p, FD)
                worst_exact = max(worst_exact, max(exact[k] for k in exact_keys))
                worst_fd = max(worst_fd, max(fd[k] for k in fd_keys))
    ok = worst_exact < 1e-10 and worst_fd < 1e-6
    _verdict(capsys, 5, "moment relations", ok, f"exact {worst_exact:.3e}, fd {worst_fd:.3e}")


def test_criterion_06_rank(capsys):
    ok = True
    detail = []
    for n in range(2, 6):
        for d in range(2, 6):
            A = np.zeros((n, d), dtype=complex)
            B = np.zeros((d, n), dtype=complex)
            A[n - 1, 0] = 1.0
            B[0, n - 1] = -1.0
            spec = BracketSpec("S", 1.0, n=n, d=d)
            r = vf.rank_at(spec, charts.pack_spoint(SPoint(A, B)), 1e-8)
            if r != 2 * (n - 1) * (d - 1):
                ok = False
                detail.append(f"degenerate ({n},{d}): {r}")
    spec = BracketSpec("S", 1.0, n=3, d=3)
    r0 = vf.rank_at(spec, np.zeros(spec.dim, dtype=complex), 1e-8)
    if r0 != 18:
        ok = False
        detail.append(f"origin: {r0}")
    _verdict(capsys, 6, "bivector rank", ok, "; ".join(detail) or "all ranks exact")


def test_criterion_07_symplectic_inversion(capsys):
    worst = 0.0
    for n in (1, 2, 3, 4, 6):
        for i in range(100):
            p = sampling.sample_spin(42, i, n, 0.3)
            worst = max(worst, vf.symplectic_inversion_residual(1.0, p))
    raised = False
    try:
        vf.symplectic_matrix(1.0, SpinPoint([0.5, 1.0], [0.1, -1.0]))  # G_2 = 0
    except ZeroG as exc:
        raised = exc.index == 2
    ok = worst < 1e-10 and raised
    _verdict(capsys, 7, "symplectic inversion", ok, f"max residual {worst:.3e}, ZeroG raised: {raised}")


def test_criterion_08_zakrzewski_dichotomy(capsys):
    # one jacobi_residual call per spec, on the stack of its 10 samples
    good, bad = [], []
    indices = np.arange(10)
    for n in (2, 3):
        X = sampling.sample_vector(42, indices, 2 * n, 1.0)
        for F, G in ((F_AFF, G_AFF), (F_LIN, G_ZERO)):
            spec_c = BracketSpec("ZakC", 1.0, n=n, F=F, G=G)
            spec_r = BracketSpec("ZakR", epsilon=1.0, n=n, F=F, G=G)
            good.append(vf.jacobi_residual(spec_c, X, POLY))
            good.append(vf.jacobi_residual(spec_r, X, POLY))
        spec_bad = BracketSpec("ZakC", 1.0, n=n, F=F_ONE, G=G_ZERO)
        bad.append(vf.jacobi_residual(spec_bad, sampling.sample_vector(43, indices, 2 * n, 1.0), POLY))
    # NaN if any residual is NaN, so a NaN fails the criterion
    worst_good = float(np.max(np.concatenate(good)))
    min_bad = float(np.min(np.concatenate(bad)))
    ok = worst_good < 1e-8 and min_bad > 1e-4
    _verdict(
        capsys, 8, "zakrzewski dichotomy",
        ok, f"admissible max {worst_good:.3e}, inadmissible min {min_bad:.3e}",
    )


def test_criterion_09_covariance(capsys):
    n, d = 2, 3
    sspec = BracketSpec("S", 1.0, n=n, d=d)
    gspec_n = BracketSpec("GLmult", 1.0, ell=n)
    gspec_d = BracketSpec("GLmult", 1.0, ell=d)

    def act_n(gv, xv):
        g = gv.reshape(gv.shape[:-1] + (n, n))
        p = charts.unpack_spoint(xv, n, d)
        return charts.pack_spoint(SPoint(g @ p.A, p.B @ np.linalg.inv(g)))

    def act_d(gv, xv):
        g = gv.reshape(gv.shape[:-1] + (d, d))
        p = charts.unpack_spoint(xv, n, d)
        return charts.pack_spoint(SPoint(p.A @ np.linalg.inv(g), g @ p.B))

    worst_n = worst_d = 0.0
    for i in range(25):
        rng = sampling.rng_for(42, i)
        gn = np.eye(n) + sampling.complex_disk(rng, (n, n), 0.2)
        gd = np.eye(d) + sampling.complex_disk(rng, (d, d), 0.2)
        x = sampling.complex_disk(rng, sspec.dim, 0.3)
        worst_n = max(worst_n, vf.action_residual(gspec_n, sspec, act_n, gn.ravel(), x, FD))
        worst_d = max(worst_d, vf.action_residual(gspec_d, sspec, act_d, gd.ravel(), x, FD))
    ok = worst_n < 1e-7 and worst_d < 1e-7
    _verdict(capsys, 9, "covariance", ok, f"GL(n) {worst_n:.3e}, GL(d) {worst_d:.3e}")


def test_criterion_10_cross_oracle(capsys):
    worst = 0.0
    kappa = 2.0 - 1.0j
    for i in range(100):
        for n, d in ((2, 2), (3, 2), (3, 4)):
            p = sampling.sample_spoint(42, i, n, d, 1.0)
            diff = s_bivector(kappa, p) - antisymmetrize(s_bivector_tensor(kappa, p))
            worst = max(worst, float(np.max(np.abs(diff))))
    worst_rid = 0.0
    for ell in (1, 2, 3, 4):
        db = dual_bases(ell, kappa)
        acc = np.zeros((ell, ell, ell, ell), dtype=complex)
        for (X, _), (Z, _) in zip(db.Ta, db.Tb):
            acc += np.einsum("ij,kl->ijkl", X, Z)
        worst_rid = max(worst_rid, float(np.max(np.abs(acc + kappa * r_pm(ell, -1).array))))
    ok = worst < 1e-13 and worst_rid < 1e-13
    _verdict(capsys, 10, "cross oracle", ok, f"bracket {worst:.3e}, dual bases {worst_rid:.3e}")


def test_criterion_11_determinism(capsys):
    cfg = RunConfig(suite="all", seed=42, samples=10)
    first = report_to_json(run_suite(cfg))
    second = report_to_json(run_suite(cfg))
    identical = first == second
    passed = '"pass": true' in first
    ok = identical and passed
    _verdict(
        capsys, 11, "determinism",
        ok, f"byte-identical: {identical}, suite-all pass: {passed}",
    )
