"""Tests for the residual computations: Jacobi, map pushforwards, actions,
moment relations, product-factor identities, symplectic inversion and rank."""

import tracemalloc
import warnings

import numpy as np
import pytest

from plie import brackets, charts, sampling, suites, verify
from plie.brackets import BracketSpec, HoloFn1, sts_rhs_tensor
from plie.decoupling import iota, map_m
from plie.errors import ConfigError, ZeroG
from plie.factorization import g_pm
from plie.points import SPoint, SpinPoint, SpinTuple
from plie.tensors import dj_r, r_pm
from plie.verify import (
    DiffScheme,
    VerificationReport,
    _h_map,
    _h_products,
    action_residual,
    anti_poisson_residual,
    bracket_coord_fn,
    bracket_functions,
    jacobi_residual,
    jacobian_fd,
    lemma_h_residuals,
    moment_factor_residuals,
    moment_gamma_residuals,
    moment_residuals,
    poisson_map_residual,
    rank_at,
    symplectic_inversion_residual,
    symplectic_matrix,
    zak_condition_residual,
)

POLY = DiffScheme(step=1e-2, richardson=False)
FD = DiffScheme(step=1e-5, richardson=True)

F_AFF = HoloFn1(lambda t: 2 + t, lambda t: 1 + 0 * t, "F")
G_AFF = HoloFn1(lambda t: -1 + 0 * t, lambda t: 0 * t, "G")
F_LIN = HoloFn1(lambda t: t, lambda t: 1 + 0 * t, "F")
F_ONE = HoloFn1(lambda t: 1 + 0 * t, lambda t: 0 * t, "F")
G_ZERO = HoloFn1(lambda t: 0 * t, lambda t: 0 * t, "G")


class TestDiffScheme:
    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            DiffScheme(step=1.0, richardson=False)
        with pytest.raises(ConfigError):
            DiffScheme(step=1e-12, richardson=True)

    def test_fields_have_no_default(self):
        with pytest.raises(TypeError):
            DiffScheme()
        with pytest.raises(TypeError):
            DiffScheme(step=1e-3)

    def test_stencil(self):
        h = 1e-3
        plain = DiffScheme(step=h, richardson=False)
        assert plain.offsets == (h,) and plain.weights == pytest.approx((1 / (2 * h),), rel=1e-15)
        # (4 D_{h/2} - D_h) / 3 with D_t = (f(x + t) - f(x - t)) / 2t
        fine = DiffScheme(step=h, richardson=True)
        assert fine.offsets == (h, h / 2) and fine.weights == pytest.approx((-1 / (6 * h), 4 / (3 * h)), rel=1e-15)
        # the stencil is derived from the two fields, not compared or shown on its own
        assert fine == DiffScheme(step=h, richardson=True) and "offsets" not in repr(fine)


def test_suites_differentiate_with_their_two_named_schemes(monkeypatch):
    seen = []
    real_fd, real_jacobi = verify.jacobian_fd, verify.jacobi_residual

    def jacobian_fd_seen(f, x, scheme):
        seen.append(scheme)
        return real_fd(f, x, scheme)

    def jacobi_residual_seen(spec, x, scheme):
        seen.append(scheme)
        return real_jacobi(spec, x, scheme)

    monkeypatch.setattr(verify, "jacobian_fd", jacobian_fd_seen)
    monkeypatch.setattr(verify, "jacobi_residual", jacobi_residual_seen)
    assert suites.run_suite(suites.RunConfig("all")).ok
    assert {id(s) for s in seen} == {id(suites._POLY), id(suites._RATIONAL)}

    # a call that differentiates names its scheme; a map residual takes a scheme or a Jacobian
    monkeypatch.undo()
    spec = BracketSpec("S", 1.0, n=2, d=2)
    x = sampling.sample_vector(0, 0, spec.dim, 0.3)
    with pytest.raises(TypeError):
        jacobian_fd(_identity, x)
    with pytest.raises(TypeError):
        poisson_map_residual(spec, spec, _identity, x)
    with pytest.raises(TypeError):
        anti_poisson_residual(spec, _identity, x)
    with pytest.raises(TypeError):
        poisson_map_residual(spec, spec, _identity, x, POLY, jac=np.eye(spec.dim))
    assert poisson_map_residual(spec, spec, _identity, x, jac=np.eye(spec.dim)) == 0.0


@pytest.mark.parametrize("suite", ["decouple-m", "decouple-F", "moment", "lemma4", "actions"])
def test_fd_class_residuals_at_default_settings(suite):
    # every check whose bound is looser than TOL_EXACT carries the scheme's
    # truncation error; with _RATIONAL it stays near rounding (<= 7e-13 at seed 42)
    params, count, check = suites._BUILDERS[suite](suites.RunConfig(suite))
    res = check(np.arange(count))
    fd_keys = [k for k, bound in params["bounds"].items() if bound > suites.TOL_EXACT]
    assert fd_keys
    worst = {k: float(np.max(res[k])) for k in fd_keys}
    assert max(worst.values()) <= 1e-11, worst


def test_report_consistency_enforced():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 0, 1, 2.0, ok=True)


def test_report_pass_flag_matches_failure_list():
    failure = ((0, 2.0, "seed=0 index=0 check=a"),)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 0, 1, float("nan"), ok=False)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 0, 1, 0.5, ok=True, failures=failure)
    VerificationReport("x", {}, 0, 1, 2.0, ok=False, failures=failure)


class TestNonFiniteResiduals:
    """A NaN or infinite residual fails its sample and names its check,
    wherever it sits among the sample's checks."""

    @staticmethod
    def _run(monkeypatch, residuals):
        # every sample reports the same checks: 0.1, 0.2, ... except at index 1
        passing = {k: 0.1 * (j + 1) for j, k in enumerate(residuals)}

        def check(indices):
            return {k: np.where(indices == 1, residuals[k], passing[k]) for k in residuals}

        def builder(cfg):
            bounds = {k: 1.0 for k in residuals}
            return {"bounds": bounds}, 2, check

        monkeypatch.setitem(suites._BUILDERS, "symplectic", builder)
        return suites.run_suite(suites.RunConfig("symplectic"))

    @pytest.mark.parametrize(
        "residuals,check",
        [
            ({"a": 0.5, "b": float("nan")}, "b"),
            ({"a": float("nan"), "b": 0.5}, "a"),
            ({"a": 0.5, "b": float("inf"), "c": 0.2}, "b"),
            ({"a": float("-inf"), "b": 0.5}, "a"),
        ],
        ids=["nan-after-finite", "nan-first", "inf-middle", "minus-inf-first"],
    )
    def test_non_finite_check_fails_and_is_named(self, monkeypatch, residuals, check):
        report = self._run(monkeypatch, residuals)
        assert report.ok is False
        assert [(i, d) for i, _, d in report.failures] == [(1, f"seed=42 index=1 check={check}")]
        assert not np.isfinite(report.failures[0][1])

    def test_nan_fails_suite_all(self, monkeypatch):
        def check(indices):
            return {"a": np.full(len(indices), 0.5), "b": np.full(len(indices), np.nan)}

        def builder(cfg):
            return {"bounds": {"a": 1.0, "b": 1.0}}, 1, check

        monkeypatch.setattr(suites, "_BUILDERS", {"symplectic": builder, "rank": suites._BUILDERS["rank"]})
        report = suites.run_suite(suites.RunConfig("all"))
        assert report.ok is False
        assert [d for _, _, d in report.failures] == ["symplectic: seed=42 index=0 check=b"]


class TestBounds:
    """``_execute`` applies every bound, and only declared ones."""

    @staticmethod
    def _run(monkeypatch, bounds, check):
        def builder(cfg):
            return {"bounds": bounds}, 2, check

        monkeypatch.setitem(suites._BUILDERS, "symplectic", builder)
        return suites.run_suite(suites.RunConfig("symplectic"))

    def test_check_without_bound_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="symplectic: checks without a bound \\['b'\\]"):
            self._run(monkeypatch, {"a": 1.0}, lambda idx: {"a": np.full(len(idx), 0.1), "b": np.full(len(idx), 0.1)})

    def test_bound_without_check_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="symplectic: .*bounds without a check \\['b'\\]"):
            self._run(monkeypatch, {"a": 1.0, "b": 1.0}, lambda idx: {"a": np.full(len(idx), 0.1)})

    def test_residuals_are_divided_by_their_bounds(self, monkeypatch):
        report = self._run(monkeypatch, {"a": 1e-3, "b": 4.0}, lambda idx: {"a": 2e-3 * idx, "b": np.full(len(idx), 4.0)})
        # normalized: sample 0 has a = 0, b = 1 and passes; sample 1 has a = 2, b = 1
        assert report.max_residual == 2.0
        assert report.failures == ((1, 2.0, "seed=42 index=1 check=a"),)

    def test_worst_check_matches_per_sample_reference(self, monkeypatch):
        # ties, NaN and both infinities among a few checks; the reference is the
        # per-sample rule: the first non-finite check (as |value|), else the first largest
        rng = np.random.default_rng(5)
        values, weights = [0.5, 2.0, 3.0, np.nan, np.inf, -np.inf], [0.3, 0.3, 0.25, 0.05, 0.05, 0.05]
        raw = rng.choice(values, size=(40, 4), p=weights)
        keys = ["a", "b", "c", "d"]
        want = []
        for i, row in enumerate(raw):
            bad = [j for j, v in enumerate(row) if not np.isfinite(v)]
            j = bad[0] if bad else int(np.argmax(row))
            want.append((i, abs(row[j]) if bad else row[j], f"seed=42 index={i} check={keys[j]}"))
        bounds = dict.fromkeys(keys, 1.0)

        def builder(cfg):
            return {"bounds": bounds}, len(raw), lambda idx: {k: raw[idx, j] for j, k in enumerate(keys)}

        monkeypatch.setitem(suites._BUILDERS, "symplectic", builder)
        report = suites.run_suite(suites.RunConfig("symplectic"))
        np.testing.assert_equal(list(report.failures), [w for w in want if not w[1] <= 1.0])


class TestRunConfig:
    @pytest.mark.parametrize("name", ["n", "d", "ell", "seed", "samples"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True, None])
    def test_integer_fields_reject_other_types(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be of type int"):
            suites.RunConfig("symplectic", **{name: value})

    @pytest.mark.parametrize("name", ["kappa", "epsilon", "radius"])
    @pytest.mark.parametrize("value", ["1", None, True, [1.0]])
    def test_number_fields_reject_other_types(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be of type"):
            suites.RunConfig("symplectic", **{name: value})

    def test_real_fields_reject_complex(self):
        with pytest.raises(ConfigError, match="^radius must be of type float"):
            suites.RunConfig("symplectic", radius=0.3 + 0j)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            suites.RunConfig("symplectic", seed=-1)

    def test_samples_above_max_samples_are_rejected(self):
        assert suites.RunConfig("symplectic", samples=suites.MAX_SAMPLES).samples == suites.MAX_SAMPLES
        for samples in (suites.MAX_SAMPLES + 1, 10**12):
            with pytest.raises(ConfigError, match="^samples must be <= MAX_SAMPLES"):
                suites.RunConfig("symplectic", samples=samples)

    @pytest.mark.parametrize("name", ["kappa", "epsilon"])
    def test_scale_must_lie_within_max_scale(self, name):
        lo, hi = 1 / suites.MAX_SCALE, suites.MAX_SCALE
        for inside in (hi, np.nextafter(hi, 0), -hi, lo, np.nextafter(lo, 1), -lo):
            assert getattr(suites.RunConfig("symplectic", **{name: inside}), name) == inside
        for outside in (np.nextafter(hi, np.inf), -np.nextafter(hi, np.inf), np.nextafter(lo, 0), 1e300, 1e-300):
            with pytest.raises(ConfigError, match=f"^\\|{name}\\| must lie in \\[1/MAX_SCALE, MAX_SCALE\\]"):
                suites.RunConfig("symplectic", **{name: outside})

    def test_complex_kappa_scale_is_its_modulus(self):
        hi = suites.MAX_SCALE
        assert suites.RunConfig("symplectic", kappa=1j * hi).kappa == 1j * hi
        for outside in (1j * np.nextafter(hi, np.inf), complex(hi, hi)):
            with pytest.raises(ConfigError, match="^\\|kappa\\| must lie in"):
                suites.RunConfig("symplectic", kappa=outside)

    def test_radius_must_lie_within_max_radius(self):
        hi = suites.MAX_RADIUS
        # the CLI default, the radius the tests use, and the edge
        for inside in (0.3, 1.0, np.nextafter(hi, 0), hi):
            assert suites.RunConfig("symplectic", radius=inside).radius == inside
        for outside in (np.nextafter(hi, np.inf), 1e200, 0.0, -0.3):
            with pytest.raises(ConfigError, match="^radius must lie in \\(0, MAX_RADIUS\\]"):
                suites.RunConfig("symplectic", radius=outside)

    def test_values_take_their_field_type(self):
        cfg = suites.RunConfig("symplectic", kappa=2, radius=1, seed=np.int64(7))
        assert type(cfg.kappa) is complex and type(cfg.radius) is float and type(cfg.seed) is int


@pytest.mark.parametrize(
    "suite,setting",
    [
        ("all", {"kappa": suites.MAX_SCALE}),
        ("all", {"kappa": -1j / suites.MAX_SCALE}),
        ("zakrzewski", {"epsilon": suites.MAX_SCALE}),
        ("zakrzewski", {"epsilon": -1 / suites.MAX_SCALE}),
    ],
    ids=["kappa-max", "kappa-min", "epsilon-max", "epsilon-min"],
)
def test_residuals_stay_finite_at_the_scale_edges(suite, setting):
    # at n = d = 4 the S and Double Jacobiators take the probes x + t Pi(x) e_i,
    # where the bivector grows as the cube of the scale; the bounds are
    # absolute, so the verdicts may fail, but no value may overflow
    cfg = suites.RunConfig(suite, n=4, d=4, ell=4, samples=2, **setting)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = suites.run_suite(cfg)
    maxima = [s["max_residual"] for s in report.params["suites"].values()] if suite == "all" else [report.max_residual]
    assert np.all(np.isfinite(maxima)), maxima


@pytest.mark.parametrize("kappa", [suites.MAX_SCALE, 1 / suites.MAX_SCALE], ids=["kappa-max", "kappa-min"])
@pytest.mark.parametrize(
    "suite,n,d", [("lemma4", 1, 16), ("moment", 4, 4), ("symplectic", 16, 1), ("actions", 2, 8)]
)
def test_residuals_stay_finite_at_max_radius(suite, n, d, kappa):
    # lemma4 at d = 16 has the highest power of the radius, R^32, in its
    # ordered products; the other suites that sample at the radius, and do
    # not leave their domain there, have at most R^4
    cfg = suites.RunConfig(suite, n=n, d=d, samples=2, radius=suites.MAX_RADIUS, kappa=kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(suites.run_suite(cfg).max_residual)


def test_jacobian_fd_polynomial_map():
    def f(x):
        return np.stack([x[..., 0] * x[..., 1], x[..., 0] ** 2 + 3.0 * x[..., 1]], axis=-1)

    x = np.array([0.4 + 0.2j, -0.3 + 0.1j])
    J = jacobian_fd(f, x, POLY)
    expected = np.array([[x[1], x[0]], [2 * x[0], 3.0]])
    np.testing.assert_allclose(J, expected, atol=1e-12)


# K x N with K*N below 2^15, in the gap 2^16/3 <= K*N < 2^15, and above 2^15
@pytest.mark.parametrize("K,N", [(16, 16), (25, 625), (25, 1000), (64, 1024)])
@pytest.mark.parametrize("M", [1, 2, 3, 16, 25, 125])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["matrix", "stack"])
def test_matmul_is_the_product_in_row_blocks(monkeypatch, batch, M, K, N):
    rng = np.random.default_rng(M * K * N)
    A = rng.standard_normal(batch + (M, K)) + 1j * rng.standard_normal(batch + (M, K))
    B = rng.standard_normal(batch + (K, N)) + 1j * rng.standard_normal(batch + (K, N))
    split, blocks = np.array_split, []

    def recorded_split(a, sections, axis):
        parts = split(a, sections, axis=axis)
        blocks.extend(p.shape[-2] for p in parts)
        return parts

    monkeypatch.setattr(np, "array_split", recorded_split)
    assert np.array_equal(verify._matmul(A, B), A @ B)
    rows = blocks or [M]
    assert sum(rows) == M
    if M >= 2:
        assert min(rows) >= 2  # no block goes to gemv
    if 2 * K * N < 2**16:
        # every block stays below 2^16 multiply-adds, but for one block of
        # three rows where M is odd and three rows do not fit
        big = [r for r in rows if r * K * N >= 2**16]
        assert big == [] or (M % 2 == 1 and big == [3])


@pytest.mark.parametrize("batch", [(), (2,)], ids=["matrix", "stack"])
def test_matmul_keeps_one_copy_of_the_product(batch):
    # 200 blocks of two rows: the blocks are never alive beside the product
    A = np.ones(batch + (400, 64), dtype=complex)
    B = np.ones((64, 400), dtype=complex)
    tracemalloc.start()
    try:
        P = verify._matmul(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(P, A @ B)
    assert peak < 1.1 * P.nbytes, (peak, P.nbytes)


class TestJacobi:
    def test_s_bracket(self):
        spec = BracketSpec("S", 1.0, n=2, d=2)
        x = sampling.sample_vector(1, 0, spec.dim, 1.0)
        assert jacobi_residual(spec, x, POLY) < 1e-10

    def test_single_pair_always_poisson(self):
        spec = BracketSpec("ZakC", 1.0, n=1, F=F_ONE, G=G_ZERO)
        x = sampling.sample_vector(1, 1, 2, 1.0)
        assert jacobi_residual(spec, x, POLY) < 1e-12

    def test_inadmissible_zak_fails(self):
        spec = BracketSpec("ZakC", 1.0, n=2, F=F_ONE, G=G_ZERO)
        x = sampling.sample_vector(1, 2, 4, 1.0)
        assert jacobi_residual(spec, x, POLY) > 1e-3


class TestPoissonMap:
    def test_map_m(self):
        n, d = 2, 2
        src = BracketSpec("Sprod", 1.0, n=n, d=d)
        tgt = BracketSpec("S", 1.0, n=n, d=d)
        t = sampling.sample_tuple(2, 0, n, d, 0.3)

        def f(x):
            return charts.pack_spoint(map_m(charts.unpack_tuple(x, n, d)))

        assert poisson_map_residual(src, tgt, f, charts.pack_tuple(t), FD) < 1e-7

    def test_scaling_is_not_poisson(self):
        n, d = 2, 2
        spec = BracketSpec("S", 1.0, n=n, d=d)
        x = sampling.sample_vector(2, 1, spec.dim, 0.5)

        def f(xv):
            p = charts.unpack_spoint(xv, n, d)
            return charts.pack_spoint(SPoint(2.0 * p.A, p.B))

        assert poisson_map_residual(spec, spec, f, x, FD) > 0.1

    def test_g_pm_into_dual_group(self):
        n = 3
        src = BracketSpec("S", 1.0, n=n, d=1)
        tgt = BracketSpec("DualGroup", 1.0, ell=n)
        s = sampling.sample_spin(2, 2, n, 0.3)

        def f(xv):
            p = charts.unpack_spoint(xv, n, 1)
            return charts.pack_dual(g_pm(SpinPoint(p.A[..., :, 0], p.B[..., 0, :])))

        x = charts.pack_spoint(s.as_spoint())
        assert poisson_map_residual(src, tgt, f, x, FD) < 1e-7


class TestAntiPoisson:
    def test_iota(self):
        n, d = 2, 3
        spec = BracketSpec("Sprod", 1.0, n=n, d=d)
        x = sampling.sample_vector(3, 0, spec.dim, 0.5)

        def f(xv):
            return charts.pack_tuple(iota(charts.unpack_tuple(xv, n, d)))

        # iota is linear, so its exact Jacobian is a permutation
        J = np.zeros((spec.dim, spec.dim))
        for a in range(d):
            off = 2 * n * a
            J[off : off + n, off + n : off + 2 * n] = np.eye(n)
            J[off + n : off + 2 * n, off : off + n] = np.eye(n)
        assert anti_poisson_residual(spec, f, x, jac=J) < 1e-10

    def test_identity_is_not_anti_poisson(self):
        spec = BracketSpec("S", 1.0, n=2, d=2)
        x = sampling.sample_vector(3, 1, spec.dim, 0.5)
        res = anti_poisson_residual(spec, lambda v: v, x, jac=np.eye(spec.dim))
        assert abs(res - 2.0 * np.max(np.abs(spec.bivector(x)))) < 1e-14

    def test_spin_swap_on_zak(self):
        n = 3
        spec = BracketSpec("ZakC", 1.0, n=n, F=F_AFF, G=G_AFF)
        x = sampling.sample_vector(3, 2, 2 * n, 0.5)
        swap = np.zeros((2 * n, 2 * n))
        swap[:n, n:] = np.eye(n)
        swap[n:, :n] = np.eye(n)
        assert anti_poisson_residual(spec, lambda v: swap @ v, x, jac=swap) < 1e-10


class TestActions:
    def _setup(self, n, d):
        gspec = BracketSpec("GLmult", 1.0, ell=n)
        sspec = BracketSpec("S", 1.0, n=n, d=d)
        g = np.eye(n) + sampling.draw_disks(4, 0, [((n, n), 0.2)])[0]
        x = sampling.sample_vector(4, 1, sspec.dim, 0.3)
        return gspec, sspec, g, x

    def test_gl_n_action(self):
        n, d = 2, 2
        gspec, sspec, g, x = self._setup(n, d)

        def act(gv, xv):
            gm = gv.reshape(gv.shape[:-1] + (n, n))
            p = charts.unpack_spoint(xv, n, d)
            return charts.pack_spoint(SPoint(gm @ p.A, p.B @ np.linalg.inv(gm)))

        assert action_residual(gspec, sspec, act, g.ravel(), x, FD) < 1e-7

    def test_gl_d_action(self):
        n, d = 2, 3
        sspec = BracketSpec("S", 1.0, n=n, d=d)
        gspec = BracketSpec("GLmult", 1.0, ell=d)
        g = np.eye(d) + sampling.draw_disks(4, 2, [((d, d), 0.2)])[0]
        x = sampling.sample_vector(4, 3, sspec.dim, 0.3)

        def act(gv, xv):
            gm = gv.reshape(gv.shape[:-1] + (d, d))
            p = charts.unpack_spoint(xv, n, d)
            return charts.pack_spoint(SPoint(p.A @ np.linalg.inv(gm), gm @ p.B))

        assert action_residual(gspec, sspec, act, g.ravel(), x, FD) < 1e-7

    def test_identity_group_element(self):
        n, d = 2, 2
        gspec, sspec, _, x = self._setup(n, d)

        def act(gv, xv):
            gm = gv.reshape(gv.shape[:-1] + (n, n))
            p = charts.unpack_spoint(xv, n, d)
            return charts.pack_spoint(SPoint(gm @ p.A, p.B @ np.linalg.inv(gm)))

        assert action_residual(gspec, sspec, act, np.eye(n).ravel() + 0j, x, FD) < 1e-9


def _gamma_map(n, d):
    """x -> the entries of 1 + AB, a batched polynomial map."""

    def g(xv):
        q = charts.unpack_spoint(xv, n, d)
        return (np.eye(n) + q.A @ q.B).reshape(xv.shape[:-1] + (n * n,))

    return g


def _identity(xv):
    return xv


class TestBracketFunctions:
    N, D = 2, 3

    def _setup(self, batch):
        spec = BracketSpec("S", 1.5 - 0.5j, n=self.N, d=self.D)
        x = sampling.sample_vector(8, np.arange(int(np.prod(batch))).reshape(batch), spec.dim, 0.5)
        return spec, x, _gamma_map(self.N, self.D)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["point", "stack"])
    def test_coordinates_with_coordinates_is_the_bivector(self, batch):
        spec, x, _ = self._setup(batch)
        got = bracket_functions(spec, x, _identity, _identity, POLY)
        assert got.shape == batch + (spec.dim, spec.dim)
        np.testing.assert_allclose(got, spec.bivector(x), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["point", "stack"])
    def test_coordinates_with_functions_is_pi_times_jacobian(self, batch):
        spec, x, g = self._setup(batch)
        got = bracket_functions(spec, x, _identity, g, POLY)
        want = spec.bivector(x) @ np.swapaxes(jacobian_fd(g, x, POLY), -1, -2)
        assert got.shape == batch + (spec.dim, self.N * self.N)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["point", "stack"])
    def test_coordinate_rows_match(self, batch):
        spec, x, g = self._setup(batch)
        C = bracket_functions(spec, x, _identity, g, POLY)
        for p in range(spec.dim):
            for q in range(self.N * self.N):
                val = bracket_coord_fn(spec, x, p, lambda xv, q=q: g(xv)[..., q], POLY)
                assert np.shape(val) == batch
                np.testing.assert_allclose(val, C[..., p, q], rtol=0, atol=1e-13, err_msg=f"{p}, {q}")


class TestBracketCoordFn:
    def test_constant_function(self):
        spec = BracketSpec("S", 1.0, n=2, d=2)
        x = sampling.sample_vector(5, 0, spec.dim, 0.5)
        assert abs(bracket_coord_fn(spec, x, 0, lambda xv: np.full(xv.shape[:-1], 1.7 + 0j), POLY)) < 1e-13

    def test_coordinate_function(self):
        spec = BracketSpec("S", 1.0, n=2, d=2)
        x = sampling.sample_vector(5, 1, spec.dim, 0.5)
        Pi = spec.bivector(x)
        for q in (1, 5):
            val = bracket_coord_fn(spec, x, 2, lambda xv, q=q: xv[..., q], POLY)
            assert abs(val - Pi[2, q]) < 1e-12

    def test_leibniz_on_quadratic(self):
        """{x_p, Gamma_jk} matches the exact Leibniz expansion."""
        n, d = 2, 2
        spec = BracketSpec("S", 1.0, n=n, d=d)
        x = sampling.sample_vector(5, 2, spec.dim, 0.5)
        p_idx, j, k = 1, 0, 1
        Pi = spec.bivector(x)
        pt = charts.unpack_spoint(x, n, d)
        nd = n * d
        expected = 0.0
        for be in range(d):
            # A(j,be) sits at flat index j*d+be; B(be,k) at nd + be*n+k
            expected += Pi[p_idx, j * d + be] * pt.B[be, k]
            expected += pt.A[j, be] * Pi[p_idx, nd + be * n + k]

        def f(xv):
            q = charts.unpack_spoint(xv, n, d)
            return (np.eye(n) + q.A @ q.B)[..., j, k]

        assert abs(bracket_coord_fn(spec, x, p_idx, f, POLY) - expected) < 1e-12


class TestMomentResiduals:
    def test_zero_point(self):
        res = moment_residuals(1.0, SPoint(np.zeros((2, 2)), np.zeros((2, 2))), POLY)
        assert res["Ga1"] < 1e-12
        assert res["Ga1prime"] < 1e-12

    def test_exact_relations(self):
        p = sampling.sample_spoint(6, 0, 2, 2, 0.3)
        res = moment_residuals(1.0, p, POLY)
        for key in ("Ga1", "Ga2_A", "Ga2_B", "Ga1prime", "Ga2prime_A", "Ga2prime_B", "Ga1_sts", "Ga1_aominus"):
            assert res[key] < 1e-10, key

    def test_sts_oracle_at_the_default_run(self):
        cfg = suites.RunConfig("moment")
        p = sampling.sample_spoint(cfg.seed, np.arange(cfg.samples), cfg.n, cfg.d, cfg.radius)
        res = moment_gamma_residuals(cfg.kappa, p, suites._POLY)
        assert np.max(res["Ga1_sts"]) <= 1e-15

    @pytest.mark.parametrize("scale", [0.0, -1.0, 3.0])
    def test_sts_scaling_mutants_fail_on_ga1_sts(self, monkeypatch, scale):
        # a multiple of the STS fill passes the Jacobi identity; the tie to
        # the tensor oracle in the moment suite catches it (and Ga1_aominus,
        # whose target is the STS fill)
        real = brackets._FILLS["STS"]
        monkeypatch.setitem(brackets._FILLS, "STS", lambda spec, x: scale * real(spec, x))
        assert not suites.run_suite(suites.RunConfig("all", seed=42)).ok
        params, count, check = suites._BUILDERS["moment"](suites.RunConfig("moment", seed=42))
        assert np.all(check(np.arange(count))["Ga1_sts"] > params["bounds"]["Ga1_sts"])

    def test_factor_relations(self):
        p = sampling.sample_spoint(6, 1, 3, 2, 0.3)
        res = moment_residuals(1.0, p, FD)
        for key in ("mom1_gplus_a", "mom1_gplus_b", "mom1_gminus_a", "mom1_gminus_b"):
            assert res[key] < 1e-7, key


@pytest.mark.parametrize("scale", [0.0, -1.0, 3.0])
@pytest.mark.parametrize(
    "kind,suite,keys",
    [
        ("Double", "ao-maps", ("double_u", "double_v", "dual_restriction")),
        ("DualGroup", "ao-maps", ("dual_restriction",)),
        ("AOminus", "moment", ("Ga1_aominus",)),
    ],
    ids=["Double", "DualGroup", "AOminus"],
)
def test_scaling_mutants_fail_on_their_ties(monkeypatch, kind, suite, keys, scale):
    # a multiple of a Poisson fill passes the Jacobi identity; a Poisson map
    # between it and another kind's fill catches it
    real = brackets._FILLS[kind]
    monkeypatch.setitem(brackets._FILLS, kind, lambda spec, x: scale * real(spec, x))
    report = suites.run_suite(suites.RunConfig("all", seed=42))
    assert not report.ok
    assert {d.split(" check=")[-1] for _, _, d in report.failures} == set(keys)
    assert all(d.startswith(f"{suite}: ") for _, _, d in report.failures)


class TestLemmaResiduals:
    def test_zero_tuple(self):
        res = lemma_h_residuals(1.0, SpinTuple(SpinPoint(z, z) for z in np.zeros((2, 2))), FD)
        for key, val in res.items():
            assert val < 1e-12, key

    def test_random_tuple(self):
        t = sampling.sample_tuple(7, 0, 2, 3, 0.3)
        res = lemma_h_residuals(1.0, t, FD)
        for key, val in res.items():
            assert val < 1e-6, key


# --- reference: brackets from the full J Pi J^T of the coordinates and functions ----
# The identity families read {x, g} = Pi J_g^T and {g, g} = J_g Pi J_g^T.  The
# references below form instead the whole bracket matrix of the map
# x -> (x, g(x)), finite differences of its identity block included, and slice
# it; the right-hand sides are spelled out again.


def _full_brackets(spec, x, g, scheme):
    """J Pi J^T of x -> (x, g(x)), J by finite differences of the whole map."""
    J = jacobian_fd(lambda xx: np.concatenate([xx, g(xx)], axis=-1), x, scheme)
    return J @ spec.bivector(x) @ np.swapaxes(J, -1, -2)


def _mat(t, rows, cols):
    return t.array.reshape(t.array.shape[:-4] + (rows, cols))


def _worst(m):
    return np.max(np.abs(m), axis=(-2, -1))


def _reference_moment_gamma(kappa, p, scheme):
    n, d = p.n, p.d
    nd = n * d
    x = charts.pack_spoint(p)
    rpn, rmn = r_pm(n, +1), r_pm(n, -1)
    out = {}
    for kind, sign, suffix in (("S", +1, ""), ("Prime", -1, "prime")):

        def g(xv, sign=sign):
            q = charts.unpack_spoint(xv, n, d)
            return (np.eye(n) + sign * (q.A @ q.B)).reshape(xv.shape[:-1] + (n * n,))

        M = _full_brackets(BracketSpec(kind, kappa, n=n, d=d), x, g, scheme)
        G = np.eye(n) + sign * (p.A @ p.B)
        rhs = sign * sts_rhs_tensor(kappa, G, n)
        out["Ga1" + suffix] = _worst(M[..., 2 * nd :, 2 * nd :] - _mat(rhs, n * n, n * n))
        if sign > 0:
            sts = BracketSpec("STS", kappa, ell=n).bivector(G.reshape(G.shape[:-2] + (n * n,)))
            out["Ga1_sts"] = _worst(sts - _mat(rhs, n * n, n * n))
        rhs = sign * kappa * (rpn.lmul2(G) - rmn.rmul2(G)).rmul1(p.A)
        out[f"Ga2{suffix}_A"] = _worst(M[..., :nd, 2 * nd :] - _mat(rhs, nd, n * n))
        rhs = sign * kappa * (rmn.rmul2(G) - rpn.lmul2(G)).lmul1(p.B)
        out[f"Ga2{suffix}_B"] = _worst(M[..., nd : 2 * nd, 2 * nd :] - _mat(rhs, nd, n * n))

    def g(xv):
        q = charts.unpack_spoint(xv, n, d)
        return (np.eye(n) + kappa * (q.A @ q.B)).reshape(xv.shape[:-1] + (n * n,))

    M = _full_brackets(BracketSpec("AOminus", kappa, n=n, d=d), x, g, scheme)
    G = np.eye(n) + kappa * (p.A @ p.B)
    sts = BracketSpec("STS", -kappa, ell=n).bivector(G.reshape(G.shape[:-2] + (n * n,)))
    out["Ga1_aominus"] = _worst(M[..., 2 * nd :, 2 * nd :] - sts)
    return out


def _reference_lemma_h(kappa, t, scheme):
    n, d = t.n, t.d
    n2, dim = n * n, 2 * n * d
    spec = BracketSpec("Sprod", kappa, n=n, d=d)
    M = _full_brackets(spec, charts.pack_tuple(t), lambda xx: _h_map(xx, n, d), scheme)
    rn, rp, rm = dj_r(n), r_pm(n, +1), r_pm(n, -1)
    gp, gmi, hp, hm = _h_products(t)

    def prod(ms):
        out = np.eye(n, dtype=complex)
        for m in ms:
            out = out @ m
        return out

    def hp_range(al, be):  # g_+(al)...g_+(be), 1-based
        return prod(gp[al - 1 : be])

    def hm_range(al, be):  # g_-(be)^-1...g_-(al)^-1, 1-based
        return prod([gmi[k - 1] for k in range(be, al - 1, -1)])

    out = {}

    def upd(key, lhs, rhs=None):
        diff = lhs if rhs is None else lhs - _mat(rhs, *lhs.shape[-2:])
        out[key] = np.maximum(out.get(key, 0.0), _worst(diff))

    for al in range(1, d + 1):
        a = slice(2 * n * (al - 1), 2 * n * (al - 1) + n)
        b = slice(a.stop, a.stop + n)
        hpa = slice(dim + n2 * (al - 1), dim + n2 * al)
        a_col, b_row = t[al - 1].a[..., :, None], t[al - 1].b[..., None, :]
        for be in range(1, d + 1):
            hpb = slice(dim + n2 * (be - 1), dim + n2 * be)
            hmb = slice(dim + n2 * (d + be - 1), dim + n2 * (d + be))
            lhs = {
                "a_hplus": M[..., a, hpb],
                "b_hplus": M[..., b, hpb],
                "a_hminus": M[..., a, hmb],
                "b_hminus": M[..., b, hmb],
            }
            if al <= be:
                hpr, hmr = hp_range(al, be), hm_range(al, be)
                upd("a_hplus", lhs["a_hplus"], -kappa * rm.rmul1(a_col).lmul2(hp[al - 1]).rmul2(hpr))
                upd("b_hplus", lhs["b_hplus"], kappa * rm.lmul1(b_row).lmul2(hp[al - 1]).rmul2(hpr))
                upd("a_hminus", lhs["a_hminus"], kappa * rp.rmul1(a_col).lmul2(hmr).rmul2(hm[al - 1]))
                upd("b_hminus", lhs["b_hminus"], -kappa * rp.lmul1(b_row).lmul2(hmr).rmul2(hm[al - 1]))
                mid = hp_range(al + 1, be)
                rhs = kappa * (rn.lmul1(hp[al]).lmul2(hp[al]).rmul2(mid) - rn.rmul1(hp[al]).rmul2(hp[be]))
                upd("hplus_hplus", M[..., hpa, hpb], rhs)
                midm = hm_range(al + 1, be)
                rhs = kappa * (rp.lmul2(hm[be]).rmul1(hp[al]) - rp.lmul1(hp[al]).lmul2(midm).rmul2(hm[al]))
                upd("hplus_hminus_le", M[..., hpa, hmb], rhs)
            else:
                for key, blk in lhs.items():
                    upd(key, blk)
            if al >= be:
                midp = hp_range(be + 1, al)
                rhs = kappa * (rp.lmul2(hm[be]).rmul1(hp[al]) - rp.lmul1(hp[be]).rmul1(midp).rmul2(hm[be]))
                upd("hplus_hminus_ge", M[..., hpa, hmb], rhs)
    return out


# the Gamma checks and the h-h checks agree to rounding; the checks of the
# coordinates with g+- or h differ by the fine-step finite differences of the
# identity block, which the reference keeps and C = Pi J_g^T replaces by the
# exact I
_GAMMA_ATOL = 1e-15
_H_H_ATOL = 1e-15
_COORD_FN_ATOL = 1e-11


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_moment_gamma_matches_full_bracket_reference(n, d):
    p = sampling.sample_spoint(42, np.arange(4), n, d, 0.3)
    got = moment_gamma_residuals(1.0, p, suites._POLY)
    want = _reference_moment_gamma(1.0, p, suites._POLY)
    assert list(got) == list(want)
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=_GAMMA_ATOL, err_msg=key)


def _reference_moment_factor(kappa, p, scheme):
    n = p.n
    sp = SpinPoint(p.A[..., :, 0], p.B[..., 0, :])

    def gpm(xv):
        pair = g_pm(charts.unpack_spin(xv, n))
        return np.concatenate([m.reshape(xv.shape[:-1] + (n * n,)) for m in (pair.hplus, pair.hminus)], axis=-1)

    M = _full_brackets(BracketSpec("S", kappa, n=n, d=1), charts.pack_spoint(sp.as_spoint()), gpm, scheme)
    pair = g_pm(sp)
    a_col, b_row = sp.a[..., :, None], sp.b[..., None, :]
    out = {}
    for name, r, h, cols in (
        ("gplus", r_pm(n, -1), pair.hplus, slice(2 * n, 2 * n + n * n)),
        ("gminus", r_pm(n, +1), pair.hminus, slice(2 * n + n * n, None)),
    ):
        out[f"mom1_{name}_a"] = _worst(M[..., :n, cols] - _mat(-kappa * r.rmul1(a_col).rmul2(h), n, n * n))
        out[f"mom1_{name}_b"] = _worst(M[..., n : 2 * n, cols] - _mat(kappa * r.lmul1(b_row).rmul2(h), n, n * n))
    return out


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_moment_factor_matches_full_bracket_reference(n, d):
    p = sampling.sample_spoint(42, np.arange(4), n, d, 0.3)
    got = moment_factor_residuals(1.0, p, FD)
    want = _reference_moment_factor(1.0, p, FD)
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=_COORD_FN_ATOL, err_msg=key)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)])
def test_lemma_h_matches_full_bracket_reference(n, d):
    t = sampling.sample_tuple(42, np.arange(3), n, d, 0.3)
    got = lemma_h_residuals(1.0 - 0.5j, t, FD)
    want = _reference_lemma_h(1.0 - 0.5j, t, FD)
    assert set(got) == set(want)
    for key in want:
        atol = _H_H_ATOL if key.startswith("hplus_") else _COORD_FN_ATOL
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=atol, err_msg=key)


class TestSymplectic:
    def test_n1_closed_form(self):
        a, b, kappa = 0.3 + 0.1j, 0.2 - 0.4j, 1.5
        Om = symplectic_matrix(kappa, SpinPoint([a], [b]))
        np.testing.assert_allclose(Om, [[0, -1 / (kappa * (1 + a * b))], [1 / (kappa * (1 + a * b)), 0]])

    def test_zero_point(self):
        n, kappa = 3, 2.0
        Om = symplectic_matrix(kappa, SpinPoint(np.zeros(n), np.zeros(n)))
        expected = np.zeros((2 * n, 2 * n), dtype=complex)
        expected[:n, n:] = (-1 / kappa) * np.eye(n)
        expected[n:, :n] = (1 / kappa) * np.eye(n)
        np.testing.assert_array_equal(Om, expected)

    def test_hand_value(self):
        Om = symplectic_matrix(2.0, SpinPoint([1.0], [1.0]))
        assert Om[0, 1] == -0.25

    def test_inversion_scalar(self):
        assert symplectic_inversion_residual(2.0, SpinPoint([1.0], [1.0])) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_inversion_random(self, n):
        p = sampling.sample_spin(8, n, n, 0.3)
        assert symplectic_inversion_residual(1.0, p) < 1e-10

    def test_zero_g_raises(self):
        with pytest.raises(ZeroG) as exc:
            symplectic_matrix(1.0, SpinPoint([0.5, 1.0], [0.1, -1.0]))
        assert exc.value.index == 2


class TestRank:
    def test_origin_full_rank(self):
        spec = BracketSpec("S", 1.0, n=3, d=2)
        assert rank_at(spec, np.zeros(spec.dim, dtype=complex), 1e-8) == 12

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 3), (5, 5)])
    def test_degenerate_point(self, n, d):
        A = np.zeros((n, d), dtype=complex)
        B = np.zeros((d, n), dtype=complex)
        A[n - 1, 0] = 1.0
        B[0, n - 1] = -1.0
        spec = BracketSpec("S", 1.0, n=n, d=d)
        x = charts.pack_spoint(SPoint(A, B))
        assert rank_at(spec, x, 1e-8) == 2 * (n - 1) * (d - 1)

    def test_rank_drops_when_g_vanishes(self):
        n = 3
        a = np.array([0.2, 0.3, 1.0], dtype=complex)
        b = np.array([0.1, 0.2, -1.0], dtype=complex)  # G_3 = 1 + a_3 b_3 = 0
        spec = BracketSpec("S", 1.0, n=n, d=1)
        x = charts.pack_spoint(SpinPoint(a, b).as_spoint())
        assert rank_at(spec, x, 1e-8) < 2 * n


class TestZakCondition:
    def test_affine_family(self):
        assert zak_condition_residual(F_AFF, G_AFF, 0.7) < 1e-15

    def test_linear_family(self):
        for t in (0.3, -1.2 + 0.4j):
            assert zak_condition_residual(F_LIN, G_ZERO, t) < 1e-15

    def test_constant_violates(self):
        assert abs(zak_condition_residual(F_ONE, G_ZERO, 0.5) - 0.5) < 1e-15

    def test_array_of_t(self):
        t = np.array([0.3, -1.2 + 0.4j, 0.5])
        for F, G in ((F_AFF, G_AFF), (F_ONE, G_ZERO)):
            got = zak_condition_residual(F, G, t)
            assert got.shape == (3,)
            np.testing.assert_array_equal(got, [zak_condition_residual(F, G, complex(v)) for v in t])
