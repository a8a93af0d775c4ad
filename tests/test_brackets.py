"""Tests for the bracket-matrix evaluators and the tensor-form cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plie import brackets, charts, sampling
from plie.brackets import (
    BracketSpec,
    HoloFn1,
    antisymmetrize,
    dual_bases,
    pairing,
    s_bivector_tensor,
    sts_rhs_tensor,
)
from plie.errors import ConfigError
from plie.suites import RunConfig
from plie.points import DualPair, SPoint, SpinPoint, SpinTuple
from plie.tensors import dj_r, r_pm

F_AFF = HoloFn1(lambda t: 2 + t, lambda t: 1 + 0 * t, "F")
G_AFF = HoloFn1(lambda t: -1 + 0 * t, lambda t: 0 * t, "G")

KAPPAS = [1.0, 1j, 2.0 - 1.0j]

complex_entries = st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False)


def _spoint(seed, n, d, radius=1.0):
    return sampling.sample_spoint(seed, 0, n, d, radius)


def _on_spoint(kind, kappa, p):
    """The bracket matrix of an S(n,d)-chart kind at the point p."""
    return BracketSpec(kind, kappa, n=p.n, d=p.d).bivector(charts.pack_spoint(p))


def _on_tuple(kappa, t):
    return BracketSpec("Sprod", kappa, n=t.n, d=t.d).bivector(charts.pack_tuple(t))


def _on_gl(kind, kappa, g):
    return BracketSpec(kind, kappa, ell=g.shape[-1]).bivector(charts.pack_gl(g))


def _on_double(kappa, u, v):
    return BracketSpec("Double", kappa, ell=u.shape[-1]).bivector(charts.pack_double(u, v))


def _on_dual(kappa, pair):
    return BracketSpec("DualGroup", kappa, ell=pair.ell).bivector(charts.pack_dual(pair))


def test_antisymmetrize_is_exact():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A = antisymmetrize(M)
    np.testing.assert_array_equal(A, -A.T)
    np.testing.assert_array_equal(np.diag(A), np.zeros(5))
    np.testing.assert_array_equal(np.triu(A, 1), np.triu(M, 1))


class TestSBivector:
    def test_zero_point(self):
        n, d = 2, 3
        kappa = 2.0 - 1.0j
        M = _on_spoint("S", kappa, SPoint(np.zeros((n, d)), np.zeros((d, n))))
        nd = n * d
        np.testing.assert_array_equal(M[:nd, :nd], np.zeros((nd, nd)))
        np.testing.assert_array_equal(M[nd:, nd:], np.zeros((nd, nd)))
        # {A(i,al), B(be,k)} = kappa delta_albe delta_ik; B block is ordered (al,i)
        cross = M[:nd, nd:]
        for i in range(n):
            for a in range(d):
                for b in range(d):
                    for k in range(n):
                        expected = kappa if (a == b and i == k) else 0.0
                        assert cross[i * d + a, b * n + k] == expected

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_scalar_case(self, kappa):
        A, B = 0.37 - 0.21j, -0.54 + 0.8j
        M = _on_spoint("S", kappa, SPoint([[A]], [[B]]))
        assert abs(M[0, 1] - kappa * (1 + A * B)) < 1e-15
        assert M[0, 0] == 0 and M[1, 1] == 0

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (3, 2), (2, 4), (4, 4)])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matches_tensor_oracle(self, n, d, kappa):
        p = _spoint(n * 100 + d, n, d)
        M = _on_spoint("S", kappa, p)
        T = antisymmetrize(s_bivector_tensor(kappa, p))
        assert np.max(np.abs(M - T)) < 1e-13

    def test_kappa_antilinearity(self):
        p = _spoint(7, 3, 2)
        np.testing.assert_array_equal(_on_spoint("S", 1.5j, p), -_on_spoint("S", -1.5j, p))

    @given(
        a=st.lists(complex_entries, min_size=2, max_size=2),
        b=st.lists(complex_entries, min_size=2, max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_oracle_agreement_property(self, a, b):
        p = SPoint(np.array(a).reshape(2, 1), np.array(b).reshape(1, 2))
        M = _on_spoint("S", 1.0, p)
        T = antisymmetrize(s_bivector_tensor(1.0, p))
        assert np.max(np.abs(M - T)) < 1e-13


class TestProductBivector:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_copy_blocks_equal_s(self, d):
        # each copy's diagonal block is S(n,1) at that copy; the rest is exactly 0
        n = 4
        m = 2 * n
        t = sampling.sample_tuple(3, np.arange(2), n, d, 1.0)
        for kappa in KAPPAS:
            M = _on_tuple(kappa, t)
            assert M.shape == (2, m * d, m * d)
            for a in range(d):
                for b in range(d):
                    blk = M[:, m * a : m * (a + 1), m * b : m * (b + 1)]
                    if a == b:
                        np.testing.assert_array_equal(blk, _on_spoint("S", kappa, t[a].as_spoint()))
                    else:
                        np.testing.assert_array_equal(blk, np.zeros_like(blk))

    def test_zero_point_cross_block(self):
        n, d, kappa = 3, 2, 2.0 + 1.0j
        M = _on_tuple(kappa, SpinTuple(SpinPoint(z, z) for z in np.zeros((d, n))))
        for a in range(d):
            off = 2 * n * a
            blk = M[off : off + n, off + n : off + 2 * n]
            np.testing.assert_allclose(blk, kappa * np.eye(n))
        # off-diagonal copy blocks vanish
        assert np.max(np.abs(M[: 2 * n, 2 * n :])) == 0


class TestOscillatorVariants:
    def test_ao_plus_zero_point(self):
        n, d = 2, 2
        M = _on_spoint("AOplus", 1.0, SPoint(np.zeros((n, d)), np.zeros((d, n))))
        nd = n * d
        np.testing.assert_allclose(M[:nd, nd:], -_cross_delta(n, d))

    def test_prime_zero_point(self):
        n, d, kappa = 3, 2, 2.0 - 1.0j
        M = _on_spoint("Prime", kappa, SPoint(np.zeros((n, d)), np.zeros((d, n))))
        nd = n * d
        np.testing.assert_allclose(M[:nd, nd:], kappa * _cross_delta(n, d))

    def test_ao_minus_zero_point(self):
        n, d = 2, 3
        M = _on_spoint("AOminus", 1.0, SPoint(np.zeros((n, d)), np.zeros((d, n))))
        nd = n * d
        np.testing.assert_allclose(M[:nd, nd:], -_cross_delta(n, d))

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(1, 5)])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_ao_minus_is_s_at_minus_kappa(self, n, d, kappa):
        # AO- is S at -kappa with cross constant -1 in place of -kappa: a
        # relation that pins its scale, which the Jacobi identity cannot
        X = charts.pack_spoint(sampling.sample_spoint(n * 10 + d, np.arange(3), n, d, 1.0))
        M = BracketSpec("AOminus", kappa, n=n, d=d).bivector(X)
        want = BracketSpec("S", -kappa, n=n, d=d).bivector(X)
        want += (kappa - 1) * BracketSpec("S", 1.0, n=n, d=d).bivector(np.zeros(2 * n * d))
        np.testing.assert_allclose(M, want, rtol=0, atol=1e-15 * max(1.0, np.max(np.abs(M))))


def _cross_delta(n: int, d: int) -> np.ndarray:
    """delta_albe delta_ik in the (i,al) x (be,k) block ordering."""
    out = np.zeros((n * d, n * d))
    for i in range(n):
        for a in range(d):
            out[i * d + a, a * n + i] = 1.0
    return out


class TestGlMult:
    def test_identity_point(self):
        M = _on_gl("GLmult", 1.0, np.eye(3))
        assert np.max(np.abs(M)) == 0

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_matches_commutator_form(self, ell):
        g = sampling.sample_gl(5, ell, ell, 1.0)
        r = dj_r(ell)
        kappa = 0.7 - 0.3j
        oracle = kappa * (r.lmul1(g).lmul2(g) - r.rmul1(g).rmul2(g))
        np.testing.assert_allclose(
            _on_gl("GLmult", kappa, g),
            antisymmetrize(oracle.array.reshape(ell * ell, ell * ell)),
            atol=1e-14,
        )

    def test_diagonal_point(self):
        M = _on_gl("GLmult", 1.0, np.diag([2.0, 3.0]))
        # chart order: g11 g12 g21 g22
        assert M[0, 3] == 0  # {g11, g22}
        assert M[1, 2] == 0  # {g12, g21}: coefficient sgn(2-1)+sgn(1-2) = 0


class TestDouble:
    def test_identity_point(self):
        M = _on_double(1.0, np.eye(2), np.eye(2))
        assert np.max(np.abs(M)) == 0

    def test_scalar_case(self):
        M = _on_double(1.0, np.array([[0.4 + 0.1j]]), np.array([[-0.2j]]))
        assert np.max(np.abs(M)) == 0


class TestDualGroup:
    def test_identity_point(self):
        M = _on_dual(1.0, DualPair(np.eye(3), np.eye(3)))
        assert np.max(np.abs(M)) == 0

    def test_scalar_case(self):
        M = _on_dual(1.0, DualPair([[2.0]], [[0.5]]))
        np.testing.assert_array_equal(M, np.zeros((1, 1)))

    def test_restriction_of_double(self):
        from plie.charts import glstar_free_indices

        pair = sampling.sample_dual(9, 0, 3, 0.4)
        idx = glstar_free_indices(3)
        full = _on_double(1.0, pair.hplus, pair.hminus)
        np.testing.assert_allclose(_on_dual(1.0, pair), full[np.ix_(idx, idx)], atol=1e-14)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_fill_is_the_double_fill_at_the_free_coordinates(self, ell, kappa):
        # the dual-group fill forms only the free rows and columns, from the
        # same products in the same order as the double's fill: above the
        # diagonal, where the bivector reads it, it is that fill restricted
        X = charts.pack_dual(sampling.sample_dual(ell, np.arange(3), ell, 0.4))
        pair = charts.unpack_dual(X, ell)
        full = BracketSpec("Double", kappa, ell=ell).upper(charts.pack_double(pair.hplus, pair.hminus))
        idx = charts.glstar_free_indices(ell)
        got = BracketSpec("DualGroup", kappa, ell=ell).upper(X)
        upper = np.triu_indices(ell * ell, 1)
        np.testing.assert_array_equal(got[:, upper[0], upper[1]], full[:, idx[upper[0]], idx[upper[1]]])


class TestSts:
    def test_identity_point(self):
        assert np.max(np.abs(_on_gl("STS", 1.0, np.eye(3)))) < 1e-15

    def test_scalar_case(self):
        assert np.max(np.abs(_on_gl("STS", 1.0, np.array([[1.7]])))) == 0

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_matches_tensor_oracle(self, ell):
        h = sampling.sample_gl(11, np.arange(ell, ell + 3), ell, 1.0)
        for kappa in KAPPAS:
            oracle = sts_rhs_tensor(kappa, h, ell).array.reshape(3, ell * ell, ell * ell)
            np.testing.assert_allclose(_on_gl("STS", kappa, h), antisymmetrize(oracle), atol=1e-13)


class TestZakrzewski:
    def test_n1_cross_entry(self):
        a, b = 0.3 + 0.1j, 0.2 - 0.4j
        kappa = 1.5 - 0.5j
        M = BracketSpec("ZakC", kappa, n=1, F=F_AFF, G=G_AFF).bivector(np.array([a, b]))
        t = a * b
        expected = 0.5 * kappa * F_AFF.eval(t) - 0.5 * kappa * G_AFF.eval(t) * a * b
        assert abs(M[0, 1] - expected) < 1e-15

    def test_real_case_n1(self):
        eps = 0.8
        u, ubar = 0.3 + 0.1j, 0.2 - 0.4j
        M = BracketSpec("ZakC", -2j * eps, n=1, F=F_AFF, G=G_AFF).bivector(np.array([u, ubar]))
        t = u * ubar
        expected = -1j * eps * F_AFF.eval(t) + 1j * eps * G_AFF.eval(t) * t
        assert abs(M[0, 1] - expected) < 1e-15

    def test_real_case_rejects_zero_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon must be nonzero"):
            RunConfig("zakrzewski", epsilon=0.0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_affine_case_reduces_to_s(self, n, kappa):
        """With F = 2+t and G = -1 the spin bracket coincides with S(n,1)."""
        s = sampling.sample_spin(13, n, n, 0.6)
        x = np.concatenate([s.a, s.b])
        Mz = BracketSpec("ZakC", kappa, n=n, F=F_AFF, G=G_AFF).bivector(x)
        Ms = _on_spoint("S", kappa, s.as_spoint())
        assert np.max(np.abs(Mz - Ms)) < 1e-13


class TestHoloFn1:
    def test_affine_constructor(self):
        f = HoloFn1.affine(2.0, 3.0)
        assert f.eval(1.5) == 6.5 and f.deriv(0.0) == 3.0

    def test_rejects_wrong_derivative(self):
        with pytest.raises(ValueError):
            HoloFn1(lambda t: t * t, lambda t: 3 * t, "bad")


class TestDualBases:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_duality(self, ell, kappa):
        db = dual_bases(ell, kappa)
        n = len(db.Ta)
        G = np.array([[pairing(kappa, db.Ta[p], db.Tb[q]) for q in range(n)] for p in range(n)])
        np.testing.assert_allclose(G, np.eye(n), atol=1e-14)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_resolution_identity(self, ell):
        kappa = 2.0 - 1.0j
        db = dual_bases(ell, kappa)
        accZ = np.zeros((ell, ell, ell, ell), dtype=complex)
        accW = np.zeros((ell, ell, ell, ell), dtype=complex)
        for (X, _), (Z, W) in zip(db.Ta, db.Tb):
            accZ += np.einsum("ij,kl->ijkl", X, Z)
            accW += np.einsum("ij,kl->ijkl", X, W)
        assert np.max(np.abs(accZ + kappa * r_pm(ell, -1).array)) < 1e-13
        assert np.max(np.abs(accW + kappa * r_pm(ell, +1).array)) < 1e-13

    def test_rejects_zero_kappa(self):
        with pytest.raises(ConfigError):
            dual_bases(2, 0.0)


# the real Zakrzewski bracket at epsilon is ZakC at kappa = -2i epsilon
EPSILON = 0.5

# one spec of every kind, each evaluated on its own chart's points
EVERY_KIND = [
    BracketSpec("S", 1j, n=2, d=2),
    BracketSpec("Sprod", 1j, n=2, d=2),
    BracketSpec("AOplus", 1j, n=2, d=2),
    BracketSpec("AOminus", 1j, n=2, d=2),
    BracketSpec("Prime", 1j, n=2, d=2),
    BracketSpec("GLmult", 1j, ell=3),
    BracketSpec("Double", 1j, ell=2),
    BracketSpec("DualGroup", 1j, ell=3),
    BracketSpec("STS", 1j, ell=3),
    BracketSpec("ZakC", 1j, n=3, F=F_AFF, G=G_AFF),
    BracketSpec("ZakC", -2j * EPSILON, n=3, F=F_AFF, G=G_AFF),
]


def _label(spec):
    """A spec's test id: its kind, and ZakR for the real Zakrzewski bracket."""
    return "ZakR" if spec.kind == "ZakC" and spec.kappa == -2j * EPSILON else spec.kind


def _kind_points(spec, batch):
    """One point (batch ()) or a stack of them in the chart of ``spec``."""
    indices = np.arange(int(np.prod(batch)))
    if spec.kind == "DualGroup":
        x = charts.pack_dual(sampling.sample_dual(23, indices, spec.ell, 0.4))
    else:
        x = sampling.sample_vector(23, indices, spec.dim, 1.0)
    return x.reshape(batch + (spec.dim,))


class TestBracketSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            BracketSpec("Quadratic", 1.0, n=2, d=2)

    def test_missing_sizes(self):
        with pytest.raises(ConfigError):
            BracketSpec("S", 1.0, n=2)
        with pytest.raises(ConfigError):
            BracketSpec("GLmult", 1.0)

    def test_zero_kappa(self):
        with pytest.raises(ConfigError):
            BracketSpec("S", 0.0, n=1, d=1)

    def test_real_zakrzewski_is_not_a_kind(self):
        # the real bracket is ZakC at kappa = -2i epsilon, not a kind of its own
        with pytest.raises(ConfigError, match="unknown bracket kind 'ZakR'"):
            BracketSpec("ZakR", -2j * EPSILON, n=3, F=F_AFF, G=G_AFF)

    def test_zak_requires_functions(self):
        with pytest.raises(ConfigError):
            BracketSpec("ZakC", 1.0, n=2)

    @pytest.mark.parametrize(
        "spec,dim",
        [
            (BracketSpec("S", 1.0, n=2, d=3), 12),
            (BracketSpec("Sprod", 1.0, n=2, d=3), 12),
            (BracketSpec("GLmult", 1.0, ell=3), 9),
            (BracketSpec("Double", 1.0, ell=2), 8),
            (BracketSpec("DualGroup", 1.0, ell=3), 9),
            (BracketSpec("ZakC", 1.0, n=4, F=F_AFF, G=G_AFF), 8),
        ],
    )
    def test_dim(self, spec, dim):
        assert spec.dim == dim

    def test_every_bivector_is_antisymmetric(self):
        assert {s.kind for s in EVERY_KIND} == set(brackets._FILLS)
        for spec in EVERY_KIND:
            # one point, then a stack of four
            for batch in ((), (4,)):
                M = spec.bivector(_kind_points(spec, batch))
                assert M.shape == batch + (spec.dim, spec.dim)
                np.testing.assert_array_equal(M, -M.swapaxes(-1, -2))
                assert not np.any(np.diagonal(M, axis1=-2, axis2=-1)), spec.kind
                assert np.count_nonzero(np.triu(M, 1)) > 0, spec.kind

    @pytest.mark.parametrize("spec", EVERY_KIND, ids=_label)
    @pytest.mark.parametrize("batch", [(), (4,)], ids=["point", "stack"])
    def test_upper_is_the_bivector_above_the_diagonal(self, spec, batch):
        x = _kind_points(spec, batch)
        U, M = spec.upper(x), spec.bivector(x)
        assert U.shape == M.shape
        above = np.triu(np.ones((spec.dim, spec.dim), dtype=bool), 1)
        np.testing.assert_array_equal(U[..., above], M[..., above])

    @pytest.mark.parametrize("spec", EVERY_KIND, ids=_label)
    def test_upper_rejects_what_bivector_rejects(self, spec):
        bad = np.zeros((3, spec.dim + 1), dtype=complex)
        errors = []
        for method in (spec.bivector, spec.upper):
            with pytest.raises(ValueError) as exc:
                method(bad)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
