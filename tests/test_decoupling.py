"""Tests for the decoupling diffeomorphisms and the auxiliary maps."""

import numpy as np
import pytest

from plie import sampling
from plie.decoupling import (
    guard_tuple,
    iota,
    map_F,
    map_F_inverse,
    map_m,
    map_m_inverse,
    map_nu,
    map_theta,
    map_xi,
)
from plie.errors import ConstraintViolated, DomainEscape
from plie.factorization import g_pm
from plie.points import SPoint, SpinPoint, SpinTuple


def _tuple_close(t1, t2, tol=1e-10):
    for u, v in zip(t1, t2):
        assert np.max(np.abs(u.a - v.a)) < tol
        assert np.max(np.abs(u.b - v.b)) < tol


class TestMapM:
    def test_zero_tuple(self):
        p = map_m(SpinTuple.zero(3, 2))
        assert np.max(np.abs(p.A)) == 0 and np.max(np.abs(p.B)) == 0

    def test_first_column_is_untouched(self):
        t = sampling.sample_tuple(1, 0, 3, 4, 0.3)
        p = map_m(t)
        np.testing.assert_array_equal(p.A[:, 0], t[0].a)
        np.testing.assert_array_equal(p.B[0, :], t[0].b)

    def test_single_copy_is_identity(self):
        t = sampling.sample_tuple(1, 1, 4, 1, 0.3)
        p = map_m(t)
        np.testing.assert_array_equal(p.A[:, 0], t[0].a)
        np.testing.assert_array_equal(p.B[0, :], t[0].b)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_roundtrip(self, n, d, index):
        t = sampling.sample_tuple(2, index, n, d, 0.3)
        _tuple_close(t, map_m_inverse(map_m(t)))

    def test_inverse_of_zero(self):
        t = map_m_inverse(SPoint.zero(3, 2))
        for s in t:
            assert np.max(np.abs(s.a)) == 0 and np.max(np.abs(s.b)) == 0

    def test_domain_guard(self):
        bad = SpinTuple([SpinPoint(np.full(3, 1.0), np.full(3, 1.0))])
        with pytest.raises(DomainEscape):
            map_m(bad)


class TestMapF:
    def test_zero_tuple(self):
        p = map_F(SpinTuple.zero(2, 3))
        assert np.max(np.abs(p.A)) == 0 and np.max(np.abs(p.B)) == 0

    def test_last_column(self):
        t = sampling.sample_tuple(3, 0, 3, 3, 0.3)
        p = map_F(t)
        gp = g_pm(t[-1]).hplus
        np.testing.assert_allclose(p.A[:, -1], np.linalg.solve(gp, t[-1].a), atol=1e-13)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 4)])
    def test_factorization_identities(self, n, d):
        """1 - g+(a+1)..g+(d) Ahat^a Bhat^a g-(d)^-1..g-(a+1)^-1 = g+(a)^-1 g-(a)."""
        t = sampling.sample_tuple(3, n * 10 + d, n, d, 0.3)
        p = map_F(t)
        pairs = [g_pm(s) for s in t]
        for al in range(d):
            L = np.eye(n, dtype=complex)
            R = np.eye(n, dtype=complex)
            for be in range(al + 1, d):
                L = L @ pairs[be].hplus
            for be in range(d - 1, al, -1):
                R = R @ np.linalg.inv(pairs[be].hminus)
            lhs = np.eye(n) - L @ np.outer(p.A[:, al], p.B[al, :]) @ R
            rhs = np.linalg.inv(pairs[al].hplus) @ pairs[al].hminus
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_roundtrip(self, n, d, index):
        t = sampling.sample_tuple(4, index, n, d, 0.3)
        _tuple_close(t, map_F_inverse(map_F(t)))

    def test_inverse_of_zero(self):
        t = map_F_inverse(SPoint.zero(3, 2))
        for s in t:
            assert np.max(np.abs(s.a)) == 0 and np.max(np.abs(s.b)) == 0

    def test_domain_guard(self):
        bad = SpinTuple([SpinPoint(np.full(2, 0.8), np.full(2, 0.8))])
        with pytest.raises(DomainEscape):
            map_F(bad)


class TestMapNu:
    def test_zero(self):
        q = map_nu(SPoint.zero(2, 3))
        assert q.n == 3 and q.d == 2
        assert np.max(np.abs(q.A)) == 0 and np.max(np.abs(q.B)) == 0

    def test_involution(self):
        p = sampling.sample_spoint(5, 0, 3, 2, 0.5)
        q = map_nu(map_nu(p))
        np.testing.assert_array_equal(q.A, p.A)
        np.testing.assert_array_equal(q.B, p.B)


class TestMapXi:
    def test_scalar_case(self):
        p = SPoint([[0.3 + 0.1j]], [[0.2 - 0.4j]])
        q = map_xi(p, 1.0, -1.0, 1.0)
        np.testing.assert_array_equal(q.A, p.A)
        np.testing.assert_array_equal(q.B, -p.B)

    def test_constraint(self):
        p = SPoint.zero(2, 2)
        with pytest.raises(ConstraintViolated):
            map_xi(p, 1.0, 1.0, 1.0)


class TestMapTheta:
    def test_rescales(self):
        p = sampling.sample_spoint(6, 0, 2, 3, 0.5)
        kappa = 2.0 - 1.0j
        q = map_theta(p, 2.0, -0.5 / kappa, kappa)
        np.testing.assert_allclose(q.A, 2.0 * p.A)
        np.testing.assert_allclose(q.B, (-0.5 / kappa) * p.B)

    def test_constraint(self):
        with pytest.raises(ConstraintViolated):
            map_theta(SPoint.zero(1, 1), 1.0, 1.0, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn", [map_xi, map_theta])
@pytest.mark.parametrize(
    "fa,fb",
    [(1.0, NAN), (NAN, -1.0), (complex(NAN, 0.0), 1.0), (INF, 0.0), (INF, -1.0), (complex(0.0, INF), 1.0)],
    ids=["nan-b", "nan-a", "complex-nan", "inf-times-zero", "inf", "complex-inf"],
)
def test_non_finite_factors_violate_the_constraint(fn, fa, fb):
    with pytest.raises(ConstraintViolated):
        fn(SPoint.zero(2, 2), fa, fb, 1.0)


class TestIota:
    def test_involution(self):
        t = sampling.sample_tuple(7, 0, 3, 2, 0.5)
        _tuple_close(t, iota(iota(t)), tol=0.0 + 1e-16)

    def test_factor_exchange_identities(self):
        """g+ of the swapped copy equals the inverse-transpose of g- (and vice versa)."""
        s = sampling.sample_spin(7, 1, 4, 0.3)
        p0 = g_pm(s)
        p1 = g_pm(SpinPoint(s.b, s.a))
        np.testing.assert_allclose(p1.hplus, np.linalg.inv(p0.hminus).T, atol=1e-12)
        np.testing.assert_allclose(p1.hminus, np.linalg.inv(p0.hplus).T, atol=1e-12)


class TestGuard:
    def test_accepts_small(self):
        guard_tuple(sampling.sample_tuple(8, 0, 3, 3, 0.3))

    def test_rejects_large(self):
        with pytest.raises(DomainEscape):
            guard_tuple(SpinTuple([SpinPoint([1.0, 0.0], [0.0, 1.0])]))
