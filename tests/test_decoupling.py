"""Tests for the decoupling diffeomorphisms and the auxiliary maps."""

import numpy as np
import pytest

from plie import charts, sampling
from plie.decoupling import (
    iota,
    map_F,
    map_F_inverse,
    map_m,
    map_m_inverse,
    map_nu,
    map_theta,
    map_xi,
)
from plie.errors import BranchCut, ConstraintViolated
from plie.factorization import g_functions, g_pm
from plie.points import SPoint, SpinPoint, SpinTuple


def _tuple_close(t1, t2, tol=1e-10):
    for u, v in zip(t1, t2):
        assert np.max(np.abs(u.a - v.a)) < tol
        assert np.max(np.abs(u.b - v.b)) < tol


# a spin of size 3 on the branch cut: G_1 = 1 + a_1 b_1 = -1
CUT = SpinPoint([1.0, 0.0, 0.0], [-2.0, 0.0, 0.0])


def _with_copy(t, al, s):
    """The tuple t with copy al replaced by the spin s."""
    return SpinTuple(s if be == al else c for be, c in enumerate(t))


def _root_ratios(s):
    """sqrt(G_j)/sqrt(G_{j+1}) of a spin, j = 1..n, with principal roots."""
    r = np.sqrt(g_functions(s)[1:])
    return r[:-1] / r[1:]


class TestMapM:
    def test_zero_tuple(self):
        p = map_m(SpinTuple(SpinPoint(z, z) for z in np.zeros((2, 3))))
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
        t = map_m_inverse(SPoint(np.zeros((3, 2)), np.zeros((2, 3))))
        for s in t:
            assert np.max(np.abs(s.a)) == 0 and np.max(np.abs(s.b)) == 0

    def test_branch_cut_in_a_factored_copy(self):
        # map_m factors copies 1..d-1 only: the last copy may lie on the cut
        t = sampling.sample_tuple(2, 0, 3, 2, 0.3)
        p = map_m(_with_copy(t, 1, CUT))
        np.testing.assert_allclose(p.A[:, 1], g_pm(t[0]).hplus @ CUT.a, rtol=0, atol=1e-15)
        with pytest.raises(BranchCut) as exc:
            map_m(_with_copy(t, 0, CUT))
        assert exc.value.index == 1


class TestMapF:
    def test_zero_tuple(self):
        p = map_F(SpinTuple(SpinPoint(z, z) for z in np.zeros((3, 2))))
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
        t = map_F_inverse(SPoint(np.zeros((3, 2)), np.zeros((2, 3))))
        for s in t:
            assert np.max(np.abs(s.a)) == 0 and np.max(np.abs(s.b)) == 0

    def test_branch_cut(self):
        # map_F factors every copy
        t = sampling.sample_tuple(4, 0, 3, 2, 0.3)
        for al in range(t.d):
            with pytest.raises(BranchCut) as exc:
                map_F(_with_copy(t, al, CUT))
            assert exc.value.index == 1

    def test_roundtrip_off_the_principal_branch(self):
        # decouple-F's sample 0 at n = 2, d = 1, radius 1.5 and seed 42: the local
        # inverse takes principal roots of G_j/G_{j+1}, so where a ratio of the
        # roots has a negative real part it recovers another tuple
        t = sampling.sample_tuple(42, 0, 2, 1, 1.5)
        assert np.min(_root_ratios(t[0]).real) < -1.3
        back = map_F_inverse(map_F(t))
        assert np.max(np.abs(charts.pack_tuple(back) - charts.pack_tuple(t))) > 1.0

    def test_roundtrip_near_the_cut(self):
        # the same run's sample 9: a G_j within 0.18 of the cut's angle, and
        # every ratio with a positive real part
        t = sampling.sample_tuple(42, 9, 2, 1, 1.5)
        assert np.max(np.abs(np.angle(g_functions(t[0])))) > 2.96
        assert np.min(_root_ratios(t[0]).real) > 0.05
        _tuple_close(t, map_F_inverse(map_F(t)), tol=1e-14)


class TestMapNu:
    def test_zero(self):
        q = map_nu(SPoint(np.zeros((2, 3)), np.zeros((3, 2))))
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
        p = SPoint(np.zeros((2, 2)), np.zeros((2, 2)))
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
            map_theta(SPoint(np.zeros((1, 1)), np.zeros((1, 1))), 1.0, 1.0, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn", [map_xi, map_theta])
@pytest.mark.parametrize(
    "fa,fb",
    [(1.0, NAN), (NAN, -1.0), (complex(NAN, 0.0), 1.0), (INF, 0.0), (INF, -1.0), (complex(0.0, INF), 1.0)],
    ids=["nan-b", "nan-a", "complex-nan", "inf-times-zero", "inf", "complex-inf"],
)
def test_non_finite_factors_violate_the_constraint(fn, fa, fb):
    with pytest.raises(ConstraintViolated):
        fn(SPoint(np.zeros((2, 2)), np.zeros((2, 2))), fa, fb, 1.0)


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
