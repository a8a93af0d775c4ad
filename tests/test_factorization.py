"""Tests for the triangular factorizations and the spin closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plie import decoupling as dc, sampling
from plie.errors import BranchCut, SingularMinor, ZeroG
from plie.factorization import (
    calG_pm,
    chi,
    chi_inverse_local,
    g_functions,
    g_pm,
    gamma,
    gauss,
)
from plie.points import DualPair, SpinPoint, SpinTuple

small_complex = st.complex_numbers(max_magnitude=0.35, allow_nan=False, allow_infinity=False)


class TestGauss:
    def test_identity(self):
        gt, g0, lt = gauss(np.eye(3))
        np.testing.assert_array_equal(gt, np.eye(3))
        np.testing.assert_array_equal(g0, np.eye(3))
        np.testing.assert_array_equal(lt, np.eye(3))

    def test_2x2_values(self):
        """Elimination from the bottom-right: pivots are trailing-minor ratios."""
        gt, g0, lt = gauss(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(gt, [[1.0, 0.5], [0.0, 1.0]])
        np.testing.assert_allclose(g0, np.diag([-0.5, 4.0]))
        np.testing.assert_allclose(lt, [[1.0, 0.0], [0.75, 1.0]])

    def test_singular_trailing_minor(self):
        with pytest.raises(SingularMinor) as exc:
            gauss(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert exc.value.index == 1

    def test_singular_matrix(self):
        with pytest.raises(SingularMinor):
            gauss(np.zeros((2, 2)))

    def test_non_square(self):
        with pytest.raises(ValueError):
            gauss(np.ones((2, 3)))

    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    def test_reassembly_and_shapes(self, ell):
        h = np.eye(ell) + sampling.draw_disks(2, ell, [((ell, ell), 0.4)])[0]
        gt, g0, lt = gauss(h)
        np.testing.assert_allclose(gt @ g0 @ lt, h, atol=1e-13)
        assert np.all(np.tril(gt, -1) == 0) and np.all(np.diag(gt) == 1)
        assert np.all(g0 == np.diag(np.diag(g0)))
        assert np.all(np.triu(lt, 1) == 0) and np.all(np.diag(lt) == 1)


class TestChi:
    def test_identity(self):
        np.testing.assert_array_equal(chi(DualPair(np.eye(3), np.eye(3))), np.eye(3))

    def test_scalar(self):
        pair = DualPair([[np.sqrt(2.0)]], [[1.0 / np.sqrt(2.0)]])
        np.testing.assert_allclose(chi(pair), [[2.0]])

    def test_sign_flip_invariance(self):
        pair = sampling.sample_dual(4, 0, 3, 0.4)
        tau = np.diag([1.0, -1.0, -1.0])
        flipped = DualPair(pair.hplus @ tau, pair.hminus @ tau)
        np.testing.assert_allclose(chi(flipped), chi(pair), atol=1e-14)


class TestChiInverseLocal:
    def test_identity(self):
        pair = chi_inverse_local(np.eye(4))
        np.testing.assert_array_equal(pair.hplus, np.eye(4))
        np.testing.assert_array_equal(pair.hminus, np.eye(4))

    def test_matches_g_pm_on_rank_one_update(self):
        s = sampling.sample_spin(6, 0, 4, 0.3)
        h = np.eye(4) + np.outer(s.a, s.b)
        pair = chi_inverse_local(h)
        closed = g_pm(s)
        np.testing.assert_allclose(pair.hplus, closed.hplus, atol=1e-12)
        np.testing.assert_allclose(pair.hminus, closed.hminus, atol=1e-12)

    @pytest.mark.parametrize("index", range(100))
    def test_roundtrip_near_identity(self, index):
        h = np.eye(3) + sampling.draw_disks(8, index, [((3, 3), 0.3)])[0]
        assert np.max(np.abs(chi(chi_inverse_local(h)) - h)) < 1e-10

    def test_branch_cut(self):
        with pytest.raises(BranchCut):
            chi_inverse_local(np.diag([-1.0, 1.0]))


class TestGFunctions:
    def test_zero_point(self):
        np.testing.assert_array_equal(g_functions(SpinPoint(np.zeros(3), np.zeros(3))), np.ones(5))

    def test_scalar(self):
        np.testing.assert_array_equal(g_functions(SpinPoint([1.0], [1.0])), [1.0, 2.0, 1.0])

    @given(
        a=st.lists(small_complex, min_size=4, max_size=4),
        b=st.lists(small_complex, min_size=4, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_telescoping(self, a, b):
        p = SpinPoint(a, b)
        G = g_functions(p)
        assert G[0] == 1.0 and G[-1] == 1.0
        for j in range(1, p.n + 1):
            assert abs((G[j] - G[j + 1]) - p.a[j - 1] * p.b[j - 1]) < 1e-14


class TestGPm:
    def test_zero_point(self):
        pair = g_pm(SpinPoint(np.zeros(3), np.zeros(3)))
        np.testing.assert_array_equal(pair.hplus, np.eye(3))
        np.testing.assert_array_equal(pair.hminus, np.eye(3))

    def test_scalar(self):
        pair = g_pm(SpinPoint([1.0], [1.0]))
        np.testing.assert_allclose(pair.hplus, [[np.sqrt(2.0)]])
        np.testing.assert_allclose(pair.hminus, [[1.0 / np.sqrt(2.0)]])
        np.testing.assert_allclose(chi(pair), [[2.0]])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_factorization_identity(self, n, index):
        s = sampling.sample_spin(12, index, n, 0.3)
        pair = g_pm(s)
        res = np.max(np.abs(np.eye(n) + np.outer(s.a, s.b) - chi(pair)))
        assert res < 1e-12

    def test_zero_g_raises(self):
        with pytest.raises(ZeroG) as exc:
            g_pm(SpinPoint([0.5, 1.0], [0.1, -1.0]))
        assert exc.value.index == 2


class TestGamma:
    def test_zero_point(self):
        from plie.points import SPoint

        np.testing.assert_array_equal(gamma(SPoint(np.zeros((3, 2)), np.zeros((2, 3)))), np.eye(3))

    def test_rank_one_case(self):
        s = sampling.sample_spin(14, 0, 3, 0.3)
        np.testing.assert_allclose(
            gamma(s.as_spoint()), np.eye(3) + np.outer(s.a, s.b), atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_determinant_and_pivots(self, n):
        """For d = 1: det(1 + ab) = G_1 and the Gauss pivots are G_j/G_{j+1}."""
        s = sampling.sample_spin(15, n, n, 0.3)
        G = g_functions(s)
        h = gamma(s.as_spoint())
        assert abs(np.linalg.det(h) - G[1]) < 1e-12
        _, g0, _ = gauss(h)
        np.testing.assert_allclose(np.diag(g0), G[1 : n + 1] / G[2 : n + 2], atol=1e-12)


class TestGammaPm:
    def test_zero_point(self):
        from plie.points import SPoint

        pair = chi_inverse_local(gamma(SPoint(np.zeros((2, 3)), np.zeros((3, 2)))))
        np.testing.assert_array_equal(pair.hplus, np.eye(2))
        np.testing.assert_array_equal(pair.hminus, np.eye(2))

    def test_d1_equals_g_pm(self):
        s = sampling.sample_spin(16, 0, 4, 0.3)
        pair = chi_inverse_local(gamma(s.as_spoint()))
        closed = g_pm(s)
        np.testing.assert_allclose(pair.hplus, closed.hplus, atol=1e-12)
        np.testing.assert_allclose(pair.hminus, closed.hminus, atol=1e-12)

    def test_chi_roundtrip(self):
        p = sampling.sample_spoint(17, 0, 3, 2, 0.3)
        assert np.max(np.abs(chi(chi_inverse_local(gamma(p))) - gamma(p))) < 1e-10


class TestCalGPm:
    def test_single_copy(self):
        s = sampling.sample_spin(18, 0, 3, 0.3)
        pair = calG_pm(SpinTuple([s]))
        closed = g_pm(s)
        np.testing.assert_array_equal(pair.hplus, closed.hplus)
        np.testing.assert_array_equal(pair.hminus, closed.hminus)

    def test_zero_tuple(self):
        pair = calG_pm(SpinTuple(SpinPoint(z, z) for z in np.zeros((4, 3))))
        np.testing.assert_array_equal(pair.hplus, np.eye(3))
        np.testing.assert_array_equal(pair.hminus, np.eye(3))

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (5, 4)])
    def test_product_factorization_identity(self, n, d):
        t = sampling.sample_tuple(19, n * 10 + d, n, d, 0.3)
        res = np.max(np.abs(gamma(dc.map_m(t)) - chi(calG_pm(t))))
        assert res < 1e-11


class TestDualPairValidation:
    def test_rejects_non_triangular(self):
        with pytest.raises(ValueError):
            DualPair(np.ones((2, 2)), np.eye(2))

    def test_rejects_non_reciprocal_diagonals(self):
        with pytest.raises(ValueError):
            DualPair(np.diag([2.0, 2.0]), np.diag([0.5, 0.4]))
