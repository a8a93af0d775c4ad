"""Tests for the constant structure tensors and the 4-leg tensor container."""

import numpy as np
import pytest

from plie.tensors import Tensor4, c12, casimir, dj_r, elementary, eta, r_pm


class TestElementary:
    def test_2_1_2(self):
        np.testing.assert_array_equal(elementary(2, 1, 2), [[0, 1], [0, 0]])

    def test_1_1_1(self):
        np.testing.assert_array_equal(elementary(1, 1, 1), [[1]])

    def test_diagonal_units_sum_to_identity(self):
        total = sum(elementary(3, j, j) for j in range(1, 4))
        np.testing.assert_array_equal(total, np.eye(3))

    @pytest.mark.parametrize("j,k", [(0, 1), (1, 3), (3, 1)])
    def test_out_of_range(self, j, k):
        with pytest.raises(IndexError):
            elementary(2, j, k)


class TestDjR:
    def test_ell_2_entries(self):
        t = dj_r(2).array
        expected = np.zeros((2, 2, 2, 2), dtype=complex)
        expected[0, 1, 1, 0] = 0.5
        expected[1, 0, 0, 1] = -0.5
        np.testing.assert_array_equal(t, expected)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_leg_swap_negates(self, ell):
        r = dj_r(ell)
        np.testing.assert_array_equal(r.swap_legs().array, -r.array)


class TestRpm:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_difference_is_flip(self, ell):
        diff = r_pm(ell, +1) - r_pm(ell, -1)
        np.testing.assert_array_equal(diff.array, casimir(ell).array)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_sum_is_twice_r(self, ell):
        s = r_pm(ell, +1) + r_pm(ell, -1)
        np.testing.assert_array_equal(s.array, 2.0 * dj_r(ell).array)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            r_pm(2, 0)


class TestCasimir:
    def test_flips_basis_vector(self):
        # flatten() pairs leg-1 row with leg-2 row: acting on e1 (x) e2 gives e2 (x) e1
        P = casimir(2).flatten()
        e12 = np.kron([1, 0], [0, 1])
        e21 = np.kron([0, 1], [1, 0])
        np.testing.assert_array_equal(P @ e12, e21)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_involution(self, ell):
        P = casimir(ell).flatten()
        np.testing.assert_allclose(P @ P, np.eye(ell * ell))


class TestC12:
    def test_1_1(self):
        np.testing.assert_array_equal(c12(1, 1).array, np.ones((1, 1, 1, 1)))

    def test_entries(self):
        t = c12(3, 2).array
        for i in range(3):
            for a in range(2):
                for b in range(2):
                    for k in range(3):
                        expected = 1.0 if (a == b and i == k) else 0.0
                        assert t[i, a, b, k] == expected


class TestEta:
    def test_ell_2(self):
        np.testing.assert_array_equal(eta(2), [[0, 1], [1, 0]])

    def test_ell_1(self):
        np.testing.assert_array_equal(eta(1), [[1]])

    @pytest.mark.parametrize("ell", [1, 2, 5])
    def test_involution(self, ell):
        np.testing.assert_array_equal(eta(ell) @ eta(ell), np.eye(ell))


class TestTensor4:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.t = Tensor4(rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5)))
        self.rng = rng

    def test_flatten_roundtrip(self):
        m = self.t.flatten()
        assert m.shape == (2 * 4, 3 * 5)
        p, q, r, s = self.t.dims
        back = m.reshape(p, r, q, s).swapaxes(1, 2)
        np.testing.assert_array_equal(back, self.t.array)

    def test_leg_products(self):
        m1 = self.rng.standard_normal((2, 2)) + 0j
        m2 = self.rng.standard_normal((4, 4)) + 0j
        np.testing.assert_allclose(
            self.t.lmul1(m1).array, np.einsum("ia,ajkl->ijkl", m1, self.t.array)
        )
        np.testing.assert_allclose(
            self.t.lmul2(m2).array, np.einsum("ka,ijal->ijkl", m2, self.t.array)
        )
        m1r = self.rng.standard_normal((3, 3)) + 0j
        m2r = self.rng.standard_normal((5, 5)) + 0j
        np.testing.assert_allclose(
            self.t.rmul1(m1r).array, np.einsum("iakl,aj->ijkl", self.t.array, m1r)
        )
        np.testing.assert_allclose(
            self.t.rmul2(m2r).array, np.einsum("ijka,al->ijkl", self.t.array, m2r)
        )

    def test_arithmetic(self):
        s = self.t + self.t - self.t
        np.testing.assert_array_equal(s.array, self.t.array)
        np.testing.assert_array_equal((2.0 * self.t).array, 2.0 * self.t.array)
        np.testing.assert_array_equal((-self.t).array, -self.t.array)

    def test_requires_four_indices(self):
        with pytest.raises(ValueError):
            Tensor4(np.zeros((2, 2, 2)))
