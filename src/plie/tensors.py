"""Dense complex matrices, 4-leg tensors and the constant structure tensors.

A :class:`Tensor4` stores a quantity ``T`` with two matrix legs: the entry
``T[i, j, k, l]`` pairs the leg-1 index pair ``(i, j)`` with the leg-2 index
pair ``(k, l)``.  Products of the form ``M_1 T``, ``T M_1``, ``M_2 T`` and
``T M_2`` (matrix acting on one leg only) are the workhorses used to spell
out tensor-notation bracket identities.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor4",
    "elementary",
    "dj_r",
    "r_pm",
    "casimir",
    "c12",
    "eta",
]


class Tensor4:
    """A 4-index complex tensor with dims ``(p, q, r, s)``.

    Leg 1 carries the index pair ``(p, q)`` and leg 2 the pair ``(r, s)``.
    The array may carry leading batch axes, ``(..., p, q, r, s)``: a stack
    of tensors.  The leg products broadcast batch axes between the tensor
    and the matrix, so a constant tensor times a stack of matrices is a
    stack of tensors.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        a = np.asarray(array, dtype=complex)
        if a.ndim < 4:
            raise ValueError("Tensor4 requires a 4-index array")
        self.array = a

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.array.shape[-4:]

    def flatten(self) -> np.ndarray:
        """Flatten to a (p*r) x (q*s) matrix, leg-1 index major."""
        p, q, r, s = self.dims
        return self.array.swapaxes(-3, -2).reshape(self.array.shape[:-4] + (p * r, q * s))

    @classmethod
    def unflatten(cls, mat: np.ndarray, dims: tuple[int, int, int, int]) -> "Tensor4":
        p, q, r, s = dims
        mat = np.asarray(mat, dtype=complex)
        return cls(mat.reshape(mat.shape[:-2] + (p, r, q, s)).swapaxes(-3, -2))

    def swap_legs(self) -> "Tensor4":
        """Exchange leg 1 and leg 2."""
        return Tensor4(self.array.swapaxes(-4, -2).swapaxes(-3, -1))

    # matrix-on-one-leg products -------------------------------------------

    def lmul1(self, m) -> "Tensor4":
        """Left-multiply leg 1: (M T)[i,j,k,l] = sum_a M[i,a] T[a,j,k,l]."""
        return Tensor4(np.einsum("...ia,...ajkl->...ijkl", np.asarray(m, dtype=complex), self.array))

    def rmul1(self, m) -> "Tensor4":
        """Right-multiply leg 1: (T M)[i,j,k,l] = sum_a T[i,a,k,l] M[a,j]."""
        return Tensor4(np.einsum("...iakl,...aj->...ijkl", self.array, np.asarray(m, dtype=complex)))

    def lmul2(self, m) -> "Tensor4":
        """Left-multiply leg 2: (M T)[i,j,k,l] = sum_a M[k,a] T[i,j,a,l]."""
        return Tensor4(np.einsum("...ka,...ijal->...ijkl", np.asarray(m, dtype=complex), self.array))

    def rmul2(self, m) -> "Tensor4":
        """Right-multiply leg 2: (T M)[i,j,k,l] = sum_a T[i,j,k,a] M[a,l]."""
        return Tensor4(np.einsum("...ijka,...al->...ijkl", self.array, np.asarray(m, dtype=complex)))

    def __add__(self, other: "Tensor4") -> "Tensor4":
        return Tensor4(self.array + other.array)

    def __sub__(self, other: "Tensor4") -> "Tensor4":
        return Tensor4(self.array - other.array)

    def __mul__(self, scalar) -> "Tensor4":
        return Tensor4(self.array * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor4":
        return Tensor4(-self.array)


def elementary(ell: int, j: int, k: int) -> np.ndarray:
    """Elementary ell x ell matrix E_{jk} with 1-based indices."""
    if ell < 1:
        raise ValueError("size must be >= 1")
    if not (1 <= j <= ell and 1 <= k <= ell):
        raise IndexError(f"indices ({j},{k}) out of range for size {ell}")
    m = np.zeros((ell, ell), dtype=complex)
    m[j - 1, k - 1] = 1.0
    return m


def _flip(p: int, q: int) -> np.ndarray:
    """The integer (p, q, q, p) array delta_ad delta_bc: entry [a, b, b, a] = 1.

    Integer, so that a signed weight leaves +0.0, not -0.0, off the support."""
    return np.einsum("ad,bc->abcd", np.eye(p, dtype=int), np.eye(q, dtype=int))


def dj_r(ell: int) -> Tensor4:
    """Drinfeld-Jimbo r-matrix: (1/2) sum_{j<k} E_jk wedge E_kj.

    Entry [a,b,c,d] = (1/2) sgn(b-a) delta_{ad} delta_{bc}; exact halves.
    """
    if ell < 1:
        raise ValueError("size must be >= 1")
    i = np.arange(ell)
    sgn = np.sign(i[None, :] - i[:, None])  # sgn(b - a) at [a, b]
    return Tensor4(0.5 * (sgn[:, :, None, None] * _flip(ell, ell)))


def casimir(ell: int) -> Tensor4:
    """The flip tensor I^ell = sum_{j,k} E_jk (x) E_kj."""
    if ell < 1:
        raise ValueError("size must be >= 1")
    return Tensor4(_flip(ell, ell))


def r_pm(ell: int, sign: int) -> Tensor4:
    """r^ell +/- (1/2) I^ell for sign = +1 / -1."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return dj_r(ell) + (0.5 * sign) * casimir(ell)


def c12(n: int, d: int) -> Tensor4:
    """The rectangular pairing tensor with entry[i,a,a,i] = 1; dims (n,d,d,n)."""
    if n < 1 or d < 1:
        raise ValueError("sizes must be >= 1")
    return Tensor4(_flip(n, d))


def eta(ell: int) -> np.ndarray:
    """Anti-diagonal involution sum_i E_{i, ell+1-i}."""
    if ell < 1:
        raise ValueError("size must be >= 1")
    return np.fliplr(np.eye(ell, dtype=complex))
