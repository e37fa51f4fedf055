"""Small complex-matrix helpers: 2x2 closed forms and 4x4 block layout.

The 2x2 determinant and inverse are closed forms, on one matrix or a
(..., 2, 2) stack; 4x4 determinants and solves go through numpy.linalg.
SIGMA3 and SIGMA2 are the block Pauli matrices of the 4x4 linear problem.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

CMat2 = np.ndarray  # shape (2, 2) complex
CMat4 = np.ndarray  # shape (4, 4) complex

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def det2(M: np.ndarray):
    """Determinant of a 2x2 matrix (an np.complex128, which is a complex) or of each matrix of a (..., 2, 2) stack."""
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def inv2(M: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix or of each matrix of a (..., 2, 2) stack; SingularMatrix if any is singular."""
    d, m = np.asarray(det2(M)), np.abs(M).max(axis=(-2, -1))
    bad = np.abs(d) <= 1e-300 * np.maximum(1.0, m * m)  # scale-covariant: the adjugate degrades only at rank loss
    if bad.any():
        raise SingularMatrix(f"2x2 determinant {d[bad].flat[0]} below threshold")
    adj = np.stack([M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0]], axis=-1).reshape(M.shape)
    return adj / d[..., None, None]


def dagger(M: np.ndarray) -> np.ndarray:
    """Hermitian conjugate: conjugate transpose of the last two axes."""
    return np.swapaxes(M.conj(), -1, -2)


def embed(Q: np.ndarray, sigma: int) -> np.ndarray:
    """Off-diagonal block embedding of a (..., 2, 2) stack, (..., 4, 4): Q up-right, sigma Q^dag down-left."""
    Q = np.asarray(Q, dtype=complex)
    E = np.zeros(Q.shape[:-2] + (4, 4), dtype=complex)
    E[..., :2, 2:], E[..., 2:, :2] = Q, sigma * dagger(Q)
    return E


def from_blocks(ul: CMat2, ur: CMat2, dl: CMat2, dr: CMat2) -> CMat4:
    M = np.empty((4, 4), dtype=complex)
    M[:2, :2], M[:2, 2:], M[2:, :2], M[2:, 2:] = ul, ur, dl, dr
    return M


_Z2 = np.zeros((2, 2), dtype=complex)
SIGMA3 = from_blocks(I2, _Z2, _Z2, -I2)
SIGMA2 = from_blocks(_Z2, 1j * I2, -1j * I2, _Z2)
