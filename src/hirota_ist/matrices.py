"""Small complex-matrix helpers: 2x2 closed forms and 4x4 block layout.

The 2x2 determinant and inverse are closed forms; 4x4 determinants and
solves go through numpy.linalg.  SIGMA3 and SIGMA2 are the block Pauli
matrices of the 4x4 linear problem.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

CMat2 = np.ndarray  # shape (2, 2) complex
CMat4 = np.ndarray  # shape (4, 4) complex

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def _singularity_threshold(M: np.ndarray) -> float:
    # Scale-covariant: the adjugate formula degrades only at true rank loss.
    m = float(np.max(np.abs(M))) if M.size else 0.0
    return 1e-300 * max(1.0, m * m)


def det2(M: CMat2) -> complex:
    return complex(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])


def inv2(M: CMat2) -> CMat2:
    d = det2(M)
    if abs(d) <= _singularity_threshold(M):
        raise SingularMatrix(f"2x2 determinant {d} below threshold")
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=complex) / d


def dagger(M: np.ndarray) -> np.ndarray:
    """Hermitian conjugate: conjugate transpose of the last two axes."""
    return np.swapaxes(M.conj(), -1, -2)


def from_blocks(ul: CMat2, ur: CMat2, dl: CMat2, dr: CMat2) -> CMat4:
    M = np.empty((4, 4), dtype=complex)
    M[:2, :2], M[:2, 2:], M[2:, :2], M[2:, 2:] = ul, ur, dl, dr
    return M


_Z2 = np.zeros((2, 2), dtype=complex)
SIGMA3 = from_blocks(I2, _Z2, _Z2, -I2)
SIGMA2 = from_blocks(_Z2, 1j * I2, -1j * I2, _Z2)
