"""The 4x4 embedding of the potential and the background eigenvectors.

The x-flow generator is U = -i k sigma3 + Qe, Qe the embedded potential.
The asymptotic eigenvector matrices X(z) diagonalize it on the constant
background.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchPointSingular
from .matrices import SIGMA3, CMat2, CMat4, I4, dagger
from .spectral import Background, SpectralPoint


def embed(Q: np.ndarray, sigma: int) -> np.ndarray:
    """Off-diagonal block embedding with blocks Q (up-right) and sigma Q^dag.

    Maps a (..., 2, 2) stack to (..., 4, 4).
    """
    Q = np.asarray(Q, dtype=complex)
    E = np.zeros(Q.shape[:-2] + (4, 4), dtype=complex)
    E[..., :2, 2:] = Q
    E[..., 2:, :2] = sigma * dagger(Q)
    return E


def asymptotic_eigenvectors(sp: SpectralPoint, Qpm: CMat2, bg: Background) -> CMat4:
    """Background eigenvector matrix X = I - (i/z) sigma3 Qe_pm.

    X satisfies U_pm X = -i lambda X sigma3 and det X = gamma^2, so it is
    invertible away from the branch points, which are rejected.
    """
    if abs(sp.gamma) < bg.delta_reg:
        raise BranchPointSingular(f"gamma(z) = {sp.gamma} too small at z = {sp.z}")
    return I4 - (1j / sp.z) * SIGMA3 @ embed(Qpm, bg.sigma)

