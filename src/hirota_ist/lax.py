"""Assembly of the 4x4 linear-problem generators and their background data.

U generates the x-flow, V = alpha T2 + beta T3 the time flow (second plus
third order).  The asymptotic eigenvector matrices X(z) diagonalize the
constant-background generator.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import BranchPointSingular, MissingDerivatives
from .matrices import SIGMA3, CMat2, CMat4, I4, dagger
from .spectral import Background, SpectralPoint, uniformize
from .verification import Field


@dataclass(frozen=True)
class PotentialSample:
    """Pointwise potential value with optional x-derivatives.

    Physical samples must be symmetric; set physical=False to bypass the
    check for synthetic test inputs.
    """

    Q: CMat2
    Qx: CMat2 | None = None
    Qxx: CMat2 | None = None
    physical: bool = True

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=complex))
        if self.Qx is not None:
            object.__setattr__(self, "Qx", np.asarray(self.Qx, dtype=complex))
        if self.Qxx is not None:
            object.__setattr__(self, "Qxx", np.asarray(self.Qxx, dtype=complex))
        if self.physical and np.max(np.abs(self.Q - self.Q.T)) > 1e-10 * max(1.0, np.max(np.abs(self.Q))):
            raise ValueError("physical potential sample must be symmetric")


def embed(Q: np.ndarray, sigma: int) -> np.ndarray:
    """Off-diagonal block embedding with blocks Q (up-right) and sigma Q^dag.

    Maps a (..., 2, 2) stack to (..., 4, 4).
    """
    Q = np.asarray(Q, dtype=complex)
    E = np.zeros(Q.shape[:-2] + (4, 4), dtype=complex)
    E[..., :2, 2:] = Q
    E[..., 2:, :2] = sigma * dagger(Q)
    return E


def assemble_U(p: PotentialSample, sp: SpectralPoint, bg: Background) -> CMat4:
    return -1j * sp.k * SIGMA3 + embed(p.Q, bg.sigma)


def assemble_V(p: PotentialSample, sp: SpectralPoint, bg: Background) -> CMat4:
    """Time-flow generator alpha T2 + beta T3.

    T2 = 2kU + i sigma3 (Qe_x - Qe^2 + sigma k0^2 I) and
    T3 = 2k (T2 - i sigma k0^2 sigma3) - [Qe, Qe_x] + 2 Qe^3 - Qe_xx,
    with Qe the embedded potential.
    """
    if p.Qx is None or p.Qxx is None:
        raise MissingDerivatives("assemble_V needs Qx and Qxx")
    Qe = embed(p.Q, bg.sigma)
    Qex = embed(p.Qx, bg.sigma)
    Qexx = embed(p.Qxx, bg.sigma)
    k, k0, sg = sp.k, bg.k0, bg.sigma
    U = -1j * k * SIGMA3 + Qe
    T2 = 2.0 * k * U + 1j * SIGMA3 @ (Qex - Qe @ Qe + sg * k0**2 * I4)
    T3 = 2.0 * k * (T2 - 1j * sg * k0**2 * SIGMA3) - (Qe @ Qex - Qex @ Qe) + 2.0 * Qe @ Qe @ Qe - Qexx
    return bg.alpha * T2 + bg.beta * T3


def asymptotic_eigenvectors(sp: SpectralPoint, Qpm: CMat2, bg: Background) -> tuple[CMat4, CMat4]:
    """Background eigenvector matrix X and its closed-form inverse.

    X = I - (i/z) sigma3 Qe_pm satisfies U_pm X = -i lambda X sigma3 and
    det X = gamma^2; the inverse exists away from the branch points.
    """
    if abs(sp.gamma) < bg.delta_reg:
        raise BranchPointSingular(f"gamma(z) = {sp.gamma} too small at z = {sp.z}")
    Qe = embed(Qpm, bg.sigma)
    X = I4 - (1j / sp.z) * SIGMA3 @ Qe
    Xinv = (I4 + (1j / sp.z) * SIGMA3 @ Qe) / sp.gamma
    return X, Xinv


def zero_curvature_residual(
    field: Field,
    z: complex,
    at: tuple[float, float],
    h: float,
    bg: Background,
) -> float:
    """Max-norm of U_t - V_x + [U, V] with 2nd-order central differences.

    Vanishes (to O(h^2)) exactly when the field solves the evolution
    equation, so this is an independent consistency check on both the sign
    conventions of V and on any constructed solution.
    """
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")
    sp = uniformize(z, bg)
    x0, t0 = at
    # x0 - 2h ... x0 + 2h at t0 (indices 0-4), then x0 at t0 - h and t0 + h
    m = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 0.0, 0.0])
    n = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0])
    Q = np.asarray(field(x0 + h * m, t0 + h * n), dtype=complex)

    def U_at(i):
        return assemble_U(PotentialSample(Q[i], physical=False), sp, bg)

    def V_at(i):
        Qx = (Q[i + 1] - Q[i - 1]) / (2.0 * h)
        Qxx = (Q[i + 1] - 2.0 * Q[i] + Q[i - 1]) / h**2
        return assemble_V(PotentialSample(Q[i], Qx, Qxx, physical=False), sp, bg)

    Ut = (U_at(6) - U_at(5)) / (2.0 * h)
    Vx = (V_at(3) - V_at(1)) / (2.0 * h)
    U, V = U_at(2), V_at(2)
    R = Ut - Vx + U @ V - V @ U
    return float(np.max(np.abs(R)))
