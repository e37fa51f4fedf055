"""Assembly of the 4x4 linear-problem generators and their background data.

U generates the x-flow, V = alpha T2 + beta T3 the time flow (second plus
third order).  The asymptotic eigenvector matrices X(z) diagonalize the
constant-background generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BranchPointSingular, MissingDerivatives
from .matrices import SIGMA3, CMat2, CMat4, I4, dagger, from_blocks
from .spectral import Background, SpectralPoint

_Z2 = np.zeros((2, 2), dtype=complex)


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


def embed(Q: CMat2, sigma: int) -> CMat4:
    """Off-diagonal block embedding with blocks Q (up-right) and sigma Q^dag."""
    return from_blocks(_Z2, np.asarray(Q, dtype=complex), sigma * dagger(Q), _Z2)


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
    field: Callable[[float, float], CMat2],
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
    from .spectral import uniformize

    sp = uniformize(z, bg)
    x0, t0 = at

    def U_at(x, t):
        return assemble_U(PotentialSample(field(x, t), physical=False), sp, bg)

    def V_at(x, t):
        Q = field(x, t)
        Qx = (field(x + h, t) - field(x - h, t)) / (2.0 * h)
        Qxx = (field(x + h, t) - 2.0 * Q + field(x - h, t)) / h**2
        return assemble_V(PotentialSample(Q, Qx, Qxx, physical=False), sp, bg)

    Ut = (U_at(x0, t0 + h) - U_at(x0, t0 - h)) / (2.0 * h)
    Vx = (V_at(x0 + h, t0) - V_at(x0 - h, t0)) / (2.0 * h)
    U = U_at(x0, t0)
    V = V_at(x0, t0)
    R = Ut - Vx + U @ V - V @ U
    return float(np.max(np.abs(R)))
