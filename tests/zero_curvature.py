"""Lax-pair generators and the zero-curvature residual that only the tests call.

U generates the x-flow, V = alpha T2 + beta T3 the time flow (second plus
third order).  U_t - V_x + [U, V] = 0 independently checks the sign
conventions of V and the cubic term that `pde_residual` uses.
"""

import numpy as np

from hirota_ist.matrices import SIGMA3, I4, embed
from hirota_ist.spectral import Background, SpectralPoint, uniformize
from hirota_ist.verification import Field


def assemble_U(Q: np.ndarray, sp: SpectralPoint, bg: Background) -> np.ndarray:
    """x-flow generator -i k sigma3 + Qe for a (..., 2, 2) stack of potentials."""
    return -1j * sp.k * SIGMA3 + embed(Q, bg.sigma)


def assemble_V(
    Q: np.ndarray, Qx: np.ndarray, Qxx: np.ndarray, sp: SpectralPoint, bg: Background
) -> np.ndarray:
    """Time-flow generator alpha T2 + beta T3 for (..., 2, 2) stacks of Q, Q_x, Q_xx.

    T2 = 2kU + i sigma3 (Qe_x - Qe^2 + sigma k0^2 I) and
    T3 = 2k (T2 - i sigma k0^2 sigma3) - [Qe, Qe_x] + 2 Qe^3 - Qe_xx,
    with Qe the embedded potential.
    """
    Qe = embed(Q, bg.sigma)
    Qex = embed(Qx, bg.sigma)
    Qexx = embed(Qxx, bg.sigma)
    k, k0, sg = sp.k, bg.k0, bg.sigma
    U = -1j * k * SIGMA3 + Qe
    T2 = 2.0 * k * U + 1j * SIGMA3 @ (Qex - Qe @ Qe + sg * k0**2 * I4)
    T3 = 2.0 * k * (T2 - 1j * sg * k0**2 * SIGMA3) - (Qe @ Qex - Qex @ Qe) + 2.0 * Qe @ Qe @ Qe - Qexx
    return bg.alpha * T2 + bg.beta * T3


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
    U = assemble_U(Q[[2, 5, 6]], sp, bg)  # at (x0, t0), (x0, t0 - h), (x0, t0 + h)
    Qx = (Q[2:5] - Q[0:3]) / (2.0 * h)  # at x0 - h, x0, x0 + h
    Qxx = (Q[2:5] - 2.0 * Q[1:4] + Q[0:3]) / h**2
    V = assemble_V(Q[1:4], Qx, Qxx, sp, bg)
    Ut = (U[2] - U[1]) / (2.0 * h)
    Vx = (V[2] - V[0]) / (2.0 * h)
    R = Ut - Vx + U[0] @ V[1] - V[1] @ U[0]
    return float(np.max(np.abs(R)))
