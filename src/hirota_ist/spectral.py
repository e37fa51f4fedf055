"""Uniformized spectral plane: z <-> (k, lambda), regions, phase and background eigenvectors.

Everything lives on the z-plane through the rational maps
k = (z + sigma k0^2/z)/2 and lambda = (z - sigma k0^2/z)/2, so no square
roots (and hence no sheet or branch-cut bookkeeping) appear anywhere.
z, k and lambda are in units of k0, the only scale; regions are read on z/k0,
once a z, by uniformize: every later decision on z reads that Region, and a
z that is not finite or is 0 is refused here, wherever it enters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointSingular, ZeroArgument
from .matrices import SIGMA3, CMat2, I4, dagger, embed


class Region(enum.Enum):
    D_PLUS = "D+"
    D_MINUS = "D-"
    SIGMA = "Sigma"
    BRANCH_POINT = "branch"


_BG_TOL = 1e-12  # a background's defects: Q Q^dag - k0^2 I in units of k0^2, Q - Q^T in units of k0
DELTA = 1e-9  # Sigma's band and the branch points' discs in u = z/k0 (dimensionless)


def background_defect(Q: CMat2, k0: float) -> tuple[float, float]:
    """max |Q Q^dag - k0^2 I| and the bound 1e-12 k0^2 that a background Q must meet."""
    return float(np.max(np.abs(Q @ dagger(Q) - k0**2 * np.eye(2)))), _BG_TOL * k0**2


@dataclass(frozen=True)
class Background:
    """Problem constants and validated boundary matrices.

    sigma = +1 is defocusing, sigma = -1 focusing; k0 > 0 is the background
    amplitude; alpha and beta are the second- and third-order flow
    coefficients.  Qplus/Qminus must be symmetric with Q Q^dag = k0^2 I.
    The scattering layer does not read Qminus: it measures the field's left
    limit itself.
    """

    sigma: int
    k0: float
    alpha: float
    beta: float
    Qplus: CMat2
    Qminus: CMat2

    def __post_init__(self):
        if self.sigma not in (-1, 1):
            raise ValueError("sigma must be +1 or -1")
        if not (self.k0 > 0 and np.finfo(float).tiny <= self.k0 * self.k0 < np.inf):  # bounds scale with k0^2
            raise ValueError(f"k0 must be positive and finite, its square a normal float, not {self.k0}")
        for name in ("alpha", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        object.__setattr__(self, "Qplus", np.asarray(self.Qplus, dtype=complex))
        object.__setattr__(self, "Qminus", np.asarray(self.Qminus, dtype=complex))
        for name in ("Qplus", "Qminus"):
            Q = getattr(self, name)
            if Q.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
            dev, bound = background_defect(Q, self.k0)
            if dev > bound:
                raise ValueError(f"{name} violates Q Q^dag = k0^2 I")
            if np.max(np.abs(Q - Q.T)) > _BG_TOL * self.k0:
                raise ValueError(f"{name} must be symmetric")

    def branch_points(self) -> tuple[complex, complex]:
        if self.sigma == -1:
            return (1j * self.k0, -1j * self.k0)
        return (self.k0 + 0j, -self.k0 + 0j)


@dataclass(frozen=True)
class SpectralPoint:
    """z with k(z), lambda(z), gamma(z) and classify_region(z), each of z's shape: 0-d for a scalar z."""

    z: np.ndarray
    k: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    region: Region | np.ndarray


def _check_z(z, k0: float) -> np.ndarray:
    """z as a complex array of its own shape (0-d for a scalar); ValueError if a z is not finite, else ZeroArgument
    if a |z| < 1e-150 k0."""
    z = np.asarray(z, dtype=complex)
    if (bad := ~np.isfinite(z)).any():
        raise ValueError(f"z must be finite, not {complex(z[bad][0])}")
    if np.count_nonzero(np.abs(z) < 1e-150 * k0):
        raise ZeroArgument("spectral maps are singular at z = 0")
    return z


def classify_region(z, bg: Background) -> Region | np.ndarray:
    """The Region of a scalar z, or an object array of them of z's shape, on u = z/k0: a branch point within DELTA,
    then D+ or D- where s = (|u|^2 + sigma) Im u passes +-DELTA, else Sigma."""
    u = _check_z(z, bg.k0) / bg.k0
    near = np.min([np.abs(u - b / bg.k0) for b in bg.branch_points()], axis=0) <= DELTA
    s = (np.abs(u) ** 2 + bg.sigma) * u.imag
    return np.select([near, s > DELTA, s < -DELTA], [Region.BRANCH_POINT, Region.D_PLUS, Region.D_MINUS],
                     Region.SIGMA)[()]


def shift_sign(sp: SpectralPoint) -> np.ndarray:
    """eps of the Jost shift i lambda eps: +1 in D+, -1 in D-, where it picks the bounded column pair, and the sign
    of Re lambda on Sigma, where both pairs are bounded.  antipode(z) has -lambda, so it gets z's shift."""
    r = sp.region
    return np.select([r == Region.D_PLUS, r == Region.D_MINUS, sp.lam.real >= 0], [1.0, -1.0, 1.0], -1.0)


def antipode(z, bg: Background) -> np.ndarray:
    """sigma k0^2/z, of z's shape: the z-plane's second symmetry, which keeps k and negates lambda."""
    return bg.sigma * bg.k0**2 / _check_z(z, bg.k0)


def uniformize(z, bg: Background) -> SpectralPoint:
    """Attach k(z), lambda(z), gamma(z) and the Region of z, in numpy arithmetic for a scalar and an array alike."""
    z, w = np.asarray(z, dtype=complex), antipode(z, bg)
    k = 0.5 * (z + w)
    lam = z - k  # keeps k + lam = z to the last bit
    gamma = 1.0 - w / z  # not sigma k0^2 / z^2: z^2 overflows for |z| above about 1.34e154
    return SpectralPoint(z=z, k=k, lam=lam, gamma=gamma, region=classify_region(z, bg))


def asymptotic_eigenvectors(sp: SpectralPoint, Qpm: CMat2, bg: Background) -> np.ndarray:
    """Background eigenvector matrix X = I - (i/z) sigma3 embed(Qpm, sigma): a 4x4 for one z, (n, 4, 4) for n z.

    U_pm X = -i lambda X sigma3 and det X = gamma^2; BranchPointSingular where sp.region puts z within DELTA k0
    of a branch point, where gamma is small (0 at the point)."""
    if (bad := np.ravel(sp.region) == Region.BRANCH_POINT).any():
        raise BranchPointSingular(f"z = {complex(np.ravel(sp.z)[bad][0])} lies within DELTA k0 of a branch point")
    return I4 - np.multiply.outer(1j / sp.z, SIGMA3) @ embed(Qpm, bg.sigma)


def dispersion(k, bg: Background):
    """w = beta (4 k^2 - 2 k0^2) + 2 alpha k, the dispersion of the combined second/third-order flow."""
    return bg.beta * (4.0 * k**2 - 2.0 * bg.k0**2) + 2.0 * bg.alpha * k


def theta(x, t, sp: SpectralPoint, bg: Background):
    """Phase of the plane-wave factors, theta = lambda(z) (-x - w(z) t), broadcast over x, t and sp's z."""
    return sp.lam * (-x - dispersion(sp.k, bg) * t)
