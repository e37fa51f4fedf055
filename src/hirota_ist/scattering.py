"""Numerical direct scattering at fixed time.

Modified Jost eigenfunctions are integrated across a truncated line (they
stay bounded in the decaying directions, unlike the raw plane-wave-dressed
solutions), matched at x = 0 into the scattering matrix, and probed for the
symmetry identities.  Discrete eigenvalues are located as zeros of det a(z)
by argument-principle winding plus secant refinement.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BranchPointSingular,
    IntegrationFailure,
    MissingPartner,
    NoConvergenceWarning,
    SingularWronskian,
)
from .lax import asymptotic_eigenvectors
from .matrices import SIGMA2, CMat2, CMat4, dagger, inv2
from .spectral import Background, Region, classify_region, theta, uniformize

_SGN = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class JostState:
    """Modified eigenfunctions of both sides at the matching point x = 0."""

    z: complex
    t0: float
    mu_left: CMat4
    mu_right: CMat4

    @property
    def M(self) -> np.ndarray:
        return self.mu_left[:, :2]

    @property
    def Mbar(self) -> np.ndarray:
        return self.mu_left[:, 2:]

    @property
    def Nbar(self) -> np.ndarray:
        return self.mu_right[:, :2]

    @property
    def N(self) -> np.ndarray:
        return self.mu_right[:, 2:]


@dataclass(frozen=True)
class ScatteringSample:
    z: complex
    t0: float
    S: CMat4
    a: CMat2
    b: CMat2
    abar: CMat2
    bbar: CMat2
    rho: CMat2
    rhobar: CMat2


def integrate_jost(
    field: Callable[[float, float], CMat2],
    z: complex,
    side: str,
    L: float,
    tol: float,
    bg: Background,
    t0: float = 0.0,
    columns: str = "all",
) -> CMat4:
    """Integrate the modified-eigenfunction ODE mu_x = U mu + i lambda mu sigma3.

    Starts from the background eigenvector matrix at -L (side "left") or +L
    (side "right") and returns the 4x4 value at x = 0.  Off the continuous
    spectrum the non-analytic column pair grows like e^{2 Im lambda L};
    columns="analytic" integrates only the bounded pair and leaves the other
    two columns NaN.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if not L > 0:
        raise ValueError("domain truncation L must be positive")
    sp = uniformize(z, bg)
    if sp.region is Region.BRANCH_POINT:
        raise BranchPointSingular(f"z = {z} is a branch point")
    Qpm = bg.Qminus if side == "left" else bg.Qplus
    X0, _ = asymptotic_eigenvectors(sp, Qpm, bg)
    # bounded (analytic) column pair: M / N in D+ (Im lambda > 0), the
    # barred pair in D-
    if sp.lam.imag >= 0:
        analytic_cols = [0, 1] if side == "left" else [2, 3]
    else:
        analytic_cols = [2, 3] if side == "left" else [0, 1]
    if columns == "all":
        cols = list(range(4))
    elif columns == "analytic":
        cols = analytic_cols
    else:
        raise ValueError("columns must be 'all' or 'analytic'")

    k, lam, sg = sp.k, sp.lam, bg.sigma
    signs = 1j * lam * _SGN[cols]
    ncols = len(cols)

    def rhs(x, y):
        mu = y.reshape(4, ncols)
        Q = field(x, t0)
        up = -1j * k * mu[:2] + Q @ mu[2:]
        dn = sg * dagger(Q) @ mu[:2] + 1j * k * mu[2:]
        dmu = np.vstack((up, dn)) + mu * signs[None, :]
        return dmu.ravel()

    x_start = -L if side == "left" else L
    y0 = X0[:, cols].ravel()
    sol = solve_ivp(rhs, (x_start, 0.0), y0, method="RK45", rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise IntegrationFailure(f"Jost integration failed at z = {z} ({side}): {sol.message}")
    out = np.full((4, 4), np.nan, dtype=complex)
    out[:, cols] = sol.y[:, -1].reshape(4, ncols)
    return out


def jost_state(
    field: Callable[[float, float], CMat2],
    z: complex,
    L: float,
    tol: float,
    bg: Background,
    t0: float = 0.0,
) -> JostState:
    """Both modified-eigenfunction halves matched at x = 0."""
    return JostState(
        z=z,
        t0=t0,
        mu_left=integrate_jost(field, z, "left", L, tol, bg, t0=t0, columns="all"),
        mu_right=integrate_jost(field, z, "right", L, tol, bg, t0=t0, columns="all"),
    )


def scattering_matrix(
    field: Callable[[float, float], CMat2],
    z: complex,
    L: float,
    tol: float,
    bg: Background,
    t0: float = 0.0,
) -> ScatteringSample:
    """Scattering matrix S with Phi = Psi S, blocks, and reflection data.

    Phi(0) and Psi(0) are rebuilt from the two modified-eigenfunction halves
    by restoring the phase factor e^{i theta(0, t0) sigma3}; that factor is
    what makes S independent of t0.
    """
    js = jost_state(field, z, L, tol, bg, t0=t0)
    mu_l, mu_r = js.mu_left, js.mu_right
    th0 = theta(0.0, t0, z, bg)
    ph = np.exp(1j * th0 * _SGN)
    Phi = mu_l * ph[None, :]
    Psi = mu_r * ph[None, :]
    d = np.linalg.det(Psi)
    if abs(d) < 1e-12:
        raise SingularWronskian(f"det Psi(0) = {d} at z = {z}")
    S = np.linalg.solve(Psi, Phi)
    a, bbar, b, abar = S[:2, :2], S[:2, 2:], S[2:, :2], S[2:, 2:]
    rho = b @ inv2(a)
    rhobar = bbar @ inv2(abar)
    return ScatteringSample(z=z, t0=t0, S=S, a=a, b=b, abar=abar, bbar=bbar, rho=rho, rhobar=rhobar)


@dataclass(frozen=True)
class SymmetryAuditReport:
    """Max deviations of the scattering-data identities over a sample set."""

    conjugation_identity: float  # S^dag(z*) J S(z) - J
    transpose_identity: float  # S^T(z) sigma2 S(z) - sigma2
    rho_symmetry: float  # rho - rho^T
    antipode_identity: float  # rho(sigma k0^2/z) + (sigma/k0^2) Q+^dag rhobar(z) Q+^dag
    abar_conjugation: float  # abar(z) - a*(z*)
    n_samples: int

    def max_deviation(self) -> float:
        return max(
            self.conjugation_identity,
            self.transpose_identity,
            self.rho_symmetry,
            self.antipode_identity,
            self.abar_conjugation,
        )

    def flagged(self, threshold: float = 1e-6) -> dict[str, bool]:
        return {
            "conjugation_identity": self.conjugation_identity > threshold,
            "transpose_identity": self.transpose_identity > threshold,
            "rho_symmetry": self.rho_symmetry > threshold,
            "antipode_identity": self.antipode_identity > threshold,
            "abar_conjugation": self.abar_conjugation > threshold,
        }


def _find_partner(samples: Sequence[ScatteringSample], z: complex) -> ScatteringSample:
    tol = 1e-9 * max(1.0, abs(z))
    for s in samples:
        if abs(s.z - z) <= tol:
            return s
    raise MissingPartner(f"no sample at required partner point {z}")


def audit_symmetries(samples: Sequence[ScatteringSample], bg: Background) -> SymmetryAuditReport:
    """Check the three scattering-matrix symmetries on spectrum samples.

    Needs the sample set closed under z -> z* and z -> sigma k0^2/z (real
    points are their own conjugates).
    """
    J = np.diag([1.0, 1.0, -bg.sigma, -bg.sigma])
    Qpd = dagger(bg.Qplus)
    dev1 = dev2 = dev3 = dev4 = dev5 = 0.0
    for s in samples:
        conj_s = _find_partner(samples, complex(np.conj(s.z)))
        anti_s = _find_partner(samples, bg.sigma * bg.k0**2 / s.z)
        dev1 = max(dev1, float(np.max(np.abs(dagger(conj_s.S) @ J @ s.S - J))))
        dev2 = max(dev2, float(np.max(np.abs(s.S.T @ SIGMA2 @ s.S - SIGMA2))))
        dev3 = max(dev3, float(np.max(np.abs(s.rho - s.rho.T))))
        dev4 = max(
            dev4,
            float(np.max(np.abs(anti_s.rho + (bg.sigma / bg.k0**2) * Qpd @ s.rhobar @ Qpd))),
        )
        dev5 = max(dev5, float(np.max(np.abs(conj_s.abar - np.conj(s.a)))))
    return SymmetryAuditReport(
        conjugation_identity=dev1,
        transpose_identity=dev2,
        rho_symmetry=dev3,
        antipode_identity=dev4,
        abar_conjugation=dev5,
        n_samples=len(samples),
    )


def det_a(
    field: Callable[[float, float], CMat2],
    z: complex,
    L: float,
    tol: float,
    bg: Background,
    t0: float = 0.0,
) -> complex:
    """det a(z) via the Wronskian det(phi, psi)/gamma^2 at x = 0.

    Analytic in D+; uses only the two analytic column pairs, so it stays
    well defined arbitrarily deep in D+ where the other columns overflow.
    """
    sp = uniformize(z, bg)
    if sp.region is not Region.D_PLUS:
        raise ValueError(f"det_a requires z in D+ (got {sp.region} at z = {z})")
    mu_l = integrate_jost(field, z, "left", L, tol, bg, t0=t0, columns="analytic")
    mu_r = integrate_jost(field, z, "right", L, tol, bg, t0=t0, columns="analytic")
    W = np.empty((4, 4), dtype=complex)
    W[:, :2] = mu_l[:, :2]
    W[:, 2:] = mu_r[:, 2:]
    return np.linalg.det(W) / sp.gamma**2


class _DetACache:
    def __init__(self, field, L, tol, bg, t0):
        self.args = (field, L, tol, bg, t0)
        self.cache: dict[complex, complex] = {}
        self.evals = 0

    def __call__(self, z: complex) -> complex:
        key = complex(round(z.real, 13), round(z.imag, 13))
        if key not in self.cache:
            field, L, tol, bg, t0 = self.args
            self.cache[key] = det_a(field, key, L, tol, bg, t0=t0)
            self.evals += 1
        return self.cache[key]


def _winding(f: _DetACache, corners: list[complex], n_side: int = 16, max_insert: int = 7) -> float:
    """Winding number of det_a around a rectangle by unwrapped phase.

    Between adjacent boundary nodes the phase step must stay below 0.9 pi;
    midpoints are inserted (up to max_insert levels) where it does not.
    """
    pts: list[complex] = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        for m in range(n_side):
            pts.append(a + (b - a) * (m / n_side))
    pts.append(pts[0])
    total = 0.0
    for i in range(len(pts) - 1):
        total += _phase_step(f, pts[i], pts[i + 1], max_insert)
    return total / (2.0 * math.pi)


def _phase_step(f: _DetACache, z1: complex, z2: complex, depth: int) -> float:
    f1, f2 = f(z1), f(z2)
    if f1 == 0 or f2 == 0:
        return cmath.phase(f2 / f1) if f1 and f2 else 0.0
    d = cmath.phase(f2 / f1)
    if abs(d) <= 0.9 * math.pi or depth <= 0 or abs(z2 - z1) < 1e-9:
        return d
    zm = 0.5 * (z1 + z2)
    return _phase_step(f, z1, zm, depth - 1) + _phase_step(f, zm, z2, depth - 1)


def _secant_refine(f: _DetACache, z0: complex, span: float, target: float = 1e-8, max_iter: int = 80):
    best, best_f = z0, abs(f(z0))
    z1 = z0 + 0.05 * span * (1 + 1j)
    f0, f1 = f(z0), f(z1)
    for _ in range(max_iter):
        if abs(f1) < best_f:
            best, best_f = z1, abs(f1)
        if best_f < target:
            return best
        denom = f1 - f0
        if denom == 0:
            break
        dz = -f1 * (z1 - z0) / denom
        if abs(dz) > 2.0 * span:
            dz *= 2.0 * span / abs(dz)
        z0, f0 = z1, f1
        z1 = z1 + dz
        f1 = f(z1)
    return best if best_f < 10 * target else None


def find_discrete_spectrum(
    field: Callable[[float, float], CMat2],
    searchbox: tuple[float, float, float, float],
    grid: tuple[int, int],
    L: float,
    tol: float,
    bg: Background,
    t0: float = 0.0,
    merge_tol: float = 1e-3,
) -> list[complex]:
    """Zeros of det a(z) inside a rectangle of D+ (upper half plane).

    Argument-principle winding over subdivided rectangles isolates the
    zeros (up to 4 refinement levels), then complex secant iteration pushes
    each to |det a| < 1e-8.  Cells whose refinement fails are reported via
    NoConvergenceWarning, not fatally.

    merge_tol sets the resolution: refined zeros closer than this are one
    zero (a double zero of det a refines only to ~sqrt of the |det a|
    target, so merge_tol should stay above ~1e-4).
    """
    re0, re1, im0, im1 = searchbox
    if not (re1 > re0 and im1 > im0 and im0 > 0):
        raise ValueError("searchbox must be a rectangle in the upper half plane")
    for zc in (
        complex(re0, im0), complex(re1, im0), complex(re0, im1), complex(re1, im1),
        complex(0.5 * (re0 + re1), im0), complex(0.5 * (re0 + re1), im1),
        complex(re0, 0.5 * (im0 + im1)), complex(re1, 0.5 * (im0 + im1)),
    ):
        if classify_region(zc, bg) is not Region.D_PLUS:
            raise ValueError(f"searchbox touches the complement of D+ at {zc}")
    f = _DetACache(field, L, tol, bg, t0)
    nx, ny = grid
    zeros: list[complex] = []

    def process(a0, a1, b0, b1, level):
        corners = [complex(a0, b0), complex(a1, b0), complex(a1, b1), complex(a0, b1)]
        w = _winding(f, corners)
        w_int = int(round(w))
        if abs(w - w_int) > 0.25:
            warnings.warn(f"non-integer winding {w:.3f} in cell ({a0},{a1})x({b0},{b1})", NoConvergenceWarning)
        if w_int <= 0:
            return
        span = max(a1 - a0, b1 - b0)
        if level >= 4 or span < 4e-3:
            z = _secant_refine(f, complex(0.5 * (a0 + a1), 0.5 * (b0 + b1)), span)
            if z is None:
                warnings.warn(
                    f"secant refinement failed in cell ({a0},{a1})x({b0},{b1})", NoConvergenceWarning
                )
            else:
                zeros.append(z)
            return
        am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        for (c0, c1, d0, d1) in ((a0, am, b0, bm), (am, a1, b0, bm), (a0, am, bm, b1), (am, a1, bm, b1)):
            process(c0, c1, d0, d1, level + 1)

    dx, dy = (re1 - re0) / nx, (im1 - im0) / ny
    for i in range(nx):
        for j in range(ny):
            process(re0 + i * dx, re0 + (i + 1) * dx, im0 + j * dy, im0 + (j + 1) * dy, 0)

    kept: list[complex] = []
    for z in zeros:
        if z.imag <= 0:
            continue
        if abs(abs(z) - bg.k0) < 1e-6 or abs(z.imag) < 1e-6:
            warnings.warn(f"zero {z} rejected: too close to the continuous spectrum", NoConvergenceWarning)
            continue
        if any(abs(z - u) < merge_tol for u in kept):
            continue
        kept.append(complex(z))
    return kept
