"""Numerical direct scattering at fixed time.

Modified Jost eigenfunctions mu (mu_x = U mu + i lambda mu sigma3; bounded in
the decaying directions, unlike the plane-wave-dressed solutions) are
propagated across a truncated line, matched at x = 0 into the scattering
matrix, and probed for the symmetry identities.  Discrete eigenvalues are
zeros of det a(z), located by argument-principle winding plus secant steps.

Propagation is the 4th-order Magnus exponential integrator (Blanes-Casas-
Oteo-Ros, Phys. Rep. 470, 2009) on cells of length h = H (tol/1e-8)^(1/4),
with Q at the two Gauss nodes of every cell from one call of the array field.
A cell's Omega = (h/2)(U1 + U2) + (sqrt(3)/12) h^2 [U2, U1] is A0 + k(z) A1,
A0 and A1 independent of z.  Cell exponentials, times the column shift
e^{+-i lambda h} that keeps the analytic pair bounded, are multiplied in
pairs; every z is propagated alone, so it gets the same bits in any batch.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationFailure, MissingPartner, NoConvergenceWarning, SingularWronskian
from .lax import asymptotic_eigenvectors, embed
from .matrices import SIGMA2, SIGMA3, CMat2, CMat4, dagger, inv2
from .spectral import Background, Region, SpectralPoint, classify_region, theta, uniformize
from .verification import Field

_SGN = np.array([1.0, 1.0, -1.0, -1.0])

H = 0.005  # cell length at tol = 1e-8; the error of a crossing scales like h^4
_CHUNK = 4096  # cells exponentiated at once
_THETA = 0.1  # bound on |Omega|_1 for the degree-9 Taylor sum (remainder < 3e-17)
_TAYLOR = [1.0 / math.factorial(j) for j in range(10)]
_DIAG = np.arange(4)
# Search cells split at this fraction: a zero on a split line gets its winding
# from the sign of rounding noise in det a, and a transcendental fraction keeps
# the lines off rational points such as 2i, where eigenvalues usually sit.
_SPLIT = 0.5 - 0.125 / math.pi


@dataclass(frozen=True)
class _Cells:
    """One side's A0, A1 as (4, 4, n) in the order of travel, and max 1-norms."""

    A0: np.ndarray
    A1: np.ndarray
    h: float
    norm0: float
    norm1: float


def _cells(Q: np.ndarray, sigma: int, step: float) -> _Cells:
    """Generators of the cells whose Gauss-node samples are Q (n, 2, 2, 2)."""
    c = math.sqrt(3.0) / 12.0 * step**2
    A0, A1 = (np.empty((4, 4, len(Q)), dtype=complex) for _ in range(2))
    for lo in range(0, len(Q), _CHUNK):  # in chunks, to bound the temporaries
        cut = slice(lo, lo + _CHUNK)
        Q1, Q2 = (embed(Q[cut, i], sigma) for i in (0, 1))
        A0[..., cut] = np.moveaxis(0.5 * step * (Q1 + Q2) + c * (Q2 @ Q1 - Q1 @ Q2), 0, -1)
        D = Q1 - Q2
        A1[..., cut] = np.moveaxis(-1j * c * (SIGMA3 @ D - D @ SIGMA3) - 1j * step * SIGMA3, 0, -1)
    A0.flags.writeable = A1.flags.writeable = False  # shared through the _mesh cache
    norm = lambda A: float(np.abs(A).sum(axis=0).max())
    return _Cells(A0, A1, abs(step), norm(A0), norm(A1))


@functools.lru_cache(maxsize=1)
def _mesh(field: Field, L: float, tol: float, t0: float, sigma: int) -> tuple[_Cells, _Cells]:
    """(left, right) cells: [-L, 0] travelled upward, [0, L] downward."""
    if not (L > 0 and tol > 0):
        raise ValueError("domain truncation L and tolerance must be positive")
    n = math.ceil(L / (H * (tol / 1e-8) ** 0.25))
    h = L / n
    centres = h * (np.arange(n) + 0.5) - L
    gauss = h / (2.0 * math.sqrt(3.0)) * np.array([-1.0, 1.0])
    xs = np.concatenate(((centres[:, None] + gauss).ravel(), (-centres[:, None] - gauss).ravel()))
    Q = np.asarray(field(xs, t0), dtype=complex)
    bad = ~np.isfinite(Q).all(axis=(-2, -1))
    if bad.any():
        raise IntegrationFailure(f"non-finite field sample at x = {xs[bad][0]}, t = {t0}")
    Q = Q.reshape(2, n, 2, 2, 2)
    sides = _cells(Q[0], sigma, h), _cells(Q[1], sigma, -h)
    if not all(math.isfinite(c.norm0 + c.norm1) for c in sides):
        raise IntegrationFailure(f"Magnus generators overflow for the field at t = {t0}")
    return sides


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cellwise 4x4 products of (4, 4, n) stacks."""
    return np.einsum("ikn,kjn->ijn", A, B)


def _expm1(om: np.ndarray, squarings: int) -> np.ndarray:
    """exp(Omega) - I by a degree-9 Taylor sum (Paterson-Stockmeyer), then squarings."""
    om2 = _mm(om, om)
    om3 = _mm(om2, om)

    def poly(j):  # c_j I + c_{j+1} Omega + c_{j+2} Omega^2
        B = _TAYLOR[j + 1] * om + _TAYLOR[j + 2] * om2
        B[_DIAG, _DIAG] += _TAYLOR[j]
        return B

    F = om + _TAYLOR[2] * om2 + _mm(om3, poly(3) + _mm(om3, poly(6) + _TAYLOR[9] * om3))
    for _ in range(squarings):
        F = 2.0 * F + _mm(F, F)
    return F


def _transfer(cells: _Cells, k: complex, w: complex) -> CMat4:
    """e^{n w} exp(Omega_{n-1}) ... exp(Omega_0) over the cells of one side.

    Factors are carried as I + F, (I + A)(I + B) = I + (A + B + AB), so
    rounding scales with the small |F| = |exp(Omega) - I|, not with 1.
    """
    b = cells.norm0 + abs(k) * cells.norm1
    s = max(0, math.ceil(math.log2(max(b, _THETA) / _THETA)))
    shift, shift1 = cmath.exp(w), 2.0 * cmath.exp(0.5 * w) * cmath.sinh(0.5 * w)  # e^w, e^w - 1
    total = None
    for lo in range(0, cells.A0.shape[-1], _CHUNK):
        om = (cells.A0[..., lo : lo + _CHUNK] + k * cells.A1[..., lo : lo + _CHUNK]) * 0.5**s
        F = _expm1(om, s) * shift
        F[_DIAG, _DIAG] += shift1
        while F.shape[-1] > 1:
            m = F.shape[-1]
            A, B = F[..., 1:m:2], F[..., 0 : m - 1 : 2]
            P = A + B + _mm(A, B)
            F = np.concatenate((P, F[..., m - 1 :]), axis=-1) if m % 2 else P
        total = F if total is None else F + total + _mm(F, total)
    return np.eye(4) + total[..., 0]


def _jost(mesh, sp: SpectralPoint, side: str, bg: Background, analytic_only: bool = False) -> np.ndarray:
    """mu(0) of one side: all four columns, or only the bounded pair.

    The bounded (analytic) pair is M / N in D+, the barred pair in D-; the
    other pair grows like e^{2 |Im lambda| L} off the continuous spectrum.
    """
    left = side == "left"
    cells = mesh[0] if left else mesh[1]
    X0, _ = asymptotic_eigenvectors(sp, bg.Qminus if left else bg.Qplus, bg)  # rejects branch points
    eps = 1.0 if sp.lam.imag >= 0 else -1.0
    P = _transfer(cells, sp.k, 1j * sp.lam * cells.h * eps)
    analytic = (1.0 if left else -1.0) * _SGN == eps
    if analytic_only:
        mu = P @ X0[:, analytic]
    else:
        length = cells.h * cells.A0.shape[-1]
        mu = P @ (X0 * np.where(analytic, 1.0, np.exp(-2j * sp.lam * length * eps)))
    if not np.all(np.isfinite(mu)):
        raise IntegrationFailure(f"non-finite Jost solution at z = {sp.z} ({side})")
    return mu


def _over_z(z, fn):
    """fn at a scalar z, or the list of fn over a 1-D array of z."""
    if np.ndim(z) > 1:
        raise ValueError("z must be a scalar or a 1-D array")
    return fn(complex(z)) if np.ndim(z) == 0 else [fn(complex(w)) for w in np.asarray(z)]


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


def integrate_jost(field: Field, z, side: str, L: float, tol: float, bg: Background, t0: float = 0.0):
    """Propagate the modified eigenfunction mu_x = U mu + i lambda mu sigma3.

    Starts from the background eigenvector matrix at -L (side "left") or +L
    (side "right") and returns the 4x4 value at x = 0, stacked to (n, 4, 4)
    for a 1-D array of z.  Off the continuous spectrum the non-analytic
    column pair grows like e^{2 |Im lambda| L}.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mesh = _mesh(field, L, tol, t0, bg.sigma)
    out = _over_z(z, lambda w: _jost(mesh, uniformize(w, bg), side, bg))
    return out if np.ndim(z) == 0 else np.array(out).reshape(-1, 4, 4)


def _sample(mesh, z: complex, t0: float, bg: Background) -> ScatteringSample:
    sp = uniformize(z, bg)
    ph = np.exp(1j * theta(0.0, t0, z, bg) * _SGN)
    Phi = _jost(mesh, sp, "left", bg) * ph[None, :]
    Psi = _jost(mesh, sp, "right", bg) * ph[None, :]
    d = np.linalg.det(Psi)
    if abs(d) < 1e-12:
        raise SingularWronskian(f"det Psi(0) = {d} at z = {z}")
    S = np.linalg.solve(Psi, Phi)
    a, bbar, b, abar = S[:2, :2], S[:2, 2:], S[2:, :2], S[2:, 2:]
    rho = b @ inv2(a)
    rhobar = bbar @ inv2(abar)
    return ScatteringSample(z=z, t0=t0, S=S, a=a, b=b, abar=abar, bbar=bbar, rho=rho, rhobar=rhobar)


def scattering_matrix(field: Field, z, L: float, tol: float, bg: Background, t0: float = 0.0):
    """Scattering matrix S with Phi = Psi S, blocks, and reflection data.

    Phi(0) and Psi(0) are rebuilt from the two modified-eigenfunction halves
    by restoring the phase factor e^{i theta(0, t0) sigma3}; that factor is
    what makes S independent of t0.  A scalar z gives one sample, a 1-D
    array of z the list of samples.
    """
    mesh = _mesh(field, L, tol, t0, bg.sigma)
    return _over_z(z, lambda w: _sample(mesh, w, t0, bg))


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


def _det_a(mesh, z: complex, bg: Background) -> complex:
    sp = uniformize(z, bg)
    if sp.region is not Region.D_PLUS:
        raise ValueError(f"det_a requires z in D+ (got {sp.region} at z = {z})")
    W = np.hstack([_jost(mesh, sp, side, bg, analytic_only=True) for side in ("left", "right")])
    return complex(np.linalg.det(W) / sp.gamma**2)


def det_a(field: Field, z, L: float, tol: float, bg: Background, t0: float = 0.0):
    """det a(z) via the Wronskian det(phi, psi)/gamma^2 at x = 0.

    Analytic in D+; uses only the two analytic column pairs, so it stays
    well defined arbitrarily deep in D+ where the other columns overflow.
    A 1-D array of z gives an array of values.
    """
    mesh = _mesh(field, L, tol, t0, bg.sigma)
    out = _over_z(z, lambda w: _det_a(mesh, w, bg))
    return out if np.ndim(z) == 0 else np.array(out, dtype=complex)


class _DetACache:
    def __init__(self, field, L, tol, bg, t0):
        self.mesh = _mesh(field, L, tol, t0, bg.sigma)
        self.bg = bg
        self.cache: dict[complex, complex] = {}

    def __call__(self, z: complex) -> complex:
        key = complex(round(z.real, 13), round(z.imag, 13))
        if key not in self.cache:
            self.cache[key] = _det_a(self.mesh, key, self.bg)
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
    field: Field,
    searchbox: tuple[float, float, float, float],
    grid: tuple[int, int],
    L: float,
    tol: float,
    bg: Background,
    t0: float = 0.0,
    merge_tol: float = 1e-3,
) -> list[complex]:
    """Zeros of det a(z) inside a rectangle of D+ (upper half plane).

    Argument-principle winding over subdivided rectangles (split
    off-centre at _SPLIT, up to 4 levels) isolates the zeros, then complex
    secant iteration pushes each to |det a| < 1e-8.  Cells whose refinement fails are reported via
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
        am, bm = a0 + _SPLIT * (a1 - a0), b0 + _SPLIT * (b1 - b0)
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
