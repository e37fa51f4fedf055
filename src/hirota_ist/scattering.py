"""Numerical direct scattering at fixed time.

Modified Jost eigenfunctions mu (mu_x = U mu + i lambda mu sigma3; bounded in
the decaying directions, unlike the plane-wave-dressed solutions) are
propagated across a truncated line, matched at x = 0 into the scattering
matrix, and probed for the symmetry identities.  Discrete eigenvalues are
zeros of det a(z): det a is evaluated in one batch at Gauss-Legendre nodes on
the boundary of a search box, and the zeros are the eigenvalues of the Hankel
pencil of the contour moments of d log a (Delves-Lyness, Math. Comp. 21,
1967; multiple zeros as in Kravanja-Van Barel, LNM 1727, 2000).

Propagation is the 4th-order Magnus exponential integrator (Blanes-Casas-
Oteo-Ros, Phys. Rep. 470, 2009) on a graded mesh, with Q at the two Gauss
nodes of every cell from one call of the array field.  The step is exact
where Q is constant, and its local error grows like h^5 times the variation
of Q.  One array call probes Q at the centres of cells of about R h0,
h0 = H (tol/1e-8)^(1/4); g, the larger of |Q - Q_lim| (the limit taken from
the outermost probe of that side) and |Delta Q| to the next probe, widened
by one probe cell, splits each probe cell into equal cells of
h0 clip((g_max/g)^(1/5), 1, R).  No cell then carries more local error than
an h0 cell where the field varies most, so tol keeps its meaning on any
field (errors scale like tol, as on a uniform h0 mesh), and a field that
sits on its background gets only cells of R h0.  The left side starts from
the field's own limit, its sample at (-2L, t0) in the same probe call; the
right from bg.Qplus.  L doubles from L0 up to L_MAX while that sample fails
Q Q^dag = k0^2 I (NoBackground at L_MAX) or Q(-L + p/2) or Q(L - p/2), p the
probe cell, is farther than tol from its limit (NoConvergenceWarning at L_MAX).
A cell's Omega = (h/2)(U1 + U2) + (sqrt(3)/12) h^2 [U2, U1] is A0 + k(z) A1,
A0 and A1 independent of z.  Cell exponentials (each scaled and squared as
its own norm needs), times the column shift e^{+-i lambda h} that keeps the
analytic pair bounded, are multiplied in pairs; every z is propagated alone,
so it gets the same bits in any batch.  A call builds one mesh, which all its
z share: pass the z of one field as one array, not one call per z.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationFailure, NoBackground, NoConvergenceWarning, SingularWronskian
from .lax import asymptotic_eigenvectors, embed
from .matrices import SIGMA2, SIGMA3, CMat2, CMat4, dagger, inv2
from .spectral import (Background, Region, SpectralPoint, background_defect, classify_region, find_partner, theta,
                       uniformize)
from .verification import Field

_SGN = np.array([1.0, 1.0, -1.0, -1.0])
_Box = tuple[float, float, float, float]  # (re0, re1, im0, im1)

H = 0.005  # shortest cell length at tol = 1e-8; the error of a crossing scales like h^4
R = 16  # longest cell over the shortest; probe cells are about R of the shortest long
L0, L_MAX = 20.0, 80.0  # first and largest truncation length; L doubles from L0 while the field has not settled
_CHUNK = 4096  # cells exponentiated at once
_THETA = 0.1  # bound on |Omega|_1 for the degree-9 Taylor sum (remainder < 3e-17)
_TAYLOR = [1.0 / math.factorial(j) for j in range(10)]
_DIAG = np.arange(4)
_PANELS, _NODES = 36, 8  # Gauss-Legendre panels on the search contour, nodes per panel
_RANK = 1e-8  # Hankel singular values below this fraction of the largest are noise
_DIP = 0.25  # |det a| at a node below this fraction of both neighbours: zero on the contour
_MOVES = 2  # contour moves before a zero near the boundary is reported, not avoided

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class _Cells:
    """One side's A0, A1 as (4, 4, n) in travel order, cell lengths and 1-norms (n,), and its starting Q."""

    A0: np.ndarray
    A1: np.ndarray
    h: np.ndarray
    norm0: np.ndarray
    norm1: np.ndarray
    limit: CMat2


def _cells(Q: np.ndarray, sigma: int, steps: np.ndarray, limit: CMat2) -> _Cells:
    """Generators of the cells of signed lengths steps whose Gauss-node samples are Q (n, 2, 2, 2)."""
    A0, A1 = (np.empty((4, 4, len(Q)), dtype=complex) for _ in range(2))
    for lo in range(0, len(Q), _CHUNK):  # in chunks, to bound the temporaries
        cut = slice(lo, lo + _CHUNK)
        h = steps[cut, None, None]
        c = math.sqrt(3.0) / 12.0 * h**2
        Q1, Q2 = (embed(Q[cut, i], sigma) for i in (0, 1))
        A0[..., cut] = np.moveaxis(0.5 * h * (Q1 + Q2) + c * (Q2 @ Q1 - Q1 @ Q2), 0, -1)
        D = Q1 - Q2
        A1[..., cut] = np.moveaxis(-1j * c * (SIGMA3 @ D - D @ SIGMA3) - 1j * h * SIGMA3, 0, -1)
    return _Cells(A0, A1, np.abs(steps), *(np.abs(A).sum(axis=0).max(axis=0) for A in (A0, A1)), limit)


def _samples(field: Field, xs: np.ndarray, t0: float) -> np.ndarray:
    Q = np.asarray(field(xs, t0), dtype=complex)
    bad = ~np.isfinite(Q).all(axis=(-2, -1))
    if bad.any():
        raise IntegrationFailure(f"non-finite field sample at x = {xs[bad][0]}, t = {t0}")
    return Q


def _mesh(field: Field, tol: float, t0: float, bg: Background) -> tuple[_Cells, _Cells]:
    """(left, right) cells: [-L, 0] travelled upward, [0, L] downward, L and grading as the module states."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    h0 = H * (tol / 1e-8) ** 0.25
    L, evals = L0, 0
    while True:
        m = math.ceil(L / (R * h0))  # probe cells a side
        p = L / m
        probe = p * (np.arange(2 * m) + 0.5) - L
        Qs = _samples(field, np.concatenate(([-2.0 * L], probe)), t0)
        Qlim, Qp, evals = Qs[0], Qs[1:], evals + len(Qs)
        dev, bound = background_defect(Qlim, bg.k0)
        edges = np.abs(Qlim - Qp[0]).max(), np.abs(Qp[-1] - bg.Qplus).max()
        if L >= L_MAX or (dev <= bound and max(edges) <= tol):
            break
        L *= 2.0
    if dev > bound:
        raise NoBackground(f"field does not settle: |Q Q^dag - k0^2 I| = {dev:.2g} at x = {-2 * L:g}, t = {t0:g}")
    if max(edges) > tol:
        warnings.warn(f"field not settled at L = {L:g}: its outermost probes are {edges[0]:.2g} (left) and "
                      f"{edges[1]:.2g} (right) from its limits, above tol {tol:g}, at t = {t0:g}", NoConvergenceWarning)
    g = np.abs(Qp - np.where((probe < 0)[:, None, None], Qp[0], Qp[-1])).max(axis=(1, 2))
    g[:-1] = np.maximum(g[:-1], np.abs(np.diff(Qp, axis=0)).max(axis=(1, 2)))
    g = np.pad(g, 1)
    g = np.maximum.reduce([g[:-2], g[1:-1], g[2:]])
    ratio = np.divide(g.max(), g, out=np.full_like(g, float(R) ** 5), where=g > 0)  # R^5 where g = 0
    stretch = np.clip(ratio**0.2, 1.0, R)
    n = np.ceil(p / (h0 * stretch) - 1e-9).astype(int)  # cells a probe cell; p <= R h0 makes one where stretch = R
    h = np.repeat(p / n, n)
    x0 = np.cumsum(h) - h - L  # left edges, ascending over [-L, L]
    gauss = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
    Q = _samples(field, (x0[:, None] + h[:, None] * gauss).ravel(), t0).reshape(-1, 2, 2, 2)
    left = n[:m].sum()
    sides = (_cells(Q[:left], bg.sigma, h[:left], Qlim),
             _cells(Q[left:][::-1, ::-1], bg.sigma, -h[left:][::-1], bg.Qplus))
    if not all(np.isfinite(c.norm0 + c.norm1).all() for c in sides):
        raise IntegrationFailure(f"Magnus generators overflow for the field at t = {t0}")
    _log.debug("Jost mesh L=%g tol=%g t0=%g: %d probes, cells %d left %d right, length %.3g to %.3g, "
               "%d field evaluations, at most %d squarings at k = 0, edges |Q(-2L) - Q(-L + p/2)| %.2g and "
               "|Q(L - p/2) - Q+| %.2g, |Q Q^dag - k0^2 I| %.2g at -2L",
               L, tol, t0, 2 * m, left, len(h) - left, h.min(), h.max(), evals + 2 * len(h),
               max(_squarings(c, 0.0).max() for c in sides), *edges, dev)
    return sides


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cellwise 4x4 products of (4, 4, n) stacks."""
    return np.einsum("ikn,kjn->ijn", A, B)


def _squarings(cells: _Cells, k: complex) -> np.ndarray:
    """Per cell, the halvings that bring |Omega|_1 <= |A0|_1 + |k| |A1|_1 under _THETA."""
    b = cells.norm0 + abs(k) * cells.norm1
    return np.ceil(np.log2(np.maximum(b, _THETA) / _THETA)).astype(int)


def _expm1(om: np.ndarray, squarings: np.ndarray) -> np.ndarray:
    """exp(Omega) - I by a degree-9 Taylor sum (Paterson-Stockmeyer), then each cell's squarings."""
    om2 = _mm(om, om)
    om3 = _mm(om2, om)

    def poly(j):  # c_j I + c_{j+1} Omega + c_{j+2} Omega^2
        B = _TAYLOR[j + 1] * om + _TAYLOR[j + 2] * om2
        B[_DIAG, _DIAG] += _TAYLOR[j]
        return B

    F = om + _TAYLOR[2] * om2 + _mm(om3, poly(3) + _mm(om3, poly(6) + _TAYLOR[9] * om3))
    for j in range(squarings.max(initial=0)):
        i = np.flatnonzero(squarings > j)
        F[..., i] = 2.0 * F[..., i] + _mm(F[..., i], F[..., i])
    return F


def _transfer(cells: _Cells, k: complex, w: complex) -> CMat4:
    """e^{w h_{n-1}} exp(Omega_{n-1}) ... e^{w h_0} exp(Omega_0) over the cells of one side.

    Factors are carried as I + F, (I + A)(I + B) = I + (A + B + AB), so
    rounding scales with the small |F| = |exp(Omega) - I|, not with 1.
    """
    s = _squarings(cells, k)
    wh = w * cells.h
    shift, shift1 = np.exp(wh), 2.0 * np.exp(0.5 * wh) * np.sinh(0.5 * wh)  # e^{w h}, e^{w h} - 1
    total = None
    for lo in range(0, cells.A0.shape[-1], _CHUNK):
        cut = slice(lo, lo + _CHUNK)
        F = _expm1((cells.A0[..., cut] + k * cells.A1[..., cut]) * 0.5 ** s[cut], s[cut]) * shift[cut]
        F[_DIAG, _DIAG] += shift1[cut]
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
    X0 = asymptotic_eigenvectors(sp, cells.limit, bg)  # rejects branch points
    eps = 1.0 if sp.lam.imag >= 0 else -1.0
    P = _transfer(cells, sp.k, 1j * sp.lam * eps)
    analytic = (1.0 if left else -1.0) * _SGN == eps
    if analytic_only:
        mu = P @ X0[:, analytic]
    else:
        length = cells.h.sum()
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


def integrate_jost(field: Field, z, side: str, tol: float, bg: Background, t0: float = 0.0):
    """Propagate the modified eigenfunction mu_x = U mu + i lambda mu sigma3.

    Starts from the background eigenvector matrix at -L (side "left") or +L
    (side "right"), L the truncation that the mesh chose from the field, and
    returns the 4x4 value at x = 0, stacked to (n, 4, 4) for a 1-D array of
    z.  Off the continuous spectrum the non-analytic column pair grows like
    e^{2 |Im lambda| L}.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mesh = _mesh(field, tol, t0, bg)
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


def scattering_matrix(field: Field, z, tol: float, bg: Background, t0: float = 0.0):
    """Scattering matrix S with Phi = Psi S, blocks, and reflection data.

    Phi(0) and Psi(0) are rebuilt from the two modified-eigenfunction halves
    by restoring the phase factor e^{i theta(0, t0) sigma3}; that factor is
    what makes S independent of t0.  A scalar z gives one sample, a 1-D
    array of z the list of samples.
    """
    mesh = _mesh(field, tol, t0, bg)
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


def audit_symmetries(samples: Sequence[ScatteringSample], bg: Background) -> SymmetryAuditReport:
    """Check the three scattering-matrix symmetries on spectrum samples.

    Needs the sample set closed under z -> z* and z -> sigma k0^2/z (real
    points are their own conjugates).
    """
    J = np.diag([1.0, 1.0, -bg.sigma, -bg.sigma])
    Qpd = dagger(bg.Qplus)
    dev1 = dev2 = dev3 = dev4 = dev5 = 0.0
    for s in samples:
        conj_s = find_partner(samples, complex(np.conj(s.z)), lambda u: u.z)
        anti_s = find_partner(samples, bg.sigma * bg.k0**2 / s.z, lambda u: u.z)
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
    W = np.hstack([_jost(mesh, sp, side, bg, analytic_only=True) for side in ("left", "right")])
    return complex(np.linalg.det(W) / sp.gamma**2)


def det_a(field: Field, z, tol: float, bg: Background, t0: float = 0.0):
    """det a(z) via the Wronskian det(phi, psi)/gamma^2 at x = 0.

    Analytic in D+; uses only the two analytic column pairs, so it stays
    well defined arbitrarily deep in D+ where the other columns overflow.
    A 1-D array of z gives an array of values.
    """
    off = _off_dplus(np.ravel(z), bg)  # before the mesh is built; _det_a assumes D+
    if off is not None:
        raise ValueError(f"det_a requires z in D+ (got {classify_region(off, bg)} at z = {off})")
    mesh = _mesh(field, tol, t0, bg)
    out = _over_z(z, lambda w: _det_a(mesh, w, bg))
    return out if np.ndim(z) == 0 else np.array(out, dtype=complex)


def _contour(box: _Box) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes z and weights dz on the boundary of box.

    Counterclockwise from the corner re0 + i im0; each edge gets a share of
    the _PANELS panels in proportion to its length, at least one.
    """
    re0, re1, im0, im1 = box
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    perimeter = 2.0 * (re1 - re0 + im1 - im0)
    beta = np.arange(1, _NODES) / np.sqrt(4.0 * np.arange(1, _NODES) ** 2 - 1.0)  # Golub-Welsch
    x, V = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    w = 2.0 * V[0] ** 2
    z, dz = [], []
    for a, b in zip(corners, corners[1:]):
        n = max(1, round(_PANELS * abs(b - a) / perimeter))
        half = 0.5 * (b - a) / n
        z.append((a + half * (2 * np.arange(n) + 1)[:, None] + half * x).ravel())
        dz.append(np.tile(half * w, n))
    return np.concatenate(z), np.concatenate(dz)


def _moment_zeros(z: np.ndarray, dz: np.ndarray, a: np.ndarray, box: _Box, N: int, steps: np.ndarray):
    """Distinct zeros, their multiplicities and the Hankel singular values.

    With u = (z - c)/r (c the centre, r the half diagonal of box) and log a
    unwrapped from the corner u0, s_p = u0^p N - (p/2 pi i) oint u^(p-1) log a du;
    the zeros are the eigenvalues of the pencil ([s_(i+j+1)], [s_(i+j)])
    projected on the singular vectors of [s_(i+j)] above _RANK.
    """
    re0, re1, im0, im1 = box
    c = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    r = 0.5 * abs(complex(re1 - re0, im1 - im0))
    u, du, u0 = (z - c) / r, dz / r, (complex(re0, im0) - c) / r
    log_a = np.log(np.abs(a)) + 1j * (np.angle(a[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1]))))
    p = np.arange(2 * N)
    upow = u[None, :] ** np.maximum(p - 1, 0)[:, None]
    s = u0**p * N - p / (2j * math.pi) * (upow @ (log_a * du))
    H0, H1 = (s[np.add.outer(np.arange(N), np.arange(N)) + k] for k in (0, 1))
    U, sv, Vh = np.linalg.svd(H0)
    m = int(np.sum(sv > _RANK * sv[0]))
    Um, Vm = U[:, :m], Vh[:m].conj().T
    roots = np.linalg.eigvals((Um.conj().T @ H1 @ Vm) / sv[:m, None])
    mult = np.linalg.lstsq(roots[None, :] ** p[:N, None], s[:N], rcond=None)[0]
    return c + r * roots, mult, sv


def _off_dplus(z: np.ndarray, bg: Background) -> complex | None:
    """The first contour node outside D+, or None."""
    return next((complex(w) for w in z if classify_region(complex(w), bg) is not Region.D_PLUS), None)


def find_discrete_spectrum(
    field: Field, searchbox: _Box, tol: float, bg: Background, t0: float = 0.0
) -> list[complex]:
    """Distinct zeros of det a(z) inside a rectangle of D+ (upper half plane).

    det a is evaluated on one mesh, built once for the search, at composite
    Gauss-Legendre nodes on the box boundary (_PANELS panels of _NODES).
    The unwrapped phase gives the winding N, the moments of d log a by parts
    the power sums of the zeros (Delves-Lyness), and the Hankel pencil of
    the moments the distinct zeros; its numerical rank is their number, so a
    multiple zero comes back once (Kravanja-Van Barel).

    A zero on or near the contour (a phase step between neighbouring nodes
    above pi/2, |det a| at a node below _DIP times both neighbours, or a
    located zero closer to the boundary than half a panel) moves every edge
    outward by two panel lengths, at most _MOVES times and only while the
    box stays in D+; each move, a zero left near the contour, a non-integer
    winding and multiplicities that are not positive integers summing to N
    are reported via NoConvergenceWarning, not fatally.
    """
    re0, re1, im0, im1 = searchbox
    if not (re1 > re0 and im1 > im0 and im0 > 0):
        raise ValueError("searchbox must be a rectangle in the upper half plane")
    box = (float(re0), float(re1), float(im0), float(im1))
    z, dz = _contour(box)
    off = _off_dplus(z, bg)
    if off is not None:
        raise ValueError(f"searchbox touches the complement of D+ at {off}")
    mesh = _mesh(field, tol, t0, bg)
    moves: list[_Box] = []
    while True:
        re0, re1, im0, im1 = box
        a = np.array([_det_a(mesh, complex(w), bg) for w in z])
        mag = np.abs(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.angle(np.roll(a, -1) / a)  # node j to j + 1, the last one closing the contour
        dip = mag < _DIP * np.minimum(np.roll(mag, 1), np.roll(mag, -1))
        near = not mag.all() or bool(np.abs(steps).max() > 0.5 * math.pi or dip.any())
        w = float(np.nansum(steps)) / (2.0 * math.pi)
        N = max(0, round(w))
        panel = 2.0 * (re1 - re0 + im1 - im0) / _PANELS
        roots, mult, sv = np.empty(0, complex), np.empty(0), np.empty(0)
        if N and mag.all():
            roots, mult, sv = _moment_zeros(z, dz, a, box, N, steps)
            edges = (roots.real - re0, re1 - roots.real, roots.imag - im0, im1 - roots.imag)
            near = near or bool(np.any(np.minimum.reduce(edges) < 0.5 * panel))
        if not near or len(moves) == _MOVES:
            break
        grown = (re0 - 2.0 * panel, re1 + 2.0 * panel, im0 - 2.0 * panel, im1 + 2.0 * panel)
        gz, gdz = _contour(grown)
        if _off_dplus(gz, bg) is not None:
            break
        box, z, dz = grown, gz, gdz
        moves.append(box)
        warnings.warn(f"zero of det a on or near the contour; box moved to {box}", NoConvergenceWarning)
    if near:
        warnings.warn(f"zero of det a near the contour of {box}, which cannot move on", NoConvergenceWarning)
    if abs(w - N) > 0.25:
        warnings.warn(f"non-integer winding {w:.3f} around {box}", NoConvergenceWarning)
    m = np.rint(mult.real)
    if np.any(m < 1) or m.sum() != N or np.any(np.abs(mult - m) > 0.25):
        warnings.warn(f"multiplicities {mult} in {box} are not integers summing to {N}", NoConvergenceWarning)
    kept: list[complex] = []
    for zr in roots:
        if abs(abs(zr) - bg.k0) >= 1e-6 and abs(zr.imag) >= 1e-6:
            kept.append(complex(zr))
        else:
            warnings.warn(f"zero {zr} rejected: too close to the continuous spectrum", NoConvergenceWarning)
    _log.debug("find_discrete_spectrum: %d nodes, winding %.4f, Hankel singular values %s, zeros %s, "
               "multiplicities %s, contour moves %s",
               len(z), w, sv.tolist(), kept, mult.real.round(3).tolist(), moves)
    return kept
