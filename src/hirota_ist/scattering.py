"""Numerical direct scattering at fixed time.

Modified Jost eigenfunctions mu (mu_x = U mu + i lambda mu sigma3; bounded in
the decaying directions, unlike the plane-wave-dressed solutions) are
propagated across a truncated line, matched at x = 0 into the scattering
matrix, and probed for the symmetry identities.  Discrete eigenvalues are
zeros of det a(z): det a is evaluated on the boundary of a search box at the
nodes of nested Clenshaw-Curtis panels, in rounds that double only the panels
whose a-posteriori estimate asks for it, and the zeros are the eigenvalues of
the Hankel pencil of the contour moments of d log a (Delves-Lyness, Math.
Comp. 21, 1967; multiple zeros as in Kravanja-Van Barel, LNM 1727, 2000).

Propagation is the 3-node, 6th-order Magnus exponential integrator
(Blanes-Casas-Ros, BIT 40, 2000; survey: Blanes-Casas-Oteo-Ros, Phys. Rep.
470, 2009) on a graded mesh, with Q at the Gauss nodes 1/2 and
1/2 +- sqrt(15)/10 of every cell from one call of the array field.  The step
is exact where Q is constant, and its local error grows like h^7 times the
variation of Q.  One array call probes Q at the centres of cells of about
R h0, h0 = H (tol/1e-8)^(1/6) / max(1, k0) (the field and k(z) vary on the
scale 1/k0); g, the larger of |Q - Q_lim| (the nearer of the outermost
probes of the two sides) and |Delta Q| to the next probe,
widened by one probe cell, splits each probe cell into equal cells of
h0 clip((g_max/g)^(1/7), 1, R).  No cell then carries more local error than
an h0 cell where the field varies most, so tol keeps its meaning on any
field (errors scale like tol, as on a uniform h0 mesh), and a field that
sits on its background gets only cells of R h0.  The left side starts from
the field's own limit, its sample at (-2L, t0) in the same probe call; the
right from bg.Qplus.  L doubles from L0 up to L_MAX while that sample fails
Q Q^dag = k0^2 I (NoBackground at L_MAX) or Q(-L + p/2) or Q(L - p/2), p the
probe cell, is farther than tol/10 from its limit (NoConvergenceWarning at
L_MAX).  U = P(x) + k(z) S, so a cell's Omega is a cubic A0 + k A1 + k^2 A2
+ k^3 A3 whose coefficients do not depend on z.  Cell exponentials (each
scaled and squared as its own norm needs), times the column shift
e^{+-i lambda h} that keeps the analytic pair bounded, are multiplied in
pairs along the cells of each z.  The z travel as arrays: one spectral
point of arrays, then (n, 4, 4) stacks.  A call builds one mesh, which all
its z share, and exponentiates the cells of _BLOCK // n of its z (n cells
a side) as one block, z-major, small enough to stay in cache; a side of
more than _BLOCK cells goes _BLOCK cells of one z at a time.  Each step is
elementwise, along one z's cells or on one z's matrix, so a z gets the
same bits in any batch.  A call allocates one workspace of six 4x4 stacks
of a block, and every block writes into it with out=: the Horner sum in
k, the Taylor terms, the shift and the pairwise products.  A block sorts
its cells by their squarings, most first, gathers those with any once,
squares in round j the prefix of cells with more than j, in place, and
scatters them back once.  The 4x4 products are np.einsum's, whose complex
products use no FMA, and every ufunc keeps the operand order of the plain
expression (k Omega, (A + B) + AB, 2F + F F): numpy's AVX-512 loops round
k * x, x * k and x *= k differently, so the order is part of the bits.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import astuple, dataclass
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

H = 0.03  # shortest cell at tol = 1e-8 and k0 <= 1 (over k0 above); a crossing's error scales like h^6
R = 16  # longest cell over the shortest; probe cells are about R of the shortest long
L0, L_MAX = 20.0, 80.0  # first and largest truncation length; L doubles from L0 while the field has not settled
_BLOCK = 512  # cells x z exponentiated at once (and cells built at once): a 4x4 stack of 128 KB stays in cache
_GAUSS = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])  # Gauss-Legendre nodes on a unit cell
_THETA = 0.1  # bound on |Omega|_1 for the degree-9 Taylor sum (remainder < 3e-17)
_TAYLOR = [1.0 / math.factorial(j) for j in range(10)]
_DIAG = np.arange(4)
_BASE, _DEGREE = 12, 8  # Clenshaw-Curtis panels on the search contour, and the intervals of each at first
_MAX_DEGREE = 128  # intervals past which a panel's doubling stops
_NEAR = 1.0 / 72.0  # a located zero this share of the perimeter from an unresolved panel is near the contour
_RANK = 1e-8  # Hankel singular values below this fraction of the largest are noise
_DIP = 0.25  # |det a| at a node below this fraction of both neighbours: zero on the contour
_MOVES = 2  # contour moves before a zero near the boundary is reported, not avoided

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class _Cells:
    """One side's Omega = sum_j k^j A[j] as A (4, 4, 4, n) in travel order, lengths (n,), |A[j]|_1 (4, n), start Q."""

    A: np.ndarray
    h: np.ndarray
    norm: np.ndarray
    limit: CMat2


def _comm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def _cells(Q: np.ndarray, sigma: int, steps: np.ndarray, limit: CMat2) -> _Cells:
    """Omega of the cells of signed lengths steps whose Gauss-node samples are Q (n, 3, 2, 2), by powers of k."""
    A = np.empty((4, 4, 4, len(Q)), dtype=complex)
    for lo in range(0, len(Q), _BLOCK):  # in blocks, to bound the temporaries
        cut = slice(lo, lo + _BLOCK)
        h = steps[cut, None, None]
        P1, P2, P3 = (embed(Q[cut, i], sigma) for i in range(3))
        a1, s1 = h * P2, -1j * h * SIGMA3  # alpha_1 = a1 + k s1; alpha_2 and alpha_3 are free of k
        a2 = math.sqrt(15.0) / 3.0 * h * (P3 - P1)
        a3 = 10.0 / 3.0 * h * (P3 - 2.0 * P2 + P1)
        c, cs = _comm(a1, a2), _comm(s1, a2)  # C_1 = c + k cs
        x, xs = -20.0 * a1 - a3 + c, -20.0 * s1 + cs  # -20 alpha_1 - alpha_3 + C_1 = x + k xs
        e = 2.0 * a3 + c
        y = a2 - _comm(a1, e) / 60.0  # alpha_2 + C_2 = y + k y1 + k^2 y2
        y1 = -(_comm(s1, e) + _comm(a1, cs)) / 60.0
        y2 = -_comm(s1, cs) / 60.0
        Om = (a1 + a3 / 12.0 + _comm(x, y) / 240.0, s1 + (_comm(x, y1) + _comm(xs, y)) / 240.0,
              (_comm(x, y2) + _comm(xs, y1)) / 240.0, _comm(xs, y2) / 240.0)
        A[..., cut] = np.moveaxis(np.stack(Om), 1, -1)
    return _Cells(A, np.abs(steps), np.abs(A).sum(axis=1).max(axis=1), limit)


def _field_at(field: Field, xs: np.ndarray, t0: float) -> np.ndarray:
    Q = np.asarray(field(xs, t0), dtype=complex)
    bad = ~np.isfinite(Q).all(axis=(-2, -1))
    if bad.any():
        raise IntegrationFailure(f"non-finite field sample at x = {xs[bad][0]}, t = {t0}")
    return Q


def _mesh(field: Field, tol: float, t0: float, bg: Background) -> tuple[_Cells, _Cells]:
    """(left, right) cells: [-L, 0] travelled upward, [0, L] downward, L and grading as the module states."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    h0 = H * (tol / 1e-8) ** (1.0 / 6.0) / max(1.0, bg.k0)
    L, evals = L0, 0
    while True:
        m = math.ceil(L / (R * h0))  # probe cells a side
        p = L / m
        probe = p * (np.arange(2 * m) + 0.5) - L
        Qs = _field_at(field, np.concatenate(([-2.0 * L], probe)), t0)
        Qlim, Qp, evals = Qs[0], Qs[1:], evals + len(Qs)
        dev, bound = background_defect(Qlim, bg.k0)
        edges = np.abs(Qlim - Qp[0]).max(), np.abs(Qp[-1] - bg.Qplus).max()
        if L >= L_MAX or (dev <= bound and max(edges) <= 0.1 * tol):
            break
        L *= 2.0
    if dev > bound:
        raise NoBackground(f"field does not settle: |Q Q^dag - k0^2 I| = {dev:.2g} at x = {-2 * L:g}, t = {t0:g}")
    if max(edges) > 0.1 * tol:
        warnings.warn(f"field not settled at L = {L:g}: its outermost probes are {edges[0]:.2g} (left) and "
                      f"{edges[1]:.2g} (right) from its limits, above tol/10, at t = {t0:g}", NoConvergenceWarning)
    g = np.minimum(*(np.abs(Qp - Qp[i]).max(axis=(1, 2)) for i in (0, -1)))
    g[:-1] = np.maximum(g[:-1], np.abs(np.diff(Qp, axis=0)).max(axis=(1, 2)))
    g = np.pad(g, 1)
    g = np.maximum.reduce([g[:-2], g[1:-1], g[2:]])
    ratio = np.divide(g.max(), g, out=np.full_like(g, float(R) ** 7), where=g > 0)  # R^7 where g = 0
    stretch = np.clip(ratio ** (1.0 / 7.0), 1.0, R)
    n = np.ceil(p / (h0 * stretch) - 1e-9).astype(int)  # cells a probe cell; p <= R h0 makes one where stretch = R
    h = np.repeat(p / n, n)
    x0 = np.cumsum(h) - h - L  # left edges, ascending over [-L, L]
    Q = _field_at(field, (x0[:, None] + h[:, None] * _GAUSS).ravel(), t0).reshape(-1, 3, 2, 2)
    left = n[:m].sum()
    sides = (_cells(Q[:left], bg.sigma, h[:left], Qlim),
             _cells(Q[left:][::-1, ::-1], bg.sigma, -h[left:][::-1], bg.Qplus))
    if not all(np.isfinite(c.norm).all() for c in sides):
        raise IntegrationFailure(f"Magnus generators overflow for the field at t = {t0}")
    _log.debug("Jost mesh L=%g tol=%g t0=%g: %d probes, cells %d left %d right, length %.3g to %.3g, "
               "%d field evaluations, at most %d squarings at k = 0, edges |Q(-2L) - Q(-L + p/2)| %.2g and "
               "|Q(L - p/2) - Q+| %.2g, |Q Q^dag - k0^2 I| %.2g at -2L",
               L, tol, t0, 2 * m, left, len(h) - left, h.min(), h.max(), evals + 3 * len(h),
               max(_squarings(c, np.zeros(1)).max() for c in sides), *edges, dev)
    return sides


def _mm(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cellwise 4x4 products of (4, 4, ...) stacks."""
    return np.einsum("ik...,kj...->ij...", A, B, out=out)


def _squarings(cells: _Cells, k: np.ndarray) -> np.ndarray:
    """Per z and cell, (len(k), n), the halvings that bring |Omega|_1 <= sum_j |k|^j |A[j]|_1 under _THETA."""
    b = np.abs(k)[:, None] ** np.arange(4) @ cells.norm
    return np.ceil(np.log2(np.maximum(b, _THETA) / _THETA)).astype(int)


def _stack(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The head of a workspace row as a contiguous (4, 4, *shape) stack."""
    return buf[: 16 * math.prod(shape)].reshape(4, 4, *shape)


def _expm1(ws: np.ndarray, squarings: np.ndarray) -> np.ndarray:
    """exp(Omega) - I by a degree-9 Taylor sum (Paterson-Stockmeyer), then each cell's squarings.

    Omega is the (4, 4, m) stack at the head of ws[0], m = len(squarings); the result is written to
    ws[3] and returned, and the other rows are scratch.  The cells are sorted by their squarings,
    most first, so that round j squares the prefix of cells with more than j, in place.
    """
    m = len(squarings)
    om, om2, om3, F, T, U = (_stack(b, m) for b in ws)
    _mm(om, om, om2)
    _mm(om2, om, om3)

    def poly(j):  # c_j I + c_{j+1} Omega + c_{j+2} Omega^2, in F
        np.multiply(_TAYLOR[j + 1], om, out=F)
        np.add(F, np.multiply(_TAYLOR[j + 2], om2, out=U), out=F)
        F[_DIAG, _DIAG] += _TAYLOR[j]

    poly(6)
    np.add(F, np.multiply(_TAYLOR[9], om3, out=U), out=F)
    _mm(om3, F, T)
    poly(3)
    _mm(om3, np.add(F, T, out=F), T)
    np.add(np.add(om, np.multiply(_TAYLOR[2], om2, out=F), out=F), T, out=F)
    order = np.argsort(-squarings, kind="stable")
    s = squarings[order]
    i = order[: np.count_nonzero(s)]
    if i.size:
        G = np.take(F, i, axis=-1, out=_stack(ws[0], i.size), mode="clip")
        for j in range(s[0]):
            p = np.count_nonzero(s > j)
            Gp, P = G[..., :p], _mm(G[..., :p], G[..., :p], _stack(ws[1], p))
            np.add(np.multiply(2.0, Gp, out=Gp), P, out=Gp)
        F[..., i] = G
    return F


def _z_per_block(n: int) -> int:
    """z that share one block of _transfer over n cells."""
    return max(1, _BLOCK // n)


def _blocks(n: int, nz: int) -> int:
    """Blocks that _transfer exponentiates for nz z over n cells."""
    return math.ceil(nz / _z_per_block(n)) * math.ceil(n / _BLOCK)


def _transfer(cells: _Cells, k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """e^{w h_{n-1}} exp(Omega_{n-1}) ... e^{w h_0} exp(Omega_0) over the cells of one side, (len(k), 4, 4).

    One product for each pair (k, w) of the 1-D arrays k and w.  Factors
    are carried as I + F, (I + A)(I + B) = I + (A + B + AB), so rounding
    scales with the small |F| = |exp(Omega) - I|, not with 1.  The cells of
    _z_per_block(n) z are exponentiated at once, z-major; the products run
    along the cells of each z, _BLOCK cells at a time.  Every block works in
    one workspace of six 4x4 stacks of a block, allocated once per call.
    """
    n = len(cells.h)
    per = _z_per_block(n)
    ws = np.empty((6, 16 * min(per, len(k)) * min(n, _BLOCK)), dtype=complex)
    out = np.empty((len(k), 4, 4), dtype=complex)
    for z0 in range(0, len(k), per):
        zs = slice(z0, z0 + per)
        s = _squarings(cells, k[zs])
        total = None
        for lo in range(0, n, _BLOCK):
            cut = slice(lo, lo + _BLOCK)
            shape = s[:, cut].shape
            om = _stack(ws[0], *shape)
            np.copyto(om, cells.A[3, ..., None, cut])
            for j in (2, 1, 0):  # Horner's rule in k
                np.add(np.multiply(k[zs, None], om, out=om), cells.A[j, ..., None, cut], out=om)
            np.multiply(om, 0.5 ** s[:, cut], out=om)
            F = _expm1(ws, s[:, cut].ravel()).reshape(om.shape)
            wh, half, sh = (b[: math.prod(shape)].reshape(shape) for b in ws[:3])  # rows free after _expm1
            np.multiply(w[zs, None], cells.h[cut], out=wh)
            np.sinh(np.multiply(0.5, wh, out=half), out=sh)
            np.multiply(F, np.exp(wh, out=wh), out=F)  # times e^{w h}
            np.multiply(np.multiply(2.0, np.exp(half, out=half), out=half), sh, out=sh)  # e^{w h} - 1
            F[_DIAG, _DIAG] += sh
            here, spare = ws[3], ws[0]
            while F.shape[-1] > 1:  # (4, 4, z, cells): pairs along the cells, from one row to the other
                m = F.shape[-1]
                A, B = F[..., 1:m:2], F[..., 0 : m - 1 : 2]
                P = _stack(spare, shape[0], (m + 1) // 2)
                AB = _mm(A, B, _stack(ws[1], shape[0], m // 2))
                np.add(np.add(A, B, out=P[..., : m // 2]), AB, out=P[..., : m // 2])
                if m % 2:
                    P[..., -1] = F[..., -1]
                F, here, spare = P, spare, here
            total = F.copy() if total is None else F + total + _mm(F, total)  # F is in the workspace
        out[zs] = np.moveaxis(np.eye(4)[..., None] + total[..., 0], -1, 0)
    return out


def _jost(mesh, sp: SpectralPoint, side: str, bg: Background, analytic_only: bool = False) -> np.ndarray:
    """mu(0) of one side at each z of sp: all four columns, (n, 4, 4), or only the bounded pair, (n, 4, 2).

    The bounded (analytic) pair is M / N in D+, the barred pair in D-; the
    other pair grows like e^{2 |Im lambda| L} off the continuous spectrum.
    """
    left = side == "left"
    cells = mesh[0] if left else mesh[1]
    X = asymptotic_eigenvectors(sp, cells.limit, bg)  # rejects branch points
    eps = np.where(sp.lam.imag >= 0, 1.0, -1.0)
    P = _transfer(cells, sp.k, 1j * sp.lam * eps)
    analytic = (1.0 if left else -1.0) * _SGN == eps[:, None]  # (n, 4), two columns a row
    if analytic_only:
        cols = np.where(analytic[:, :1], [0, 1], [2, 3])
        mu = P @ np.take_along_axis(X, cols[:, None, :], axis=2)
    else:
        mu = P @ (X * np.where(analytic, 1.0, np.exp(-2j * sp.lam * cells.h.sum() * eps)[:, None])[:, None, :])
    bad = np.flatnonzero(~np.isfinite(mu).all(axis=(1, 2)))
    if bad.size:
        raise IntegrationFailure(f"non-finite Jost solution at z = {sp.z[bad[0]]} ({side})")
    return mu


def _points(z, bg: Background) -> SpectralPoint:
    """The spectral point of a scalar or a 1-D array of z, with fields of shape (n,)."""
    if np.ndim(z) > 1:
        raise ValueError("z must be a scalar or a 1-D array")
    return uniformize(np.ravel(z), bg)


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
    mu = _jost(mesh, _points(z, bg), side, bg)
    return mu[0] if np.ndim(z) == 0 else mu


def scattering_matrix(field: Field, z, tol: float, bg: Background, t0: float = 0.0):
    """Scattering matrix S with Phi = Psi S, blocks, and reflection data.

    Phi(0) and Psi(0) are rebuilt from the two modified-eigenfunction halves
    by restoring the phase factor e^{i theta(0, t0) sigma3}; that factor is
    what makes S independent of t0.  A scalar z gives one sample, a 1-D
    array of z the list of samples.
    """
    mesh = _mesh(field, tol, t0, bg)
    sp = _points(z, bg)
    ph = np.exp(1j * theta(0.0, t0, sp.z, bg)[:, None, None] * _SGN)  # scales the columns
    Phi, Psi = (_jost(mesh, sp, side, bg) * ph for side in ("left", "right"))
    d = np.linalg.det(Psi)
    bad = np.flatnonzero(np.abs(d) < 1e-12)
    if bad.size:
        raise SingularWronskian(f"det Psi(0) = {d[bad[0]]} at z = {sp.z[bad[0]]}")
    S = np.linalg.solve(Psi, Phi)
    a, bbar, b, abar = S[:, :2, :2], S[:, :2, 2:], S[:, 2:, :2], S[:, 2:, 2:]
    rho, rhobar = b @ inv2(a), bbar @ inv2(abar)
    out = [ScatteringSample(complex(w), t0, *m) for w, *m in zip(sp.z, S, a, b, abar, bbar, rho, rhobar)]
    return out[0] if np.ndim(z) == 0 else out


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
        return max(astuple(self)[:-1])  # every field but n_samples


def audit_symmetries(samples: Sequence[ScatteringSample], bg: Background) -> SymmetryAuditReport:
    """Check the three scattering-matrix symmetries on spectrum samples.

    Needs the sample set closed under z -> z* and z -> sigma k0^2/z (real
    points are their own conjugates).
    """
    J = np.diag([1.0, 1.0, -bg.sigma, -bg.sigma])
    Qpd = dagger(bg.Qplus)
    devs = [[0.0] * 5]
    for s in samples:
        conj_s = find_partner(samples, complex(np.conj(s.z)), lambda u: u.z)
        anti_s = find_partner(samples, bg.sigma * bg.k0**2 / s.z, lambda u: u.z)
        devs.append([np.abs(D).max() for D in (
            dagger(conj_s.S) @ J @ s.S - J,
            s.S.T @ SIGMA2 @ s.S - SIGMA2,
            s.rho - s.rho.T,
            anti_s.rho + (bg.sigma / bg.k0**2) * Qpd @ s.rhobar @ Qpd,
            conj_s.abar - np.conj(s.a),
        )])
    return SymmetryAuditReport(*(float(d) for d in np.max(devs, axis=0)), n_samples=len(samples))


def _det_a(mesh, sp: SpectralPoint, bg: Background) -> np.ndarray:
    W = np.concatenate([_jost(mesh, sp, side, bg, analytic_only=True) for side in ("left", "right")], axis=-1)
    return np.linalg.det(W) / sp.gamma**2


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
    a = _det_a(mesh, _points(z, bg), bg)
    return complex(a[0]) if np.ndim(z) == 0 else a


@functools.cache
def _cc(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes (1 - cos(pi j/n))/2, j = 0..n, on [0, 1] and their weights (n even)."""
    theta = math.pi * np.arange(n + 1) / n
    k = np.arange(1, n // 2)
    w = (1.0 - 2.0 * (np.cos(2.0 * np.outer(theta, k)) / (4.0 * k**2 - 1.0)).sum(axis=1)
         - np.cos(n * theta) / (n * n - 1.0)) / n
    w[[0, -1]] = 0.5 / (n * n - 1.0)
    t = 0.5 * (1.0 - np.cos(theta))
    t.flags.writeable = w.flags.writeable = False  # shared by every caller
    return t, w


def _panels(box: _Box) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, extents (end - start) and intervals (_DEGREE) of the _BASE panels on the boundary of box.

    Counterclockwise from the corner re0 + i im0; each edge gets a share of
    the panels in proportion to its length, at least one.
    """
    re0, re1, im0, im1 = box
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1), complex(re0, im0)]
    perimeter = 2.0 * (re1 - re0 + im1 - im0)
    start, extent = [], []
    for a, b in zip(corners, corners[1:]):
        n = max(1, round(_BASE * abs(b - a) / perimeter))
        start.append(a + (b - a) * np.arange(n) / n)
        extent.append(np.full(n, (b - a) / n))
    return np.concatenate(start), np.concatenate(extent), np.full(sum(map(len, start)), _DEGREE)


def _contour(start: np.ndarray, extent: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The distinct nodes of panels of n[q] Clenshaw-Curtis intervals, in contour order.

    Each panel gives its nodes but its end, which is the next panel's
    start; the first node is the corner re0 + i im0.  A panel's nodes at n
    intervals are the even ones at 2n, so doubling n keeps every node.
    """
    return np.concatenate([s + e * _cc(m)[0][:-1] for s, e, m in zip(start, extent, n)])


def _frame(box: _Box) -> tuple[complex, float]:
    """The centre c and the half diagonal r of box."""
    re0, re1, im0, im1 = box
    return complex(0.5 * (re0 + re1), 0.5 * (im0 + im1)), 0.5 * math.hypot(re1 - re0, im1 - im0)


def _moments(z: np.ndarray, a: np.ndarray, steps: np.ndarray, box: _Box, N: int, extent: np.ndarray,
             n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power sums s_p, p < 2N, of the zeros in u = (z - c)/r, and each panel's error estimate.

    c is the centre and r the half diagonal of box.  With log a unwrapped
    from the corner u0 by the phase steps, s_p = u0^p N - (p/2 pi i) oint
    u^(p-1) log a du; the contour closes at u0 on the branch log a(u0) +
    2 pi i N, so the corner carries both of its values.  A panel's estimate
    is the largest change of its share of the s_p from its embedded rule of
    half as many intervals to its own.
    """
    c, r = _frame(box)
    u = (np.append(z, z[0]) - c) / r
    log_a = np.log(np.abs(a)) + 1j * (np.angle(a[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1]))))
    log_a = np.append(log_a, log_a[0] + 2j * math.pi * N)
    p = np.arange(2 * N)
    f = u[None, :] ** np.maximum(p - 1, 0)[:, None] * log_a * (p / (2j * math.pi))[:, None]
    ends = np.concatenate(([0], np.cumsum(n)))
    full, half = (np.array([f[:, i : i + m + 1 : d] @ _cc(m // d)[1] * (e / r)
                            for i, m, e in zip(ends, n, extent)]) for d in (1, 2))
    return u[0] ** p * N - full.sum(axis=0), np.abs(full - half).max(axis=1, initial=0.0)


def _moment_zeros(s: np.ndarray, box: _Box) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct zeros in box, their multiplicities and the Hankel singular values, from the power sums s.

    The zeros are the eigenvalues of the pencil ([s_(i+j+1)], [s_(i+j)])
    projected on the singular vectors of [s_(i+j)] above _RANK.  An
    eigenvalue outside box, or whose multiplicity rounds below 1, is noise
    that passed the rank cut: it is dropped with a NoConvergenceWarning.
    """
    re0, re1, im0, im1 = box
    c, r = _frame(box)
    N = len(s) // 2
    H0, H1 = (s[np.add.outer(np.arange(N), np.arange(N)) + k] for k in (0, 1))
    U, sv, Vh = np.linalg.svd(H0)
    m = int(np.sum(sv > _RANK * sv[0]))
    Um, Vm = U[:, :m], Vh[:m].conj().T
    u = np.linalg.eigvals((Um.conj().T @ H1 @ Vm) / sv[:m, None])
    mult = np.linalg.lstsq(u[None, :] ** np.arange(N)[:, None], s[:N], rcond=None)[0]
    roots = c + r * u
    keep = (re0 <= roots.real) & (roots.real <= re1) & (im0 <= roots.imag) & (roots.imag <= im1)
    keep &= np.rint(mult.real) >= 1
    if not keep.all():
        warnings.warn(f"Hankel eigenvalues {roots[~keep]} with multiplicities {mult[~keep].real.round(3)} "
                      f"dropped as noise: outside {box} or of multiplicity below 1", NoConvergenceWarning)
    return roots[keep], mult[keep], sv


def _off_dplus(z: np.ndarray, bg: Background) -> complex | None:
    """The first contour node outside D+, or None."""
    return next((complex(w) for w in z if classify_region(complex(w), bg) is not Region.D_PLUS), None)


def find_discrete_spectrum(
    field: Field, searchbox: _Box, tol: float, bg: Background, t0: float = 0.0
) -> list[complex]:
    """Distinct zeros of det a(z) inside a rectangle of D+ (upper half plane).

    det a is evaluated on one mesh, built once for the search, at the nodes
    of composite Clenshaw-Curtis panels on the box boundary (_BASE panels of
    _DEGREE intervals at first).  The unwrapped phase gives the winding N,
    the moments of d log a by parts the power sums of the zeros
    (Delves-Lyness), and the Hankel pencil of the power sums the distinct
    zeros; its numerical rank is their number, so a multiple zero comes
    back once (Kravanja-Van Barel).  The search refines in rounds: every
    panel whose error estimate (see _moments) exceeds tol times its
    share of the perimeter doubles its intervals, and det a is evaluated
    only at the new nodes, so no value is thrown away (Austin, Kravanja &
    Trefethen, SIAM J. Numer. Anal. 52, 2014).  A panel past _MAX_DEGREE
    intervals stops the refinement with a NoConvergenceWarning.

    A zero on or near the contour (a phase step between neighbouring nodes
    above pi/2, |det a| at a node below _DIP times both neighbours, or a
    located zero closer than _NEAR times the perimeter to a panel whose
    estimate still misses its target) moves
    every edge outward by four times that distance and refines anew, at
    most _MOVES times and only while the box stays in D+; each move, a zero
    left near the contour, a non-integer winding and multiplicities that are
    not positive integers summing to N are reported via
    NoConvergenceWarning, not fatally.
    """
    re0, re1, im0, im1 = searchbox
    if not (re1 > re0 and im1 > im0 and im0 > 0):
        raise ValueError("searchbox must be a rectangle in the upper half plane")
    box = (float(re0), float(re1), float(im0), float(im1))
    start, extent, n = _panels(box)
    z = _contour(start, extent, n)
    off = _off_dplus(z, bg)
    if off is not None:
        raise ValueError(f"searchbox touches the complement of D+ at {off}")
    mesh = _mesh(field, tol, t0, bg)
    moves: list[_Box] = []
    rounds: list[str] = []
    nz = blocks = squarings = most = 0

    def evaluate(z: np.ndarray) -> np.ndarray:
        nonlocal nz, blocks, squarings, most
        sp = _points(z, bg)
        s = [_squarings(c, sp.k) for c in mesh]
        nz, blocks = nz + len(z), blocks + sum(_blocks(len(c.h), len(z)) for c in mesh)
        squarings, most = squarings + sum(map(np.sum, s)), max(most, *map(np.max, s))
        return _det_a(mesh, sp, bg)

    while True:
        re0, re1, im0, im1 = box
        perimeter = 2.0 * (re1 - re0 + im1 - im0)
        a, new = evaluate(z), len(z)
        while True:  # refinement rounds on this box
            mag = np.abs(a)
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.angle(np.roll(a, -1) / a)  # node j to j + 1, the last one closing the contour
            dip = mag < _DIP * np.minimum(np.roll(mag, 1), np.roll(mag, -1))
            near = not mag.all() or bool(np.abs(steps).max() > 0.5 * math.pi or dip.any())
            w = float(np.nansum(steps)) / (2.0 * math.pi)
            N = max(0, round(w))
            rounds.append(f"{len(z)} nodes ({new} new z)")
            if not N or not mag.all():
                break
            s, est = _moments(z, a, steps, box, N, extent, n)
            target = tol * np.abs(extent) / perimeter
            grow, worst = est > target, int(np.argmax(est / target))
            rounds[-1] += (f", largest estimate {est[worst]:.2g} against {target[worst]:.2g}, "
                           f"{grow.sum()} of {len(n)} panels refined")
            if not grow.any():
                break
            if n[grow].max() >= _MAX_DEGREE:
                warnings.warn(f"a contour panel of {box} at {_MAX_DEGREE} intervals estimates {est[worst]:.2g} "
                              f"against {target[worst]:.2g}", NoConvergenceWarning)
                break
            fresh = np.concatenate([np.arange(2 * m) % 2 == 1 if g else np.zeros(m, bool) for m, g in zip(n, grow)])
            n = np.where(grow, 2 * n, n)
            z, old = _contour(start, extent, n), a
            off = _off_dplus(z[fresh], bg)
            if off is not None:
                raise ValueError(f"search contour touches the complement of D+ at {off}")
            a = np.empty(len(z), dtype=complex)
            a[~fresh], a[fresh], new = old, evaluate(z[fresh]), fresh.sum()
        roots, mult, sv = np.empty(0, complex), np.empty(0), np.empty(0)
        if N and mag.all():
            roots, mult, sv = _moment_zeros(s, box)
            r = roots[:, None]  # the distance of each zero to the nearest point of each panel
            gap = np.abs(r - start - extent * np.clip(((r - start) / extent).real, 0.0, 1.0))
            near = near or bool(np.any((gap < _NEAR * perimeter) & grow))
        if not near or len(moves) == _MOVES:
            break
        d = 4.0 * _NEAR * perimeter
        grown = (re0 - d, re1 + d, im0 - d, im1 + d)
        panels = _panels(grown)
        grown_z = _contour(*panels)
        if _off_dplus(grown_z, bg) is not None:
            break
        box, (start, extent, n), z = grown, panels, grown_z
        moves.append(box)
        rounds.append("contour moved")
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
    _log.debug("find_discrete_spectrum: %d nodes, rounds [%s], cells %d left %d right x %d z propagated in %d "
               "blocks with %d squarings, at most %d a cell, winding %.4f, Hankel singular values %s, zeros %s, "
               "multiplicities %s, contour moves %s", len(z), "; ".join(rounds), len(mesh[0].h), len(mesh[1].h), nz,
               blocks, squarings, most, w, sv.tolist(), kept, mult.real.round(3).tolist(), moves)
    return kept
