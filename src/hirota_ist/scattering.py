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
variation of Q.  k0 is the only scale: the system is covariant under
(k0, alpha k0, beta; k0 zeta, k0 C; x/k0, t/k0^3), which maps Q to k0 Q and
z to k0 z and keeps det a, rho and S.  So lengths are in units of 1/k0, and
z and deviations of Q in units of k0.  One array call probes Q at the
centres of cells of about R h0, h0 = H (tol/1e-8)^(1/6) / k0; g, the larger
of |Q - Q_lim| (the nearer of the outermost probes of the two sides) and
|Delta Q| to the next probe, widened by one probe cell, splits each probe
cell into equal cells of h0 clip((g_max/g)^(1/7), 1, R).  No cell then
carries more local error than an h0 cell where the field varies most, so tol
keeps its meaning on any field (errors scale like tol, as on a uniform h0
mesh), and a field that sits on its background gets only cells of R h0.  The
left side starts from the field's own limit, its sample at (-2L, t0) in the
same probe call; the right from bg.Qplus.  L doubles from L0/k0 up to
L_MAX/k0 while that sample fails Q Q^dag = k0^2 I (NoBackground there) or
Q(-L + p/2) or Q(L - p/2), p the probe cell, is farther than tol k0/10 from
its limit (NoConvergenceWarning there).  U = P(x) + k(z) S, so a cell's
Omega is a cubic A0 + k A1 + k^2 A2 + k^3 A3 whose coefficients do not
depend on z, and S^T sigma2 S = sigma2 makes it Hamiltonian, with
eigenvalues +-a, +-b, so exp(Omega) - I is c0 I + Omega (s0 I + c1 Omega +
s1 Omega^2), by a series on Omega 2^-s squared s times (see _expm1): two 4x4
products a cell.  Cell exponentials, times the column shift e^{+-i lambda h}
that keeps the analytic pair bounded, are multiplied in pairs along the
cells of each z.
The z travel as arrays: one spectral point of arrays, then (4, 4, ...)
stacks, the layout of every 4x4 product here, the cells' generators included
(_mm: broadcast ufuncs over the whole stack).  A call builds one mesh,
which all its z share, and takes a side's z in blocks of whole sides:
the n cells of _BLOCK // n z, or of one z where n > _BLOCK, z-major, so
that a block's fixed cost of about 140 numpy calls stays small.  A block
exponentiates its cells and multiplies each z's in one pairwise tree.  Each
step is elementwise, along one z's cells or on one z's matrix, so a z gets
the same bits in any batch.  A call allocates one workspace, four 4x4 stacks
of a block and rows of 4 and 3 entries a cell x z, into which every block
writes with out=, the products' temporaries included.  Each block adds its
z, the cells x z it scaled and their most squarings to its side's tally,
which the DEBUG records of the zero search and of scattering_matrix read.
k = (z + sigma k0^2/z)/2 is two-to-one: z and its antipode sigma k0^2/z
share k, hence every cell's exp(Omega), and have opposite lambda.  The
shift w = i lambda eps takes eps = sign Im lambda off Sigma and sign
Re lambda on Sigma (spectral.shift_sign), so the two share w too.  A call
runs the blocks for the first z of each (k, w) only, and gives the other
that product times e^{(w - w_first) sum h}, 1 to a few ulps.  A spectrum
sample set closed under the map propagates half its z; det a's contour,
wholly in D+, holds no antipodes.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from collections import Counter
from dataclasses import astuple, dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .errors import IntegrationFailure, MissingPartner, NoBackground, NoConvergenceWarning, SingularWronskian
from .lax import asymptotic_eigenvectors
from .matrices import SIGMA2, SIGMA3, CMat2, dagger, inv2
from .spectral import (Background, Region, SpectralPoint, background_defect, classify_region, shift_sign, theta,
                       uniformize)
from .verification import Field

_SGN = np.array([1.0, 1.0, -1.0, -1.0])
_Box = tuple[float, float, float, float]  # (re0, re1, im0, im1)

H = 0.03  # shortest cell at tol = 1e-8, in units of 1/k0; a crossing's error scales like h^6
R = 16  # longest cell over the shortest; probe cells are about R of the shortest long
L0, L_MAX = 20.0, 80.0  # first and largest truncation length, in units of 1/k0; L doubles until the field settles
_MAX_PROBES = 4096  # probe cells a side past which a mesh is refused (up to R cells each); tol 1e-10 at L_MAX takes 360
_BLOCK = 2048  # cells x z a block takes, in whole sides (one z at least): it spreads ~140 numpy calls over them
_CELL_BLOCK = 512  # cells built at once, which bounds _cells' ~25 live (4, 4, n) temporaries to about 3 MB
_GAUSS = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])  # Gauss-Legendre nodes on a unit cell
# Taylor coefficients of C(x) = cosh sqrt(x) - 1 and S(x) = sinh sqrt(x) / sqrt(x), x^9 first, as (10, 2);
# where |a^2|, |b^2| <= 1 the first term left out moves c0, c1 by under 4.2e-18 and s0, s1 by under 2.1e-19
_SERIES = np.array([[(n > 0) / math.factorial(2 * n), 1 / math.factorial(2 * n + 1)] for n in range(9, -1, -1)])
_DIAG = np.arange(4)
_BASE, _DEGREE = 12, 8  # Clenshaw-Curtis panels on the search contour, and the intervals of each at first
_MAX_DEGREE = 128  # intervals past which a panel's doubling stops
_NEAR = 1.0 / 72.0  # a located zero this share of the perimeter from an unresolved panel is near the contour
_RANK = 1e-8  # Hankel singular values below this fraction of the largest are noise
_DIP = 0.25  # |det a| at a node below this fraction of both neighbours: zero on the contour
_MOVES = 2  # contour moves before a zero near the boundary is reported, not avoided
_ULPS = 4  # two z share a transfer when k and w agree within this many ulps of |k| + |lambda| (CLI antipodes: 0.6)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class _Cells:
    """One side's Omega = sum_j k^j A[j] as A (4, 4, 4, n) in travel order, lengths (n,), start Q.

    tally counts what _transfer ran over these cells: z, blocks, scaled cells x z and the most squarings.
    """

    A: np.ndarray
    h: np.ndarray
    limit: CMat2
    tally: Counter = dc_field(default_factory=Counter, compare=False)


def _comm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return _mm(A, B) - _mm(B, A)


def _cells(Q: np.ndarray, sigma: int, steps: np.ndarray, limit: CMat2) -> _Cells:
    """Omega of the cells of signed lengths steps whose Gauss-node samples are Q (n, 3, 2, 2), by powers of k."""
    A = np.empty((4, 4, 4, len(Q)), dtype=complex)
    for lo in range(0, len(Q), _CELL_BLOCK):  # in blocks, to bound the temporaries
        cut = slice(lo, lo + _CELL_BLOCK)
        h = steps[cut]
        P = np.zeros((3, 4, 4, len(h)), dtype=complex)  # the samples embedded, (4, 4, n) a node
        P[:, :2, 2:] = Q[cut].transpose(1, 2, 3, 0)
        P[:, 2:, :2] = sigma * Q[cut].conj().transpose(1, 3, 2, 0)
        P1, P2, P3 = P
        a1, s1 = h * P2, -1j * h * SIGMA3[..., None]  # alpha_1 = a1 + k s1; alpha_2 and alpha_3 are free of k
        d = -1j * h * (_SGN[:, None] - _SGN)[..., None]  # [s1, X] = d X, elementwise
        a2 = math.sqrt(15.0) / 3.0 * h * (P3 - P1)
        a3 = 10.0 / 3.0 * h * (P3 - 2.0 * P2 + P1)
        c, cs = _comm(a1, a2), d * a2  # C_1 = c + k cs
        x, xs = -20.0 * a1 - a3 + c, -20.0 * s1 + cs  # -20 alpha_1 - alpha_3 + C_1 = x + k xs
        e = 2.0 * a3 + c
        y = a2 - _comm(a1, e) / 60.0  # alpha_2 + C_2 = y + k y1 + k^2 y2
        y1 = -(d * e + _comm(a1, cs)) / 60.0
        y2 = -(d * cs) / 60.0
        np.add(a1 + a3 / 12.0, _comm(x, y) / 240.0, out=A[0, ..., cut])
        np.add(s1, (_comm(x, y1) + _comm(xs, y)) / 240.0, out=A[1, ..., cut])
        np.divide(_comm(x, y2) + _comm(xs, y1), 240.0, out=A[2, ..., cut])
        np.divide(_comm(xs, y2), 240.0, out=A[3, ..., cut])
    return _Cells(A, np.abs(steps), limit)


def _field_at(field: Field, xs: np.ndarray, t0: float) -> np.ndarray:
    Q = np.asarray(field(xs, t0), dtype=complex)
    bad = ~np.isfinite(Q).all(axis=(-2, -1))
    if bad.any():
        raise IntegrationFailure(f"non-finite field sample at x = {xs[bad][0]}, t = {t0}")
    return Q


def _mesh(field: Field, tol: float, t0: float, bg: Background) -> tuple[_Cells, _Cells]:
    """(left, right) cells: [-L, 0] travelled upward, [0, L] downward, L and grading as the module states."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, not {tol}")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, not {t0}")
    h0 = H * (tol / 1e-8) ** (1.0 / 6.0) / bg.k0
    L, evals, settled = L0 / bg.k0, 0, 0.1 * tol * bg.k0
    while True:
        m = L / (R * h0)  # probe cells a side, checked before it is rounded up and before any array is sized
        if not m <= _MAX_PROBES:
            raise ValueError(f"Jost mesh too fine: tol {tol:g} and k0 {bg.k0:g} ask for {m:.4g} probe cells a side "
                             f"at L = {L:g}, above {_MAX_PROBES}")
        m = math.ceil(m)
        p = L / m
        probe = p * (np.arange(2 * m) + 0.5) - L
        Qs = _field_at(field, np.concatenate(([-2.0 * L], probe)), t0)
        Qlim, Qp, evals = Qs[0], Qs[1:], evals + len(Qs)
        dev, bound = background_defect(Qlim, bg.k0)
        edges = np.abs(Qlim - Qp[0]).max(), np.abs(Qp[-1] - bg.Qplus).max()
        if L >= L_MAX / bg.k0 or (dev <= bound and max(edges) <= settled):
            break
        L *= 2.0
    if dev > bound:
        raise NoBackground(f"field does not settle: |Q Q^dag - k0^2 I| = {dev:.2g} at x = {-2 * L:g}, t = {t0:g}")
    if max(edges) > settled:
        warnings.warn(f"field not settled at L = {L:g}: its outermost probes are {edges[0]:.2g} (left) and "
                      f"{edges[1]:.2g} (right) from its limits, above tol k0/10, at t = {t0:g}", NoConvergenceWarning)
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
    if not all(np.isfinite(c.A).all() for c in sides):
        raise IntegrationFailure(f"Magnus generators overflow for the field at t = {t0}")
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("Jost mesh L=%g tol=%g t0=%g: %d probes, cells %d left %d right, length %.3g to %.3g, "
                   "%d field evaluations, edges |Q(-2L) - Q(-L + p/2)| %.2g and "
                   "|Q(L - p/2) - Q+| %.2g, |Q Q^dag - k0^2 I| %.2g at -2L",
                   L, tol, t0, 2 * m, left, len(h) - left, h.min(), h.max(), evals + 3 * len(h), *edges, dev)
    return sides


def _mm(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Cellwise 4x4 products of (4, 4, ...) stacks, sum_k A[:, k] B[k] as broadcast ufuncs: 7 numpy calls.

    tmp, of out's shape, holds each term; both are allocated where not given.
    numpy's complex loops may fuse a multiply and an add, but each entry of
    out comes from the same operations on its own cell's entries, so a cell
    gets the same bits alone, inside any stack and from a strided view.  out
    is written before A and B are read for the last time, so out and tmp
    must share no memory with A, B or each other.  Nothing here checks that,
    because the check costs about as much as a small product (a test does).
    """
    if out is None:
        out = np.empty((4, 4, *np.broadcast_shapes(A.shape[2:], B.shape[2:])), dtype=complex)
    tmp = np.empty_like(out) if tmp is None else tmp
    np.multiply(A[:, 0, None], B[None, 0], out=out)
    for j in (1, 2, 3):
        np.add(out, np.multiply(A[:, j, None], B[None, j], out=tmp), out=out)
    return out


def _stack(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The head of a workspace row as a contiguous (4, 4, *shape) stack."""
    return buf[: 16 * math.prod(shape)].reshape(4, 4, *shape)


def _invariants(om2: np.ndarray, tmp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = a^2 + b^2 and r = a^2 b^2 of a (4, 4, ...) stack of Omega^2, in one order at any length."""
    p = 0.5 * (om2[0, 0] + om2[1, 1] + om2[2, 2] + om2[3, 3])
    t4 = functools.reduce(np.add, np.multiply(om2, om2.swapaxes(0, 1), out=tmp).reshape(16, *om2.shape[2:]))
    return p, 0.5 * (p * p - 0.5 * t4)


def _squarings(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The least s >= 0 with (|p| + |r|) 4^-s <= 1; 0 where |p| + |r| is not finite, whose exponent frexp reads 0."""
    mant, e = np.frexp(np.abs(p) + np.abs(r))
    return np.maximum(e + (mant > 0.5), 0) // 2


def _expm1(ws: Sequence[np.ndarray], m: int, wh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(Omega + wh I) - I, into ws[3], of the (4, 4, m) Omega at the head of ws[0] and the (m,) wh, and the
    squarings of the cells that take any, most first.

    (x - a^2)(x - b^2) = x^2 - p x + r annihilates Omega^2, so exp(Omega) - I = C(Omega^2) + Omega S(Omega^2),
    C(x) = cosh sqrt(x) - 1 and S(x) = sinh sqrt(x) / sqrt(x), is c0 I + Omega (s0 I + c1 Omega + s1 Omega^2),
    whose product takes its temporary in Omega^2's row.
    The coefficients are the series of C and S modulo x^2 - p x + r of Omega 2^-s, s from _squarings (0 for
    most cells): no square root, exact through a = b (every background cell) and at the branch points' Jordan
    blocks.  Each squaring, 2F + F^2, is arithmetic on the four coefficients with y = Omega^2, y^2 = p y - r.
    The other rows are scratch: ws[4] holds the 4 m coefficients, ws[5] 2 m of the series', wh may sit past them.
    """
    om, om2, G, F = (_stack(b, m) for b in ws[:4])
    _mm(om, om, om2, G)
    p, r = _invariants(om2, G)
    sq = _squarings(p, r)
    big = np.flatnonzero(sq)
    big = big[np.argsort(-sq[big])]  # most squarings first, so that round j squares a prefix
    sq = sq[big]
    scale = np.ldexp(1.0, -2 * sq)  # Omega 2^-s has p 4^-s and r 16^-s, exactly
    pb, rb = p[big] * scale, r[big] * scale * scale
    p[big], r[big] = pb, rb
    cs = ws[4][: 4 * m].reshape(2, 2, m)
    (U, V), T = cs, ws[5][: 2 * m].reshape(2, m)
    cs[...] = _SERIES[:2, :, None]
    for f in _SERIES[2:, :, None]:  # Horner modulo x^2 - p x + r: (U x + V) x + f = (p U + V) x + f - r U
        np.multiply(U, r, out=T)
        np.add(np.multiply(U, p, out=U), V, out=U)
        np.subtract(f, T, out=V)
    C = cs[..., big]
    for n in np.count_nonzero(sq > np.arange(sq.max(initial=0))[:, None], axis=1):  # round j: cells of more than j
        ((c1, s1), (c0, s0)), pn, rn = C[..., :n], pb[:n], rb[:n]
        e0, e1 = s0 * s0 - rn * s1 * s1, (2.0 * s0 + pn * s1) * s1  # S^2 = e0 + e1 y
        a, pc = 1.0 + c0, pn * c1
        C[0, 0, :n], C[0, 1, :n], C[1, 0, :n], C[1, 1, :n] = (  # 2C + C^2 + y S^2 and 2S + 2CS, then Omega -> 2 Omega
            (c1 * (2.0 * a + pc) + e0 + pn * e1) / 4.0, (s1 * (a + pc) + c1 * s0) / 4.0,
            c0 * (1.0 + a) - rn * (c1 * c1 + e1), s0 * a - rn * c1 * s1)  # all four formed before C is written
        pb[:n], rb[:n] = 4.0 * pn, 16.0 * rn
    cs[..., big] = C
    cs *= np.exp(wh)  # e^{wh} (I + F) = I + (e^{wh} F + (e^{wh} - 1) I)
    cs[1, 0] += np.expm1(wh)
    (c1, s1), (c0, s0) = cs
    np.add(np.multiply(s1, om2, out=G), np.multiply(c1, om, out=F), out=G)
    G[_DIAG, _DIAG] += s0
    _mm(om, G, F, om2)
    F[_DIAG, _DIAG] += c0
    return F, sq


def _first_of_equal_k(k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """For each z, the index of the first z whose k and w match its own within _ULPS ulps of |k| + |w|.

    k is two-to-one in z, and shift_sign gives z and sigma k0^2/z one w.
    Candidates share k rounded to 2^-40 of the binade of that scale (one
    sort, O(n) memory); a pair that a rounding edge, a binade or Sigma's
    DELTA band splits is missed, which costs a transfer, not accuracy.
    A z of non-finite k or w keeps its own index.
    """
    first = np.arange(len(k))
    scale = np.abs(k) + np.abs(w)
    ok = np.flatnonzero(np.isfinite(scale))
    q = np.ldexp(1.0, np.frexp(scale[ok])[1] - 40)
    _, head, group = np.unique(np.rint(k[ok] / q) * q, return_index=True, return_inverse=True)
    first[ok] = ok[head[group]]
    tol = _ULPS * np.finfo(float).eps * scale[ok]
    far = ok[(np.abs(k[ok] - k[first[ok]]) > tol) | (np.abs(w[ok] - w[first[ok]]) > tol)]
    first[far] = far
    return first


def _transfer(cells: _Cells, k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """e^{w h_{n-1}} exp(Omega_{n-1}) ... e^{w h_0} exp(Omega_0) over the cells of one side, (len(k), 4, 4).

    One product for each pair (k, w) of the 1-D arrays k and w.  Factors
    are carried as I + F, (I + A)(I + B) = I + (A + B + AB), so rounding
    scales with the small |F| = |exp(Omega) - I|, not with 1.  Omega depends
    on z only through k, so the blocks run only the first z of each (k, w)
    (_first_of_equal_k), which keep their bits, and each other z takes that
    product times e^{(w - w_first) sum h}, the same product in exact
    arithmetic, whose exponent is a few ulps of |w| sum h.  Each block adds to
    cells.tally, which counts the z the blocks ran.
    """
    first = _first_of_equal_k(k, w)
    own = first == np.arange(len(k))
    run, shared = np.flatnonzero(own), np.flatnonzero(~own)
    n = len(cells.h)
    per = max(1, _BLOCK // n)  # z a block
    cap = min(per, len(run)) * n  # rows: four 4x4 stacks, then 4 and 3 entries a cell x z (see _expm1)
    ws = np.split(np.empty(71 * cap, dtype=complex), np.cumsum([16 * cap] * 4 + [4 * cap]))
    out = np.empty((len(k), 4, 4), dtype=complex)
    for z0 in range(0, len(run), per):
        zs = run[z0 : z0 + per]
        shape = len(zs), n
        om = _stack(ws[0], *shape)
        np.copyto(om, cells.A[3, ..., None, :])
        for j in (2, 1, 0):  # Horner's rule in k
            np.add(np.multiply(k[zs, None], om, out=om), cells.A[j, ..., None, :], out=om)
        size = math.prod(shape)
        wh = np.multiply(w[zs, None], cells.h, out=ws[5][2 * size : 3 * size].reshape(shape))
        F, sq = _expm1(ws, size, wh.ravel())  # times the shift e^{w h}
        F = F.reshape(om.shape)
        cells.tally.update(z=shape[0], blocks=1, scaled=sq.size)
        cells.tally["squarings"] = max(cells.tally["squarings"], sq.max(initial=0))
        here, spare = ws[3], ws[0]
        while F.shape[-1] > 1:  # (4, 4, z, cells): pairs along the cells, from one row to the other
            m = F.shape[-1]
            A, B = F[..., 1:m:2], F[..., 0 : m - 1 : 2]
            P = _stack(spare, shape[0], (m + 1) // 2)
            AB = _mm(A, B, _stack(ws[1], shape[0], m // 2), _stack(ws[2], shape[0], m // 2))
            np.add(np.add(A, B, out=P[..., : m // 2]), AB, out=P[..., : m // 2])
            if m % 2:
                P[..., -1] = F[..., -1]
            F, here, spare = P, spare, here
        P = np.moveaxis(F[..., 0], -1, 0)
        P[:, _DIAG, _DIAG] += 1.0
        out[zs] = P
    if shared.size:
        out[shared] = out[first[shared]] * np.exp((w[shared] - w[first[shared]]) * cells.h.sum())[:, None, None]
    return out


def _jost(mesh, sp: SpectralPoint, side: str, bg: Background, analytic_only: bool = False) -> np.ndarray:
    """mu(0) of one side at each z of sp: all four columns, (n, 4, 4), or only the bounded pair, (n, 4, 2).

    The bounded (analytic) pair is M / N in D+, the barred pair in D-; the
    other pair grows like e^{2 |Im lambda| L} off the continuous spectrum.
    """
    left = side == "left"
    cells = mesh[0] if left else mesh[1]
    X = asymptotic_eigenvectors(sp, cells.limit, bg)  # rejects branch points
    eps = shift_sign(sp, bg)
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
    """The spectral point of a scalar or a 1-D array of finite z, with fields of shape (n,)."""
    if np.ndim(z) > 1:
        raise ValueError("z must be a scalar or a 1-D array")
    z = np.ravel(z)
    if (bad := ~np.isfinite(z)).any():
        raise ValueError(f"z must be finite, not {complex(z[bad][0])}")
    return uniformize(z, bg)


@dataclass(frozen=True)
class ScatteringSample:
    z: np.ndarray | complex
    t0: float
    S: np.ndarray
    a: np.ndarray
    b: np.ndarray
    abar: np.ndarray
    bbar: np.ndarray
    rho: np.ndarray
    rhobar: np.ndarray


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
    sp = _points(z, bg)
    mu = _jost(_mesh(field, tol, t0, bg), sp, side, bg)
    return mu[0] if np.ndim(z) == 0 else mu


def scattering_matrix(field: Field, z, tol: float, bg: Background, t0: float = 0.0):
    """Scattering matrix S with Phi = Psi S, blocks, and reflection data.

    Phi(0) and Psi(0) are rebuilt from the two modified-eigenfunction halves
    by restoring the phase factor e^{i theta(0, t0) sigma3}; that factor is
    what makes S independent of t0.  Returns one ScatteringSample, whose
    fields stack the n z of a 1-D array: z (n,), S (n, 4, 4) and a, b, abar,
    bbar, rho, rhobar (n, 2, 2); a scalar z gives a complex z, a 4x4 S and
    2x2 blocks.  z and sigma k0^2/z share k, so a set closed under that map
    propagates half its z (see _transfer); the DEBUG record states the z and
    cells each side ran.  b and rho exist on Sigma only: z in D+ or D- raises
    ValueError before any mesh is built, a branch point BranchPointSingular.
    """
    sp = _points(z, bg)
    region = np.asarray(classify_region(sp.z, bg))
    if (off := np.flatnonzero((region == Region.D_PLUS) | (region == Region.D_MINUS))).size:
        raise ValueError(f"scattering_matrix requires z on Sigma (got {region[off[0]]} at z = {complex(sp.z[off[0]])})")
    mesh = _mesh(field, tol, t0, bg)
    ph = np.exp(1j * theta(0.0, t0, sp.z, bg)[:, None, None] * _SGN)  # scales the columns
    Phi, Psi = (_jost(mesh, sp, side, bg) * ph for side in ("left", "right"))
    d = np.linalg.det(Psi)
    bad = np.flatnonzero(np.abs(d) < 1e-12)
    if bad.size:
        raise SingularWronskian(f"det Psi(0) = {d[bad[0]]} at z = {sp.z[bad[0]]}")
    S = np.linalg.solve(Psi, Phi)
    a, bbar, b, abar = S[:, :2, :2], S[:, :2, 2:], S[:, 2:, :2], S[:, 2:, 2:]
    rho, rhobar = b @ inv2(a), bbar @ inv2(abar)
    if _log.isEnabledFor(logging.DEBUG):
        (nl, nr), (tl, tr) = [len(c.h) for c in mesh], (c.tally for c in mesh)
        _log.debug("scattering_matrix: %d samples, z propagated %d left %d right, cells %d left %d right, "
                   "blocks %d left %d right", len(sp.z), tl["z"], tr["z"], nl, nr, tl["blocks"], tr["blocks"])
    one = np.ndim(z) == 0
    return ScatteringSample(complex(sp.z[0]) if one else sp.z, t0,
                            *(m[0] if one else m for m in (S, a, b, abar, bbar, rho, rhobar)))


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


def audit_symmetries(sample: ScatteringSample, bg: Background) -> SymmetryAuditReport:
    """Check the three scattering-matrix symmetries on spectrum samples.

    Needs the sample set closed under z -> z* and z -> sigma k0^2/z (real
    points are their own conjugates): one array search takes as each z's
    partner the first sample within 1e-9 max(k0, |partner|), and
    MissingPartner names the partner point of the first z that lacks one,
    its conjugate's first.  The identities are stacked products.  The
    antipode identity never compared two truncation errors: z and
    sigma k0^2/z share k and the shift w, hence one transfer (see
    _transfer).  It checks the eigenvector algebra, the column factors
    e^{-2 i lambda eps sum h} and the t0 phase.
    """
    z = np.ravel(sample.z)  # a scalar z's sample always lacks its antipode, so only stacks reach the identities
    w = np.stack([np.conj(z), bg.sigma * bg.k0**2 / z])  # each z's conjugate, then its antipode
    near = np.abs(z - w[..., None]) <= 1e-9 * np.maximum(bg.k0, np.abs(w))[..., None]  # (2, n, n)
    if not (found := near.any(axis=-1)).all():
        i, k = divmod(int(np.argmin(found.T)), 2)  # the first z that lacks a partner, its conjugate's first
        point = complex(z[i]).conjugate() if k == 0 else bg.sigma * bg.k0**2 / complex(z[i])
        raise MissingPartner(f"no sample at the partner point {point}")
    conj, anti = np.sum(np.cumsum(near, axis=-1) == 0, axis=-1)  # the misses before each first match; n = 0 too
    S, J, Qpd = sample.S, np.diag([1.0, 1.0, -bg.sigma, -bg.sigma]), dagger(bg.Qplus)
    devs = (
        dagger(S[conj]) @ J @ S - J,
        np.swapaxes(S, -1, -2) @ SIGMA2 @ S - SIGMA2,
        sample.rho - np.swapaxes(sample.rho, -1, -2),
        sample.rho[anti] + (bg.sigma / bg.k0**2) * Qpd @ sample.rhobar @ Qpd,
        sample.abar[conj] - np.conj(sample.a),
    )
    return SymmetryAuditReport(*(float(np.abs(D).max(initial=0.0)) for D in devs), n_samples=len(z))


def _det_a(mesh, sp: SpectralPoint, bg: Background) -> np.ndarray:
    W = np.concatenate([_jost(mesh, sp, side, bg, analytic_only=True) for side in ("left", "right")], axis=-1)
    return np.linalg.det(W) / sp.gamma**2


def det_a(field: Field, z, tol: float, bg: Background, t0: float = 0.0):
    """det a(z) via the Wronskian det(phi, psi)/gamma^2 at x = 0.

    Analytic in D+; uses only the two analytic column pairs, so it stays
    well defined arbitrarily deep in D+ where the other columns overflow.
    A 1-D array of z gives an array of values.
    """
    sp = _points(z, bg)
    if (off := sp.z[classify_region(sp.z, bg) != Region.D_PLUS]).size:  # before the mesh is built; _det_a assumes D+
        raise ValueError(f"det_a requires z in D+ (got {classify_region(off[0], bg)} at z = {complex(off[0])})")
    a = _det_a(_mesh(field, tol, t0, bg), sp, bg)
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
    Trefethen, SIAM J. Numer. Anal. 52, 2014); each round is one det a call,
    on every node of a new or moved box.  A panel past _MAX_DEGREE
    intervals stops the refinement with a NoConvergenceWarning.

    A zero on or near the contour (a phase step between neighbouring nodes
    above pi/2, |det a| at a node below _DIP times both neighbours, or a
    located zero closer than _NEAR times the perimeter to a panel whose
    estimate still misses its target) moves every edge outward by four
    times that distance and refines anew, at most _MOVES times and only
    while the box stays in D+; each move, a zero left near the contour, a
    non-integer winding and multiplicities that are not positive integers
    summing to N are reported via NoConvergenceWarning, not fatally.

    D+ is decided once per box, at its point nearest 0: where Im z > 0 and
    s = (|z|^2 + sigma k0^2) Im z > 0, s grows with |z| and Im z, both least
    there.  A searchbox off D+ raises ValueError before any det a; a grown
    box off D+, or reaching down to the real axis, ends the moves.
    """
    re0, re1, im0, im1 = searchbox
    if not (re1 > re0 and im1 > im0 and im0 > 0):
        raise ValueError("searchbox must be a rectangle in the upper half plane")
    box = (float(re0), float(re1), float(im0), float(im1))

    def box_off_dplus(box: _Box) -> complex | None:  # the box's point nearest 0 if the box leaves D+, else None
        low = complex(min(max(0.0, box[0]), box[1]), box[2])
        return None if box[2] > 0 and classify_region(low, bg) is Region.D_PLUS else low

    if (off := box_off_dplus(box)) is not None:
        raise ValueError(f"searchbox touches the complement of D+ at {off}")
    mesh = _mesh(field, tol, t0, bg)
    moves: list[_Box] = []
    rounds: list[str] = []
    fresh = None  # the nodes that the next round evaluates; None lays out a new box, all of whose nodes are fresh
    while True:  # rounds, each of one det a call at its fresh nodes
        if fresh is None:
            perimeter = 2.0 * (box[1] - box[0] + box[3] - box[2])
            start, extent, n = _panels(box)
            fresh, a = np.ones(n.sum(), dtype=bool), np.empty(0, dtype=complex)
        z, old = _contour(start, extent, n), a
        a = np.empty(len(z), dtype=complex)
        a[~fresh], a[fresh] = old, _det_a(mesh, _points(z[fresh], bg), bg)
        mag = np.abs(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.angle(np.roll(a, -1) / a)  # node j to j + 1, the last one closing the contour
        dip = mag < _DIP * np.minimum(np.roll(mag, 1), np.roll(mag, -1))
        near = not mag.all() or bool(np.abs(steps).max() > 0.5 * math.pi or dip.any())
        w = float(np.nansum(steps)) / (2.0 * math.pi)
        N = max(0, round(w))
        rounds.append(f"{len(z)} nodes ({fresh.sum()} new z)")
        roots, mult, sv = np.empty(0, complex), np.empty(0), np.empty(0)
        if N and mag.all():
            s, est = _moments(z, a, steps, box, N, extent, n)
            target = tol * np.abs(extent) / perimeter
            grow, worst = est > target, int(np.argmax(est / target))
            rounds[-1] += (f", largest estimate {est[worst]:.2g} against {target[worst]:.2g}, "
                           f"{grow.sum()} of {len(n)} panels refined")
            if grow.any() and n[grow].max() < _MAX_DEGREE:  # the next round evaluates the doubled panels' new nodes
                fresh = np.concatenate([np.arange(2 * m) % 2 == 1 if g else np.zeros(m, bool) for m, g in zip(n, grow)])
                n = np.where(grow, 2 * n, n)
                continue
            if grow.any():
                warnings.warn(f"a contour panel of {box} at {_MAX_DEGREE} intervals estimates {est[worst]:.2g} "
                              f"against {target[worst]:.2g}", NoConvergenceWarning)
            roots, mult, sv = _moment_zeros(s, box)
            r = roots[:, None]  # the distance of each zero to the nearest point of each panel
            gap = np.abs(r - start - extent * np.clip(((r - start) / extent).real, 0.0, 1.0))
            near = near or bool(np.any((gap < _NEAR * perimeter) & grow))
        if not near or len(moves) == _MOVES:
            break
        d = 4.0 * _NEAR * perimeter
        grown = (box[0] - d, box[1] + d, box[2] - d, box[3] + d)
        if box_off_dplus(grown) is not None:
            break
        box, fresh = grown, None
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
        if abs(abs(zr) - bg.k0) >= 1e-6 * bg.k0 and abs(zr.imag) >= 1e-6 * bg.k0:
            kept.append(complex(zr))
        else:
            warnings.warn(f"zero {zr} rejected: too close to the continuous spectrum", NoConvergenceWarning)
    if _log.isEnabledFor(logging.DEBUG):
        ns, (tl, tr) = [len(c.h) for c in mesh], (c.tally for c in mesh)
        _log.debug("find_discrete_spectrum: %d nodes, rounds [%s], cells %d left %d right x %d z propagated in %d "
                   "blocks, %d of %d cells x z scaled, at most %d squarings, winding %.4f, Hankel singular values "
                   "%s, zeros %s, multiplicities %s, contour moves %s", len(z), "; ".join(rounds), *ns, tl["z"],
                   tl["blocks"] + tr["blocks"], tl["scaled"] + tr["scaled"], (ns[0] + ns[1]) * tl["z"],
                   max(tl["squarings"], tr["squarings"]), w, sv.tolist(), kept, mult.real.round(3).tolist(), moves)
    return kept
