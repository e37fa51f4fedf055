"""Independent verification: PDE residual, symmetry, boundary decay, periodicity.

These checks never reuse the inverse-problem algebra; they probe candidate
solutions with finite differences and asymptotic measurements only, so they
catch sign or convention errors anywhere upstream.  A field maps arrays: x
and t of one broadcast shape S to Q of shape S + (2, 2).  Q = Q^T is read
on the residual's stencil samples, and a field that raises there raises out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matrices import I2, dagger
from .spectral import Background

Field = Callable[[np.ndarray, np.ndarray], np.ndarray]

# 6th-order central stencils in paired-difference form (coefficients for
# offsets 1..n); the third derivative needs the 9-point form to keep the
# overall truncation at O(h^6).  Evaluating f(x+ih) - f(x-ih) first makes
# constant fields differentiate to exactly zero.
_D1 = np.array([3 / 4, -3 / 20, 1 / 60])
_D2 = np.array([3 / 2, -3 / 20, 1 / 90])
_D3 = np.array([-61 / 30, 169 / 120, -3 / 10, 7 / 240])

X_FAR = 20.0  # boundary_decay reads Q+ at X_FAR / k0
# boundary_decay's readings of the left limit, -40 to -5120 in units of 1/k0: a soliton with
# |z| = 6 k0 and beta = 1 has drifted about 25 / k0 to the left by t = 0.25 / k0^3
_LEFT_LADDER = -2.0 * X_FAR * 2.0 ** np.arange(8)
HALTON_SKIP = 20  # first Halton index used: probes skip the corner (0, 0) and the sparse start


def halton_points(n: int) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)^2 (bases 2 and 3)."""
    if n < 1:
        raise ValueError("need at least one probe point")

    def radical_inverse(i, base):  # one digit of every index a step, in the scalar recurrence's order
        f, r = 1.0, np.zeros(i.shape)
        while i.any():
            f /= base
            r += f * (i % base)
            i = i // base  # a new array: the caller passes idx to both bases
        return r

    idx = np.arange(HALTON_SKIP, HALTON_SKIP + n)
    return np.stack([radical_inverse(idx, 2), radical_inverse(idx, 3)], axis=-1)


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    argmax: tuple[float, float]
    h: float
    stencil_order: int
    points: int
    max_asymmetry: float  # symmetry_residual over all 15 stencil samples of every probe


def pde_residual(
    field: Field,
    region: tuple[float, float, float, float],
    n_probe: int,
    h: float,
    bg: Background,
) -> ResidualReport:
    """Max-norm residual of the gauge-fixed evolution equation.

    Evaluates i Q_t + alpha (Q_xx - 2 sigma (Q Q^dag - k0^2 I) Q)
    + i beta (Q_xxx - 3 sigma (Q Q^dag Q_x + Q_x Q^dag Q)) at quasi-random
    probe points with 6th-order central differences of step h.  The cubic
    term is the one the zero-curvature condition of the 4x4 linear problem
    produces; the commonly printed 6 sigma Q Q^dag Q_x differs from it where
    the norming constants are not normal (on fig11 that form reads > 1e-2).
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be positive and finite, not {h}")
    xmin, xmax, tmin, tmax = region
    pts = halton_points(n_probe)
    xs = xmin + (xmax - xmin) * pts[:, 0]
    ts = tmin + (tmax - tmin) * pts[:, 1]
    sg, k0, alpha, beta = bg.sigma, bg.k0, bg.alpha, bg.beta
    # xp[4 + i] = Q(x + i h, t) for i in -4..4, tp[3 -+ i] = Q(x, t -+ i h) for i in 1..3 (Q(x, t) is xp[4])
    xp = field(xs + h * np.arange(-4, 5)[:, None], ts)
    tp = field(xs, ts + h * np.array([-3, -2, -1, 1, 2, 3])[:, None])
    Q0 = xp[4]
    Qt = sum(_D1[i - 1] * (tp[2 + i] - tp[3 - i]) for i in (1, 2, 3)) / h
    Qx = sum(_D1[i - 1] * (xp[4 + i] - xp[4 - i]) for i in (1, 2, 3)) / h
    Qxx = sum(_D2[i - 1] * ((xp[4 + i] - Q0) + (xp[4 - i] - Q0)) for i in (1, 2, 3)) / h**2
    Qxxx = sum(_D3[i - 1] * (xp[4 + i] - xp[4 - i]) for i in (1, 2, 3, 4)) / h**3
    QQd = Q0 @ dagger(Q0)
    cubic = 3.0 * sg * (QQd @ Qx + Qx @ dagger(Q0) @ Q0)
    R = (
        1j * Qt
        + alpha * (Qxx - 2.0 * sg * (QQd - k0**2 * I2) @ Q0)
        + 1j * beta * (Qxxx - cubic)
    )
    r = np.max(np.abs(R), axis=(-2, -1))
    k = int(np.argmax(r))  # the first probe on a tie
    return ResidualReport(max_residual=float(r[k]), argmax=(float(xs[k]), float(ts[k])), h=h, stencil_order=6,
                          points=n_probe, max_asymmetry=symmetry_residual(np.concatenate((xp, tp))))


@dataclass(frozen=True)
class DecayReport:
    right_deviation: float
    left_deviation: float
    rate: float
    Qminus_measured: np.ndarray


def boundary_decay(field: Field, t: float, bg: Background) -> DecayReport:
    """Deviation from the boundary matrices and the fitted decay rate.

    The left limit is measured (not assumed) on the ladder x = -2 x_far,
    -4 x_far, ...: it is the first reading whose difference to the next is
    the least on the ladder, so a front that has drifted past -2 x_far by
    time t is not read as the limit.  The rate comes from a log-linear fit
    of ||Q(x) - Q+|| over [x_far/2, x_far], where x_far = X_FAR / k0.
    """
    x_far = X_FAR / bg.k0
    fit_xs = np.linspace(x_far / 2.0, x_far, 9)
    Q = field(np.concatenate(([x_far, -x_far], fit_xs, _LEFT_LADDER / bg.k0)), t)
    fit, left = Q[2:2 + len(fit_xs)], Q[2 + len(fit_xs):]
    steps = np.max(np.abs(np.diff(left, axis=0)), axis=(-2, -1))
    Qminus = left[np.argmin(np.where(np.isfinite(steps), steps, np.inf))]
    devs = np.maximum(np.max(np.abs(fit - bg.Qplus), axis=(-2, -1)), 1e-300)
    slope = np.polyfit(fit_xs, np.log(devs), 1)[0]
    return DecayReport(
        right_deviation=float(np.max(np.abs(Q[0] - bg.Qplus))),
        left_deviation=float(np.max(np.abs(Q[1] - Qminus))),
        rate=float(-slope),
        Qminus_measured=Qminus,
    )


def symmetry_residual(Q: np.ndarray) -> float:
    """Max of ||Q - Q^T||_max over a (..., 2, 2) stack of Q; 0 for an empty stack."""
    return float(np.max(np.abs(Q - np.swapaxes(Q, -1, -2)), initial=0.0))


def periodicity_probe(
    field: Field,
    axis: str,
    period: float,
    n: int,
    region: tuple[float, float, float, float] = (-3.0, 3.0, -2.0, 2.0),
) -> float:
    """Max deviation of |Q| under a shift by one period along x or t.

    Entrywise moduli are compared because overall phases drift between
    periods; deterministic probe points make reports reproducible.
    """
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be positive and finite, not {period}")
    if axis not in ("x", "t"):
        raise ValueError("axis must be 'x' or 't'")
    xmin, xmax, tmin, tmax = region
    pts = halton_points(n)
    x = xmin + (xmax - xmin) * pts[:, 0]
    t = tmin + (tmax - tmin) * pts[:, 1]
    shifted = field(x + period, t) if axis == "x" else field(x, t + period)
    return float(np.max(np.abs(np.abs(shifted) - np.abs(field(x, t)))))
