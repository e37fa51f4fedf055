"""Trace formula for det a(z) and the boundary-phase condition.

The reflectionless product form reconstructs det a from its zeros alone; a
reflection contribution enters through a contour integral over the
continuous spectrum.  The phase condition ties the asymptotic phases of
det Q+- to the discrete-eigenvalue phases.  Sign conventions for the
discrete sums differ between published forms, so all variants are
computed: the simple-zero sign that the measured boundary phases validate
(+4 per simple zero) together with the conventional -8 per double zero,
and the alternatives (see scripts/phase_condition_probe.py for the
measurement).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingPartner, PoleHit
from .matrices import CMat2, I2, dagger, det2
from .spectral import Background, Region, classify_region


@dataclass(frozen=True)
class TraceInput:
    """Discrete zeros (seed normalization: Im z > 0, |z| > k0) and optional
    reflection samples on the continuous spectrum."""

    bg: Background
    simple_zeros: tuple[complex, ...] = ()
    double_zeros: tuple[complex, ...] = ()
    rho_samples: tuple[tuple[complex, CMat2], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "simple_zeros", tuple(complex(z) for z in self.simple_zeros))
        object.__setattr__(self, "double_zeros", tuple(complex(z) for z in self.double_zeros))
        for z in self.simple_zeros + self.double_zeros:
            if classify_region(z, self.bg) is not Region.D_PLUS or z.imag <= 0 or abs(z) <= self.bg.k0:
                raise ValueError(f"zero {z} is not in the admissible part of D+")
        allz = self.simple_zeros + self.double_zeros
        for i in range(len(allz)):
            for j in range(i + 1, len(allz)):
                if abs(allz[i] - allz[j]) < 1e-8:
                    raise ValueError("zero lists must be pairwise disjoint")


def _pair_factor(z: complex, zn: complex, k0: float) -> complex:
    num = (z - zn) * (z + k0**2 / np.conj(zn))
    den = (z - np.conj(zn)) * (z + k0**2 / zn)
    return num / den


def _rho_at(samples, z: complex) -> CMat2:
    tol = 1e-9 * max(1.0, abs(z))
    for zz, rho in samples:
        if abs(zz - z) <= tol:
            return rho
    raise MissingPartner(f"reflection samples lack the conjugate point {z}")


def _quadrature(inp: TraceInput):
    """Weighted log det(I + rho^dag(z*) rho(z)) terms along the contour.

    Weights are rebuilt from the sample locations: oriented trapezoid on the
    sorted real sub-segments (outer rightward, inner reversed in the
    focusing case) and a closed trapezoid loop on the circle.
    """
    bg = inp.bg
    samples = inp.rho_samples
    k0 = bg.k0
    real_pts = []
    circle_pts = []
    for z, rho in samples:
        z = complex(z)
        if abs(z.imag) < 1e-9:
            real_pts.append((z.real, rho))
        elif abs(abs(z) - k0) < 1e-9 * max(1.0, k0):
            circle_pts.append((math.atan2(z.imag, z.real) % (2 * math.pi), z, rho))
        else:
            raise ValueError(f"reflection sample {z} is not on the continuous spectrum")
    terms: list[tuple[complex, complex]] = []  # (node z, weight * logdet)

    def logdet_seq(zs_rhos):
        vals = []
        for z, rho in zs_rhos:
            rho_c = _rho_at(samples, complex(np.conj(z)))
            vals.append(complex(det2(I2 + dagger(rho_c) @ rho)))
        return np.log(np.abs(vals)) + 1j * np.unwrap(np.angle(vals))

    if real_pts:
        if bg.sigma == -1:
            segs = [
                (lambda x: x <= -k0, +1.0),
                (lambda x: -k0 < x < 0, -1.0),
                (lambda x: 0 < x < k0, -1.0),
                (lambda x: x >= k0, +1.0),
            ]
        else:
            segs = [(lambda x: True, +1.0)]
        for pred, orient in segs:
            seg = sorted(((x, r) for x, r in real_pts if pred(x)), key=lambda p: p[0])
            if len(seg) < 2:
                continue
            xs = [p[0] for p in seg]
            logs = logdet_seq([(complex(x), r) for x, r in seg])
            for i in range(len(seg)):
                lo = xs[max(i - 1, 0)]
                hi = xs[min(i + 1, len(xs) - 1)]
                w = orient * 0.5 * (hi - lo)
                terms.append((complex(xs[i]), w * logs[i]))
    if circle_pts:
        circle_pts.sort(key=lambda p: p[0])
        logs = logdet_seq([(z, r) for _, z, r in circle_pts])
        n = len(circle_pts)
        for i in range(n):
            phi_prev = circle_pts[(i - 1) % n][0]
            phi_next = circle_pts[(i + 1) % n][0]
            dphi = ((phi_next - phi_prev) % (2 * math.pi)) / 2.0
            z = circle_pts[i][1]
            terms.append((z, (1j * z * dphi) * logs[i]))
    return terms


def trace_det_a(z: complex, inp: TraceInput) -> complex:
    """det a(z) from the zeros (and reflection data when present).

    Product of (z - z_n)(z + k0^2/z_n*) / ((z - z_n*)(z + k0^2/z_n)) over
    simple zeros, squared factors for double zeros, times the exponential
    of the contour integral when reflection samples are supplied.
    """
    z = complex(z)
    k0 = inp.bg.k0
    # the product's poles sit at the reflected zeros (in D-); check first so
    # a pole hit is reported as such rather than as a region violation
    for zn in inp.simple_zeros + inp.double_zeros:
        for pole in (np.conj(zn), -k0**2 / zn):
            if abs(z - pole) < 1e-10:
                raise PoleHit(f"z = {z} hits a pole of the trace product")
    if classify_region(z, inp.bg) is not Region.D_PLUS:
        raise ValueError(f"trace_det_a requires z in D+ (got z = {z})")
    out = 1.0 + 0.0j
    for zn in inp.simple_zeros:
        out *= _pair_factor(z, zn, k0)
    for zn in inp.double_zeros:
        out *= _pair_factor(z, zn, k0) ** 2
    if inp.rho_samples:
        s = sum(wl / (zz - z) for zz, wl in _quadrature(inp))
        out *= cmath.exp(-s / (2j * math.pi))
    return out


def theta_condition_variants(inp: TraceInput) -> dict[str, float]:
    """Boundary-phase difference theta_+ - theta_- for each sign choice, in [0, 2 pi).

    'simple_plus_double_minus' is quadrature + 4 sum(delta_simple)
    - 8 sum(delta_double), with delta_n = arg z_n;
    'simple_minus_double_minus' flips the simple-zero sign;
    'simple_plus_double_plus' flips the double-zero sign, the variant
    consistent with the measured x -> -infinity boundary phase when double
    zeros (rank-2 norming constants) are present.
    """
    q = 0.0
    if inp.rho_samples:
        q = float(sum(wl / zz for zz, wl in _quadrature(inp)).real) / (2.0 * math.pi)
    ds = sum(math.atan2(z.imag, z.real) for z in inp.simple_zeros)
    dd = sum(math.atan2(z.imag, z.real) for z in inp.double_zeros)
    tau = 2.0 * math.pi
    return {
        "simple_plus_double_minus": float((q + 4.0 * ds - 8.0 * dd) % tau),
        "simple_minus_double_minus": float((q - 4.0 * ds - 8.0 * dd) % tau),
        "simple_plus_double_plus": float((q + 4.0 * ds + 8.0 * dd) % tau),
    }
