"""Trace formula for det a(z) and the boundary-phase condition.

The reflectionless product form reconstructs det a from its zeros alone.
The phase condition ties the asymptotic phases of det Q+- to the
discrete-eigenvalue phases, with the signs that the measured boundary
phases select: +4 arg z per simple zero and +8 arg z per double zero (see
scripts/phase_condition_probe.py for the measurement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleHit
from .spectral import Background, Region, classify_region


@dataclass(frozen=True)
class TraceInput:
    """Discrete zeros in the seed normalization: Im z > 0, |z| > k0."""

    bg: Background
    simple_zeros: tuple[complex, ...] = ()
    double_zeros: tuple[complex, ...] = ()

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


def trace_det_a(z: complex, inp: TraceInput) -> complex:
    """det a(z) of a reflectionless field from its zeros.

    Product of (z - z_n)(z + k0^2/z_n*) / ((z - z_n*)(z + k0^2/z_n)) over
    simple zeros, and squared factors for double zeros.
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
    return out


def theta_condition(inp: TraceInput) -> float:
    """Boundary-phase difference theta_+ - theta_- = arg det(Q+ Q-^dag), in [0, 2 pi).

    4 sum(arg z) over the simple zeros plus 8 sum(arg z) over the double
    zeros (rank-2 norming constants).
    """
    ds = sum(math.atan2(z.imag, z.real) for z in inp.simple_zeros)
    dd = sum(math.atan2(z.imag, z.real) for z in inp.double_zeros)
    return float((4.0 * ds + 8.0 * dd) % (2.0 * math.pi))
