"""Trace formula for det a(z) and the boundary-phase condition.

Each discrete zero z_n comes with its multiplicity m_n, the rank of its
norming constant: 1 for a simple zero, 2 for a double one.  The
reflectionless product form reconstructs det a from the zeros alone, each
factor raised to m_n.  The phase condition ties the asymptotic phases of
det Q+- to the discrete-eigenvalue phases, with the signs that the
measured boundary phases select: +4 m_n arg z_n per zero (measured on
random seeds of rank 1 and 2 by tests/test_traceform.py, to 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefocusingUnsupported, PoleHit
from .spectral import Background, Region, antipode, classify_region


@dataclass(frozen=True)
class TraceInput:
    """A focusing background's zeros in D+ with Im z > 0 (so |z| > k0), pairwise apart by 1e-8 k0, and one multiplicity
    per zero, 1 or 2: the rank of its norming constant, as the zero search's Hankel step reads it."""

    bg: Background
    zeros: tuple[complex, ...] = ()
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        if self.bg.sigma != -1:
            raise DefocusingUnsupported("the trace product is focusing-only")
        z, m = np.asarray(self.zeros, dtype=complex), np.asarray(self.multiplicities)
        if z.ndim != 1 or m.shape != z.shape or not np.isin(m, (1, 2)).all():
            raise ValueError(f"one multiplicity, 1 or 2, per zero is required ({m.tolist()} for zeros {z.tolist()})")
        bad = (np.asarray(classify_region(z, self.bg)) != Region.D_PLUS) | (z.imag <= 0)
        if bad.any():
            raise ValueError(f"zero {z[bad][0]} is not in the admissible part of D+")
        i, j = np.triu_indices(z.size, 1)
        near = np.abs(z[i] - z[j]) < 1e-8 * self.bg.k0
        if near.any():
            raise ValueError(f"zeros {z[i][near][0]} and {z[j][near][0]} are not apart by 1e-8 k0")
        object.__setattr__(self, "zeros", tuple(z.tolist()))
        object.__setattr__(self, "multiplicities", tuple(m.astype(int).tolist()))


def trace_det_a(z, inp: TraceInput):
    """det a(z) of a reflectionless field from its zeros, for a scalar z or an array of them (a scalar gives a scalar).

    Product over the zeros of ((z - z_n)(z - antipode(z_n*)) / ((z - z_n*)(z - antipode(z_n))))^m_n.
    """
    z, zn, bg = np.asarray(z, dtype=complex), np.asarray(inp.zeros, dtype=complex), inp.bg
    w, zc, anti = z[..., None], zn.conj(), antipode(zn, bg)
    # the product's poles sit at the reflected zeros (in D-); check first so
    # a pole hit is reported as such rather than as a region violation
    hit = np.any(np.abs(w - np.concatenate([zc, anti])) < 1e-10 * bg.k0, axis=-1)
    if hit.any():
        raise PoleHit(f"z = {z[hit][0]} hits a pole of the trace product")
    outside = np.asarray(classify_region(z, bg)) != Region.D_PLUS
    if outside.any():
        raise ValueError(f"trace_det_a requires z in D+ (got z = {z[outside][0]})")
    f = (w - zn) * (w - antipode(zc, bg)) / ((w - zc) * (w - anti))
    return np.prod(f ** np.asarray(inp.multiplicities, dtype=int), axis=-1)[()]


def theta_condition(inp: TraceInput) -> float:
    """Boundary-phase difference theta_+ - theta_- = arg det(Q+ Q-^dag), in [0, 2 pi): 4 sum m_n arg z_n."""
    # arg z as the imaginary part of log z, which is libm's atan2; np.angle's vectorized arctan2 can be an ulp off it
    phase = 4.0 * np.sum(np.asarray(inp.multiplicities) * np.log(np.asarray(inp.zeros, dtype=complex)).imag)
    return float(phase % (2.0 * math.pi))
