#!/usr/bin/env python3
"""Check of the boundary-phase condition against measured boundary phases.

For a set of seed eigenvalues and norming constants, measure the left
boundary matrix of the reconstructed field at x = -40 and compare
arg det(Q+ Qm^dag) with theta_condition: +4 arg z per simple zero (rank-1
seed) and +8 arg z per double zero (rank-2 seed).  Prints the measured
phase, the expected phase and their deviation on the circle for each case,
and exits 1 if any deviation exceeds 1e-3.
"""

import math
import sys

import numpy as np

from hirota_ist import (
    Background,
    DiscreteEigenpair,
    TraceInput,
    expand_quartets,
    reconstruct_Q,
    theta_condition,
)
from hirota_ist.matrices import dagger

EYE = np.eye(2, dtype=complex)
TOL = 1e-3

CASES = [
    ("rank1, delta=pi/2", 2j, np.ones((2, 2), dtype=complex)),
    ("rank1, generic", 1 + 2j, np.ones((2, 2), dtype=complex)),
    ("rank1, generic 2", 0.5 + 1.5j, np.array([[1, 2], [2, 4]], dtype=complex)),
    ("rank2, generic", 1 + 2j, np.array([[1, 1], [1, 2]], dtype=complex)),
    ("rank2, generic 2", 0.8 + 1.8j, np.array([[1, 1j], [1j, 1]], dtype=complex)),
]


def main() -> int:
    bg = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.05, Qplus=EYE, Qminus=EYE)
    print(f"{'case':18s} {'measured':>9s} {'expected':>9s} {'deviation':>9s}")
    worst = 0.0
    for name, zeta, C in CASES:
        seed = DiscreteEigenpair(zeta, C)
        spec = expand_quartets([seed], bg)
        Qm = reconstruct_Q(-40.0, 0.2, spec)
        measured = float(np.angle(np.linalg.det(bg.Qplus @ dagger(Qm))) % (2 * math.pi))
        expected = theta_condition(TraceInput(bg, (zeta,), (seed.rank_flag.value,)))
        gap = abs(expected - measured)
        gap = min(gap, 2 * math.pi - gap)
        worst = max(worst, gap)
        print(f"{name:18s} {measured:9.6f} {expected:9.6f} {gap:9.2e}")
    ok = worst <= TOL
    print(f"worst deviation {worst:.2e} (tol {TOL:.0e}):", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
