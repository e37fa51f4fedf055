#!/usr/bin/env python3
"""Construct soliton fields, then recover their scattering data numerically.

For each requested preset: build the field, measure its left boundary,
locate the zeros of det a in the upper part of D+, and report eigenvalue
recovery errors plus reflection-coefficient norms on spectrum samples.
With --verbose, each zero search logs its contour nodes, winding, Hankel
singular values, zeros and contour moves.
"""

import argparse
import functools
import logging
import sys
import time

import numpy as np

from hirota_ist import find_discrete_spectrum, preset, reconstruct_Q, scattering_matrix
from hirota_ist.cli import measured_background, sigma_sample_points


def run(name: str, L: float, tol: float) -> bool:
    p = preset(name)
    spec = p.spec()
    t0 = time.time()
    field = functools.partial(reconstruct_Q, spec=spec)
    bg = measured_background(spec)
    box = (-3.07, 3.05, 1.085, 3.21)
    found = find_discrete_spectrum(field, box, L, 1e-8, bg)
    ok = True
    for seed in p.seeds:
        err = min((abs(z - seed.zn) for z in found), default=float("inf"))
        ok &= err <= tol
        print(f"  seed {seed.zn}: closest recovered zero error {err:.2e}")
    zs = sigma_sample_points(bg.k0, 3, 1)
    rho = max(float(np.max(np.abs(s.rho))) for s in scattering_matrix(field, zs, L, 1e-10, bg))
    ok &= rho <= tol
    print(f"  max |rho| on 16 spectrum samples: {rho:.2e}  ({time.time()-t0:.0f} s)")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="*", default=["fig3a", "fig6"])
    ap.add_argument("--L", type=float, default=20.0)
    ap.add_argument("--tol", type=float, default=1e-3)
    ap.add_argument("--verbose", action="store_true", help="log each zero search at DEBUG level")
    args = ap.parse_args()
    if args.verbose:
        logging.basicConfig(format="%(name)s: %(message)s")
        logging.getLogger("hirota_ist.scattering").setLevel(logging.DEBUG)
    ok = True
    for name in args.presets:
        print(f"{name}:")
        ok &= run(name, args.L, args.tol)
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
