#!/usr/bin/env python3
"""Construct soliton fields, then recover their scattering data numerically.

Runs `hirota-ist roundtrip` for each requested preset: build the field,
locate the zeros of det a in the upper part of D+ (the Jost mesh measures
the field's left boundary at x = -2L), and report eigenvalue recovery
errors plus reflection-coefficient norms on spectrum samples.  With --verbose, each Jost mesh and each zero search
logs its counters (contour nodes, winding, Hankel singular values, zeros
and contour moves).
"""

import argparse
import logging
import sys

from hirota_ist import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="*", default=["fig3a", "fig6"])
    ap.add_argument("--L", type=float, default=20.0)
    ap.add_argument("--tol", type=float, default=1e-3)
    ap.add_argument("--verbose", action="store_true", help="log each Jost mesh and zero search at DEBUG level")
    args = ap.parse_args()
    if args.verbose:
        logging.basicConfig(format="%(name)s: %(message)s")
        logging.getLogger("hirota_ist.scattering").setLevel(logging.DEBUG)
    ok = True
    for name in args.presets:
        print(f"{name}:", flush=True)
        ok &= cli.main(["roundtrip", "--preset", name, "--L", str(args.L), "--tol", str(args.tol)]) == 0
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
