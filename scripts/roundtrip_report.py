#!/usr/bin/env python3
"""Construct soliton fields, then recover their scattering data numerically.

Runs `hirota-ist roundtrip` for each requested preset: build the field,
locate the zeros of det a in the upper part of D+ (the Jost mesh reads its
truncation L from the field and its left boundary from the sample at
x = -2L), and report eigenvalue recovery errors plus reflection-coefficient
norms on spectrum samples.  --find-tol sets the Jost mesh tolerance of the
zero search (the benchmark's roundtrip runs at 1e-4).  With --verbose, each
Jost mesh logs its L and counters, and each zero search its refinement
rounds, contour nodes, winding, Hankel singular values, zeros and contour
moves.
"""

import argparse
import logging
import sys

from hirota_ist import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="*", default=["fig3a", "fig6"])
    ap.add_argument("--tol", type=float, default=1e-3)
    ap.add_argument("--find-tol", type=float, help="Jost mesh tolerance of the zero search (default: roundtrip's)")
    ap.add_argument("--verbose", action="store_true", help="log each Jost mesh and zero search at DEBUG level")
    args = ap.parse_args()
    if args.verbose:
        logging.basicConfig(format="%(name)s: %(message)s")
        logging.getLogger("hirota_ist.scattering").setLevel(logging.DEBUG)
    ok = True
    for name in args.presets:
        print(f"{name}:", flush=True)
        find = [] if args.find_tol is None else ["--find-tol", str(args.find_tol)]
        ok &= cli.main(["roundtrip", "--preset", name, "--tol", str(args.tol), *find]) == 0
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
