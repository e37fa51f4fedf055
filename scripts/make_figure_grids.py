#!/usr/bin/env python3
"""Evaluate every preset on its default grid and export CSV files.

Runs `hirota-ist solve` for each requested preset.  The CSVs carry x, t and
the three independent field entries; figures are produced from them with
external plotting tooling.
"""

import argparse
import pathlib
import sys

from hirota_ist import cli, preset_names


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figure_grids")
    ap.add_argument("--presets", nargs="*", default=None)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in args.presets or preset_names():
        ok &= cli.main(["solve", "--preset", name, "--out", str(outdir / f"{name}.csv")]) == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
