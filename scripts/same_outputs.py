#!/usr/bin/env python3
"""Compare every command-line output of this tree with those of a git revision.

    python scripts/same_outputs.py REV

REV is exported with `git archive` into a temporary directory, so the
repository and its working tree stay as they are.  Each tree then runs, in a
process of its own, `presets` and, on every preset, `solve` to CSV and to JSON
on the default grid, `verify` to JSON, `scatter` to JSON at the default 12
samples and at the bench's 48 (every circle orbit, where the shift's sign
follows Re lambda), and `roundtrip` at find-tol 1e-4 and 1e-8.  One more
run, `scatter` of fig6 at the one user-chosen --z point 0.7, whose set is
not closed under z -> sigma k0^2/z, compares that sample and the text of the
skipped symmetry audit.  Every output
(each file written, and each run's printed text) is reported as
byte-identical or else with the largest deviation of each numeric field: a
CSV column, a JSON path (list indices read []), or a printed line with its
numbers read #.  A deviation is absolute, or relative to the larger of the
two values for the fields in RELATIVE.  The exit codes are compared too.
The script exits 1 if an exit code or a non-numeric part differs, or a
deviation exceeds its bound in TOLERANCES.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIND_TOLS = ("1e-4", "1e-8")
# a scatter whose --z set lacks the antipode of 0.7, so that its audit is skipped with a message
UNCLOSED = ("fig6.scatter-unclosed",
            ["scatter", "--preset", "fig6", "--z", "0.7,0", "--out", "fig6.scatter-unclosed.json"])

# Largest absolute deviation allowed per command, or per (command, field) where a field needs its own bound.
TOLERANCES: dict = {
    "presets": 0.0,
    "solve": 1e-14,  # the field values of the default grids
    "scatter": 1e-13,  # scattering data at t0 = 0
    "roundtrip": 0.0,  # PASS/FAIL lines byte-identical
    # the 6th-order stencils divide the field's rounding by h^3 = 1e-6 (h = 1e-2), so a 1e-14 move of Q may
    # move the residual by a few 1e-8; the pass flags are compared exactly like every non-numeric part
    "verify": 1e-7,
    ("roundtrip", "max |rho| on spectrum samples"): 1e-13,  # as scatter's data; det S ok is compared exactly
    # the closest error is printed to three digits of what may be a rounding-level number, so its line may move by
    # one unit of the last digit, at most 1% of the value; recovered/MISSED is compared exactly
    ("roundtrip", "eigenvalue "): 1e-2,
}
# fields whose deviation is read relative to the larger of the two values
RELATIVE = {("roundtrip", "eigenvalue "): True}
# fields read modulo a period, as their checks read them: the phase condition compares angles mod 2 pi
PERIODS = {("verify", "checks.theta_condition."): 2 * math.pi, ("verify", "theta_condition: "): 2 * math.pi}


def _rule(table: dict, command: str, field: str, default=None):
    """The entry of (command, the longest prefix of field) in table, else that of command, else default."""
    keys = [k for k in table if isinstance(k, tuple) and k[0] == command and field.startswith(k[1])]
    return table[max(keys, key=lambda k: len(k[1]))] if keys else table.get(command, default)


def runs(preset: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run on one preset; a run's files are named after the run."""
    out = [(f"{preset}.solve", ["solve", "--preset", preset, "--out", f"{preset}.solve.csv"]),
           (f"{preset}.solve-json", ["solve", "--preset", preset, "--format", "json", "--out", f"{preset}.solve.json"]),
           (f"{preset}.verify", ["verify", "--preset", preset, "--out", f"{preset}.verify.json"]),
           (f"{preset}.scatter", ["scatter", "--preset", preset, "--out", f"{preset}.scatter.json"]),
           (f"{preset}.scatter-48", ["scatter", "--preset", preset, "--n-real-orbits", "8", "--n-circle-orbits", "4",
                                     "--out", f"{preset}.scatter-48.json"])]
    return out + [(f"{preset}.roundtrip-{tol}", ["roundtrip", "--preset", preset, "--find-tol", tol])
                  for tol in FIND_TOLS]


def run_all(out_dir: Path, presets: list[str] | None = None) -> None:
    """Run every command of the imported hirota_ist in out_dir: its files, a .txt of each run's text, exit codes.

    presets defaults to all of that tree's presets; the UNCLOSED run comes last whatever they are.
    """
    from hirota_ist import cli, preset_names

    presets = preset_names() if presets is None else presets

    cwd = os.getcwd()
    os.chdir(out_dir)  # relative output paths, so that the printed text names the same files in either tree
    try:
        codes = {}
        for name, argv in [("presets", ["presets"])] + [r for p in presets for r in runs(p)] + [UNCLOSED]:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                codes[name] = cli.main(argv)
            Path(f"{name}.txt").write_text(text.getvalue())
        Path("exit_codes.json").write_text(json.dumps(codes, indent=1))
    finally:
        os.chdir(cwd)


def export(rev: str, dest: Path) -> Path:
    """The committed files of rev, extracted under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as tf:
        tf.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_tree(tree: Path, out_dir: Path) -> None:
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, __file__, "--run-into", str(out_dir)], env=env, check=True)


# comparison ---------------------------------------------------------------------------------------------------------

_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _dev(a: float, b: float, period: float | None, relative: bool = False) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    d = 0.0 if a == b else abs(a - b)
    if relative and d and math.isfinite(d):
        return d / max(abs(a), abs(b))
    return min(d % period, period - d % period) if period and math.isfinite(d) else d


class Deviations:
    """Largest deviation per numeric field of one command's output, and the non-numeric differences."""

    def __init__(self, command: str):
        self.command = command
        self.fields: dict[str, float] = {}
        self.mismatches: list[str] = []

    def add(self, field: str, a: float, b: float) -> None:
        d = _dev(float(a), float(b), _rule(PERIODS, self.command, field), _rule(RELATIVE, self.command, field, False))
        self.fields[field] = max(self.fields.get(field, 0.0), d)

    def walk_json(self, a, b, path: str = "") -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.mismatches.append(f"{path or '/'}: keys {sorted(a)} against {sorted(b)}")
            for k in a.keys() & b.keys():
                self.walk_json(a[k], b[k], f"{path}.{k}" if path else k)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatches.append(f"{path}: {len(a)} items against {len(b)}")
            for u, v in zip(a, b):
                self.walk_json(u, v, path + "[]")
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            self.add(path, a, b)
        elif a != b:
            self.mismatches.append(f"{path}: {a!r} against {b!r}")

    def walk_text(self, a: str, b: str) -> None:
        la, lb = a.splitlines(), b.splitlines()
        if len(la) != len(lb):
            self.mismatches.append(f"{len(la)} lines against {len(lb)}")
        for i, (u, v) in enumerate(zip(la, lb)):
            if _NUM.sub("#", u) != _NUM.sub("#", v):
                self.mismatches.append(f"line {i + 1}: {u!r} against {v!r}")
                continue
            for x, y in zip(_NUM.findall(u), _NUM.findall(v)):
                self.add(_NUM.sub("#", u)[:72], float(x), float(y))

    def walk_csv(self, a: str, b: str) -> None:
        ra, rb = a.splitlines(), b.splitlines()
        if ra[:1] != rb[:1] or len(ra) != len(rb):
            self.mismatches.append(f"header or row count: {ra[:1]} {len(ra)} against {rb[:1]} {len(rb)}")
            return
        header = ra[0].split(",")
        for u, v in zip(ra[1:], rb[1:]):
            for name, x, y in zip(header, u.split(","), v.split(",")):
                self.add(name, float(x), float(y))


def command_of(file_name: str) -> str:
    """The subcommand that wrote an output: fig3a.solve-json.txt -> solve."""
    return "presets" if file_name.startswith("presets") else file_name.split(".")[1].split("-")[0]


def compare_file(a: Path, b: Path) -> Deviations:
    dev, ta, tb = Deviations(command_of(a.name)), a.read_text(), b.read_text()
    if a.suffix == ".json":
        dev.walk_json(json.loads(ta), json.loads(tb))
    elif a.suffix == ".csv":
        dev.walk_csv(ta, tb)
    else:
        dev.walk_text(ta, tb)
    return dev


def compare(ref: Path, new: Path) -> tuple[list[str], int]:
    """Report lines and the number of breaches: outputs of ref (the revision) against new (this tree)."""
    lines, breaches = [], 0
    names = sorted({p.name for p in ref.iterdir()} | {p.name for p in new.iterdir()})
    for name in names:
        a, b = ref / name, new / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: only in {'the revision' if a.exists() else 'this tree'} BREACH")
            breaches += 1
            continue
        if a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: identical")
            continue
        if name == "exit_codes.json":
            ca, cb = json.loads(a.read_text()), json.loads(b.read_text())
            diff = {k: (ca.get(k), cb.get(k)) for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k)}
            lines.append(f"{name}: exit codes differ {diff} BREACH" if diff else f"{name}: exit codes equal")
            breaches += bool(diff)
            continue
        dev = compare_file(a, b)
        lines.append(f"{name}:")
        for m in dev.mismatches:
            lines.append(f"    differs: {m} BREACH")
        breaches += len(dev.mismatches)
        for field, d in sorted(dev.fields.items()):
            tol = _rule(TOLERANCES, dev.command, field)
            breaches += d > tol
            kind = ", relative" if _rule(RELATIVE, dev.command, field, False) else ""
            lines.append(f"    {field}: {d:.3g} (tol {tol:.0e}{kind}){' BREACH' if d > tol else ''}")
    return lines, breaches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", nargs="?", help="git revision to compare this tree with")
    ap.add_argument("--run-into", help=argparse.SUPPRESS)  # one tree's runs, in the child process
    args = ap.parse_args(argv)
    if args.run_into:
        run_all(Path(args.run_into))
        return 0
    if not args.rev:
        ap.error("a git revision is required")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_tree(export(args.rev, work / "tree"), work / "ref")
        run_tree(ROOT, work / "new")
        lines, breaches = compare(work / "ref", work / "new")
    print("\n".join(lines))
    print(f"{args.rev} against this tree: {breaches} breach{'es' if breaches != 1 else ''}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
