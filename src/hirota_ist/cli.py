"""Command-line front end: solve, scatter, roundtrip, verify, presets.

Exit codes: 0 success, 1 verification/roundtrip failure, 2 bad input.
Configuration files are JSON documents mirroring the preset fields with
complex numbers written as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import HirotaError
from .grids import SCHEMA_VERSION, GridSpec, write_csv, write_json
from .matrices import dagger
from .presets import DEFAULT_GRID, Preset, preset, preset_names
from .scattering import audit_symmetries, find_discrete_spectrum, scattering_matrix
from .solitons import DiscreteEigenpair, eval_field, min_decay_rate, reconstruct_Q
from .spectral import Background, uniformize
from .traceform import TraceInput, theta_condition
from .verification import boundary_decay, pde_residual, periodicity_probe


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _mat(pairs) -> np.ndarray:
    return np.array([[_c(pairs[0][0]), _c(pairs[0][1])], [_c(pairs[1][0]), _c(pairs[1][1])]])


def _pair(v: complex) -> list[float]:
    return [float(np.real(v)), float(np.imag(v))]


def _integer(doc: dict, key: str) -> int:
    if not float(doc[key]).is_integer():
        raise ValueError(f"{key} must be an integer, not {doc[key]!r}")
    return int(doc[key])


def load_config(path) -> Preset:
    """The preset that a JSON config describes; a malformed or invalid document raises a ValueError naming the file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
        bgd = doc["background"]
        qplus = _mat(bgd["qplus"])
        bg = Background(sigma=_integer(bgd, "sigma"), k0=float(bgd["k0"]), alpha=float(bgd["alpha"]),
                        beta=float(bgd["beta"]), Qplus=qplus, Qminus=qplus)
        seeds = tuple(DiscreteEigenpair(zn=_c(s["zeta"]), Cn=_mat(s["c"])) for s in doc["seeds"])
        g = doc.get("grid")
        grid = GridSpec(xmin=float(g["xmin"]), xmax=float(g["xmax"]), nx=_integer(g, "nx"),
                        tmin=float(g["tmin"]), tmax=float(g["tmax"]), nt=_integer(g, "nt")) if g else DEFAULT_GRID
        return Preset(name=str(doc.get("name", "config")), bg=bg, seeds=seeds, grid=grid)
    # JSONDecodeError is a ValueError; a HirotaError is the spec's own check (no seeds, colliding eigenvalues)
    except (HirotaError, KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad config {path}: {type(exc).__name__}: {exc}") from exc


def _positive(text: str) -> float:
    """argparse type of a tolerance or step: a finite float above 0."""
    v = float(text)
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {v}")
    return v


def _point(text: str) -> complex:
    """argparse type of a spectral point 're,im': two finite floats."""
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 're,im', not {text!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return complex(x, y)


def _resolve_preset(args) -> Preset:
    return load_config(args.config) if args.config else preset(args.preset)


def sigma_sample_points(k0: float, n_real_orbits: int = 2, n_circle_orbits: int = 1) -> list[complex]:
    """Spectrum sample set closed under z -> z* and z -> -k0^2/z.

    Real points come in orbits {a, -k0^2/a, -a, k0^2/a}; circle points in
    orbits {phi, -phi, pi - phi, phi - pi} of |z| = k0.
    """
    if not (0 <= n_real_orbits <= 8 and 0 <= n_circle_orbits <= 4 and n_real_orbits + n_circle_orbits):
        raise ValueError("orbit counts must lie in 0..8 (real) and 0..4 (circle), not both 0")
    reals = [0.45, 0.7, 1.35, 2.6, 0.55, 1.9, 0.85, 3.4][:n_real_orbits]
    angles = [math.pi / 4, math.pi / 6, math.pi / 3, 0.4 * math.pi][:n_circle_orbits]
    pts: list[complex] = []
    for a in reals:
        a = a * k0
        pts += [complex(a), complex(-(k0**2) / a), complex(-a), complex(k0**2 / a)]
    for phi in angles:
        for q in (phi, -phi, math.pi - phi, phi - math.pi):
            pts.append(k0 * complex(math.cos(q), math.sin(q)))
    return pts


def cmd_presets(args) -> int:
    for name in preset_names():
        p = preset(name)
        seed = p.seeds[0]
        print(
            f"{name:7s} alpha={p.bg.alpha:5.2f} beta={p.bg.beta:5.2f} "
            f"zeta1={seed.zn} C1={np.round(seed.Cn, 6).tolist()}"
        )
    return 0


def cmd_solve(args) -> int:
    p = _resolve_preset(args)
    overrides = {f: getattr(args, f) for f in ("xmin", "xmax", "nx", "tmin", "tmax", "nt")}
    grid = dataclasses.replace(p.grid, **{f: v for f, v in overrides.items() if v is not None})
    fg = eval_field(grid, p.spec, preset_name=p.name)
    if args.format == "csv":
        write_csv(fg, args.out)
    else:
        write_json(fg, args.out)
    print(f"wrote {grid.nx}x{grid.nt} grid for {p.name} to {args.out} (masked: {fg.masked_count})")
    return 0


def cmd_scatter(args) -> int:
    p = _resolve_preset(args)
    spec = p.spec
    field = functools.partial(reconstruct_Q, spec=spec)
    zs = args.z or sigma_sample_points(spec.bg.k0, args.n_real_orbits, args.n_circle_orbits)
    sample = scattering_matrix(field, zs, args.tol, spec.bg, t0=args.t0)
    blocks = ("a", "b", "abar", "bbar", "rho", "rhobar")
    pairs = np.stack([getattr(sample, name) for name in blocks], axis=1).view(float).reshape(-1, 6, 2, 2, 2)
    columns = zip(sample.z, np.linalg.det(sample.S), np.abs(sample.rho).max(axis=(1, 2)), pairs.tolist())
    rows = [{"z": _pair(z), "det_S_deviation": abs(d - 1.0), "rho_norm": float(r), **dict(zip(blocks, m))}
            for z, d, r, m in columns]  # Python's abs of each det S - 1, a few 1e-30 off np.abs of the array
    report = {"schema_version": SCHEMA_VERSION, "preset": p.name, "t0": args.t0, "samples": rows}
    try:
        audit = audit_symmetries(sample, spec.bg)
        report["audit"] = {k: v for k, v in dataclasses.asdict(audit).items() if k != "n_samples"}
    except HirotaError as exc:
        report["audit"] = {"skipped": str(exc)}
    Path(args.out).write_text(json.dumps(report))
    print(f"wrote scattering report for {p.name} ({len(rows)} samples) to {args.out}")
    return 0


def cmd_roundtrip(args) -> int:
    p = _resolve_preset(args)
    spec = p.spec
    field = functools.partial(reconstruct_Q, spec=spec)
    k0 = spec.bg.k0
    # slightly asymmetric box so its edges avoid common eigenvalue locations
    # (integer/half-integer real parts); a zero near an edge moves the contour
    box = (-3.07 * k0, 3.05 * k0, 1.085 * k0, 3.21 * k0)
    found = find_discrete_spectrum(field, box, args.find_tol, spec.bg, t0=0.0)
    # one to one: the closest (seed, zero) pairs within tol first, so that a zero recovers at most one seed
    dist = [[abs(z - seed.zn) for z in found] for seed in p.seeds]
    match: dict[int, int] = {}
    for d, i, j in sorted((d, i, j) for i, row in enumerate(dist) for j, d in enumerate(row) if d <= args.tol):
        if i not in match and j not in match.values():
            match[i] = j
    for i, seed in enumerate(p.seeds):
        status = "recovered" if i in match else "MISSED"
        best = min(dist[i], default=float("nan"))
        print(f"eigenvalue {seed.zn}: {status} (closest error {best:.2e}, tol {args.tol:.1e})")
    ok = len(match) == len(p.seeds)
    extras = [z for j, z in enumerate(found) if j not in match.values()]
    if extras:
        ok = False
        print(f"spurious zeros found: {extras}")
    zs = sigma_sample_points(k0, n_real_orbits=3, n_circle_orbits=1)
    sample = scattering_matrix(field, zs, 1e-10, spec.bg, t0=0.0)
    rho_max = float(np.abs(sample.rho).max())
    dets_ok = all(abs(d - 1.0) <= 1e-8 for d in np.linalg.det(sample.S))
    print(f"max |rho| on spectrum samples: {rho_max:.2e} (tol {args.tol:.1e}); det S ok: {dets_ok}")
    ok = ok and rho_max <= args.tol and dets_ok
    print("roundtrip:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    p = _resolve_preset(args)
    spec = p.spec
    region = (p.grid.xmin, p.grid.xmax, p.grid.tmin, p.grid.tmax)
    checks: dict[str, dict] = {}
    field = functools.partial(reconstruct_Q, spec=spec)
    k0 = spec.bg.k0  # the problem's only scale: rates and deviations of Q in units of k0

    rep = pde_residual(field, region, args.n_probe, args.h, spec.bg)  # also reads Q = Q^T; SingularSystem: exit 2
    checks["pde_residual"] = {"max_residual": rep.max_residual, "argmax": list(rep.argmax), "h": rep.h,
                              "pass": rep.max_residual <= args.tol_residual}
    checks["symmetry"] = {"max_asymmetry": rep.max_asymmetry, "pass": rep.max_asymmetry <= 1e-10 * k0}

    rate = min_decay_rate(spec)
    if rate >= 0.75 * k0:
        dec = boundary_decay(field, t=0.25 / (k0 * k0**2), bg=spec.bg)  # a time, in units of 1/k0^3
        checks["boundary_decay"] = {"right_deviation": dec.right_deviation, "rate": dec.rate, "expected_rate": rate,
                                    "pass": dec.right_deviation <= 1e-8 * k0 and abs(dec.rate - rate) <= 0.1 * rate}
        ranks = tuple(s.rank_flag.value for s in p.seeds)
        expected_phase = theta_condition(TraceInput(spec.bg, tuple(s.zn for s in p.seeds), ranks))
        angle = float(np.angle(np.linalg.det(spec.bg.Qplus @ dagger(dec.Qminus_measured))))
        # the representative nearest the expected phase, so that a phase at the wrap reads the same either side of it
        measured_phase = expected_phase + (angle - expected_phase + math.pi) % (2 * math.pi) - math.pi
        checks["theta_condition"] = {"measured": measured_phase, "expected": expected_phase,
                                     "pass": abs(measured_phase - expected_phase) <= 1e-3}
    else:
        skipped = {"skipped": f"no spatial decay (rate < {0.75 * k0:g})", "pass": True}
        checks["boundary_decay"] = checks["theta_condition"] = skipped

    # seeds with Im lambda = 0 (on |z| = k0) that share one |Re lambda| make the field x-periodic
    lam = uniformize(np.array([s.zn for s in p.seeds], dtype=complex), spec.bg).lam
    if lam.size and np.all(np.abs(lam.imag) <= 1e-12 * np.abs(lam)) and np.ptp(np.abs(lam.real)) <= 1e-12 * abs(lam[0]):
        period = float(math.pi / abs(lam[0].real))  # 2 pi / (2 Re lambda)
        dev = periodicity_probe(field, "x", period, args.n_probe, region)
        checks["periodicity"] = {"axis": "x", "period": period, "max_deviation": dev, "pass": dev <= 1e-3 * k0}
    else:
        checks["periodicity"] = {"skipped": "no x-period (a seed with Im lambda != 0, or two values of |Re lambda|)",
                                 "pass": True}

    ok = all(c.get("pass", False) for c in checks.values())
    report = {"schema_version": SCHEMA_VERSION, "preset": p.name, "checks": checks, "pass": ok}
    if args.out:
        Path(args.out).write_text(json.dumps(report))
    for name, c in checks.items():
        print(f"{name}: {'PASS' if c.get('pass') else 'FAIL'} {c}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hirota-ist", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", help="preset name (see 'presets')")
        source.add_argument("--config", help="JSON config path")

    sp = sub.add_parser("presets", help="list preset parameter sets")
    sp.set_defaults(fn=cmd_presets)

    sp = sub.add_parser("solve", help="evaluate the field on a grid and export it")
    add_common(sp)
    for f in ("xmin", "xmax", "tmin", "tmax"):
        sp.add_argument(f"--{f}", type=float, default=None)
    for f in ("nx", "nt"):
        sp.add_argument(f"--{f}", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("scatter", help="direct scattering + symmetry audit report")
    add_common(sp)
    sp.add_argument("--z", action="append", type=_point,
                    help="sample point 're,im' (repeatable; --z=-2,0 where re is negative)")
    sp.add_argument("--n-real-orbits", type=int, default=2)
    sp.add_argument("--n-circle-orbits", type=int, default=1)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--tol", type=_positive, default=1e-10)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_scatter)

    sp = sub.add_parser("roundtrip", help="recover seed eigenvalues from the constructed field")
    add_common(sp)
    sp.add_argument("--tol", type=_positive, default=1e-3)
    sp.add_argument("--find-tol", type=_positive, default=1e-8, help="Jost mesh tolerance for the search")
    sp.set_defaults(fn=cmd_roundtrip)

    sp = sub.add_parser("verify", help="PDE residual, decay, symmetry, phase condition")
    add_common(sp)
    sp.add_argument("--h", type=_positive, default=1e-2)
    sp.add_argument("--n-probe", type=int, default=200)
    sp.add_argument("--tol-residual", type=_positive, default=1e-5)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (HirotaError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
