"""Benchmark workloads: seeded inputs, the CLI ops each workload runs, and
the correctness gate that decides whether an op failed.

Every op is one call of ``hirota_ist.cli.main`` (plus, for ``solve``, reading
the written file back).  Gates run outside the timed region and return a list
of problems; an empty list means the op passed.  The thresholds are checks
that hold at the commit that introduced this benchmark.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("grid", "verify", "scatter", "roundtrip")

GRID_PRESETS = ("fig11", "fig3a", "fig10d")
GRID_NX, GRID_NT = 41, 25
VERIFY_PRESETS = ("fig5", "fig3a", "fig10d")
N_PROBE = 100
# verify's pde_residual.max_residual with --n-probe 100, at the commit that
# introduced this benchmark; fig3a and fig10d exceed the 1e-5 tolerance (the
# documented criterion-1 cases), so their gate is "within 10% of this value".
SEED_RESIDUAL = {"fig5": 4.1034634166734934e-08, "fig3a": 1.2097139933196787e-05, "fig10d": 4.790721940194716e-03}
SCATTER_PRESET, SCATTER_ORBITS = "fig6", (8, 4)
ROUNDTRIP_PRESET, ROUNDTRIP_FIND_TOL = "fig3a", "1e-4"
GATE_POINTS = 6
CLOSED_FORM_TOL = 1e-12


@dataclass
class Outcome:
    rc: int
    stdout: str
    value: object = None  # read-back FieldGrid for solve ops


@dataclass
class Op:
    key: str
    argv: list[str]
    work: int  # grid points (solve), probes (verify), samples (scatter), 1 (roundtrip)
    gate: Callable[[Outcome], list[str]]
    read: Callable[[], object] | None = None
    stats: dict = field(default_factory=dict)  # gate diagnostics, e.g. closed-form error


# -- seeded input ---------------------------------------------------------

def config_doc(seed: int) -> dict:
    """One admissible --config document drawn from ``seed``.

    One eigenvalue zeta = r e^{i phi} with r in [1.7, 1.85] and phi in
    [82, 98] degrees (in D+, outside the circle band), and a symmetric
    rank-2 norming constant with entries of modulus [0.5, 2] and
    |det| >= 0.5 max|entry|^2.  alpha = 0.5, beta = 0.02, grid
    [-4, 4] x [-2, 2] at 41 x 25.  Every gate passes on this range at the
    commit that introduced the benchmark (see bench/README.md).
    """
    rng = random.Random(seed)
    r = rng.uniform(1.7, 1.85)
    phi = math.radians(rng.uniform(82.0, 98.0))
    while True:
        g = [rng.uniform(0.5, 2.0) * complex(math.cos(a), math.sin(a))
             for a in (rng.uniform(0.0, 2 * math.pi) for _ in range(3))]
        if abs(g[0] * g[2] - g[1] ** 2) >= 0.5 * max(abs(v) for v in g) ** 2:
            break
    pair = lambda v: [v.real, v.imag]
    return {
        "name": f"seeded-{seed}",
        "background": {"sigma": -1, "k0": 1.0, "alpha": 0.5, "beta": 0.02,
                       "qplus": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        "seeds": [{"zeta": [r * math.cos(phi), r * math.sin(phi)],
                   "c": [[pair(g[0]), pair(g[1])], [pair(g[1]), pair(g[2])]]}],
        "grid": {"xmin": -4.0, "xmax": 4.0, "nx": GRID_NX, "tmin": -2.0, "tmax": 2.0, "nt": GRID_NT},
    }


def write_config(seed: int, workdir: Path) -> Path:
    path = workdir / "seeded_config.json"
    path.write_text(json.dumps(config_doc(seed)))
    return path


def config_preset(api, doc: dict):
    """(seed eigenpair, background) of a config document, from exported names."""
    c = lambda p: complex(p[0], p[1])
    mat = lambda m: np.array([[c(m[0][0]), c(m[0][1])], [c(m[1][0]), c(m[1][1])]])
    b = doc["background"]
    Qp = mat(b["qplus"])
    bg = api.Background(sigma=b["sigma"], k0=b["k0"], alpha=b["alpha"], beta=b["beta"], Qplus=Qp, Qminus=Qp)
    s = doc["seeds"][0]
    return api.DiscreteEigenpair(zn=c(s["zeta"]), Cn=mat(s["c"])), bg


# -- gates ------------------------------------------------------------------

def check_grid(api, path: Path, fmt: str, grid, seed_pair, bg, nx: int, nt: int,
               points: list[tuple[int, int]], stats: dict) -> list[str]:
    """Read-back grid: complete, bit-exact and equal to the closed form."""
    problems = []
    if grid.values.shape != (nt, nx, 2, 2):
        return [f"grid shape {grid.values.shape}, expected ({nt}, {nx}, 2, 2)"]
    if grid.masked_count or not np.all(np.isfinite(grid.values)):
        problems.append(f"{grid.masked_count} masked / non-finite points")
    again = path.with_name(path.name + ".again")
    (api.write_csv if fmt == "csv" else api.write_json)(grid, again)
    if again.read_bytes() != path.read_bytes():
        problems.append("re-serialising the read-back grid does not reproduce the file")
    spec = api.expand_quartets([seed_pair], bg)
    worst = 0.0
    for it, ix in points:
        x, t = float(grid.xs[ix]), float(grid.ts[it])
        Q = api.reconstruct_Q(x, t, spec)
        got = grid.values[it, ix]
        if (got[0, 0], got[0, 1], got[1, 1]) != (Q[0, 0], Q[0, 1], Q[1, 1]):
            problems.append(f"value at (x={x}, t={t}) is not bit-exact")
        if np.max(np.abs(Q - Q.T)) > 1e-10:
            problems.append(f"Q != Q^T at (x={x}, t={t})")
        Qc = api.one_soliton_closed_form(x, t, seed_pair, bg)
        worst = max(worst, float(np.max(np.abs(got - Qc))))
    stats["closed_form_err"] = max(stats.get("closed_form_err", 0.0), worst)
    if not worst <= CLOSED_FORM_TOL:
        problems.append(f"closed-form disagreement {worst:.2e} > {CLOSED_FORM_TOL:.0e}")
    return problems


def check_verify(doc: dict, rc: int, ref_residual: float | None) -> list[str]:
    """Gate on the report's contents; exit 1 alone is not a failure."""
    problems = []
    checks = doc["checks"]
    for name in ("symmetry", "boundary_decay", "theta_condition"):
        if checks[name].get("pass") is not True:
            problems.append(f"{name} check failed")
    r = checks["pde_residual"]["max_residual"]
    if ref_residual is not None:
        if not abs(r - ref_residual) <= 0.1 * ref_residual:
            problems.append(f"pde residual {r:.3e} not within 10% of {ref_residual:.3e}")
    elif checks["pde_residual"].get("pass") is not True:
        problems.append(f"pde residual {r:.3e} fails its tolerance")
    if rc != (0 if doc.get("pass") else 1):
        problems.append(f"exit code {rc} disagrees with report pass={doc.get('pass')}")
    return problems


def check_scatter(doc: dict, rc: int, n_samples: int) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    samples = doc.get("samples", [])
    if len(samples) != n_samples:
        problems.append(f"{len(samples)} samples, expected {n_samples}")
    det_dev = max((s["det_S_deviation"] for s in samples), default=math.inf)
    rho = max((s["rho_norm"] for s in samples), default=math.inf)
    if not det_dev <= 1e-8:
        problems.append(f"det S deviation {det_dev:.2e} > 1e-8")
    if not rho <= 1e-3:
        problems.append(f"max |rho| {rho:.2e} > 1e-3")
    audit = doc.get("audit", {})
    if "skipped" in audit or not audit:
        problems.append(f"symmetry audit skipped: {audit.get('skipped')}")
    elif not max(audit.values()) <= 1e-6:
        problems.append(f"symmetry audit deviation {max(audit.values()):.2e} > 1e-6")
    return problems


_EIG_LINE = re.compile(r"^eigenvalue (\S+): (recovered|MISSED) \(closest error (\S+),", re.M)


def check_roundtrip(stdout: str, rc: int, eigenvalues: list[complex]) -> list[str]:
    problems = []
    if rc != 0 or "roundtrip: PASS" not in stdout:
        problems.append(f"roundtrip did not pass (exit {rc})")
    found = {complex(m.group(1)): (m.group(2), float(m.group(3))) for m in _EIG_LINE.finditer(stdout)}
    for z in eigenvalues:
        status, err = found.get(z, ("absent", math.inf))
        if status != "recovered" or not err <= 1e-3:
            problems.append(f"eigenvalue {z}: {status}, error {err:.2e}")
    return problems


# -- op lists -----------------------------------------------------------------

def gate_points(seed: int, key: str, nx: int, nt: int) -> list[tuple[int, int]]:
    rng = random.Random(f"{seed}:{key}")
    return [(rng.randrange(nt), rng.randrange(nx)) for _ in range(GATE_POINTS)]


def make_ops(workload: str, seed: int, workdir: Path, config_path: Path, api) -> list[Op]:
    """The ops of one pass of ``workload``, in the order they run."""
    doc = json.loads(config_path.read_text())
    cfg_pair, cfg_bg = config_preset(api, doc)
    ops: list[Op] = []

    if workload == "grid":
        items = [(name, ["--preset", name, "--nx", str(GRID_NX), "--nt", str(GRID_NT)], "csv")
                 for name in GRID_PRESETS]
        items.append(("config", ["--config", str(config_path), "--format", "json"], "json"))
        for name, sel, fmt in items:
            out = workdir / f"grid_{name}.{fmt}"
            if name == "config":
                pair, bg = cfg_pair, cfg_bg
            else:
                p = api.preset(name)
                pair, bg = p.seeds[0], p.bg
            key = f"solve:{name}"
            points = gate_points(seed, key, GRID_NX, GRID_NT)
            stats: dict = {}
            read = (lambda out=out: api.read_csv(out)) if fmt == "csv" else (lambda out=out: api.read_json(out))
            ops.append(Op(
                key=key, argv=["solve", *sel, "--out", str(out)], work=GRID_NX * GRID_NT, read=read, stats=stats,
                gate=lambda o, out=out, fmt=fmt, pair=pair, bg=bg, points=points, stats=stats:
                    check_grid(api, out, fmt, o.value, pair, bg, GRID_NX, GRID_NT, points, stats),
            ))

    elif workload == "verify":
        for name in (*VERIFY_PRESETS, "config"):
            out = workdir / f"verify_{name}.json"
            sel = ["--config", str(config_path)] if name == "config" else ["--preset", name]
            ref = SEED_RESIDUAL.get(name)
            ops.append(Op(
                key=f"verify:{name}", argv=["verify", *sel, "--n-probe", str(N_PROBE), "--out", str(out)],
                work=N_PROBE,
                gate=lambda o, out=out, ref=ref: check_verify(json.loads(out.read_text()), o.rc, ref),
            ))

    elif workload == "scatter":
        out = workdir / "scatter.json"
        n_real, n_circle = SCATTER_ORBITS
        n = 4 * (n_real + n_circle)
        ops.append(Op(
            key=f"scatter:{SCATTER_PRESET}",
            argv=["scatter", "--preset", SCATTER_PRESET, "--n-real-orbits", str(n_real),
                  "--n-circle-orbits", str(n_circle), "--out", str(out)],
            work=n,
            gate=lambda o: check_scatter(json.loads(out.read_text()), o.rc, n),
        ))

    elif workload == "roundtrip":
        eigs = [s.zn for s in api.preset(ROUNDTRIP_PRESET).seeds]
        ops.append(Op(
            key=f"roundtrip:{ROUNDTRIP_PRESET}",
            argv=["roundtrip", "--preset", ROUNDTRIP_PRESET, "--find-tol", ROUNDTRIP_FIND_TOL],
            work=1,
            gate=lambda o: check_roundtrip(o.stdout, o.rc, eigs),
        ))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return ops
