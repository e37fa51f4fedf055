import csv
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hirota_ist as h
from hirota_ist import cli
from hirota_ist.cli import load_config, main, sigma_sample_points
from hirota_ist.errors import UnknownPreset
from hirota_ist.grids import CSV_HEADER, FieldGrid, read_csv, read_json, write_csv, write_json
from hirota_ist.presets import preset, preset_names
from hirota_ist.solitons import RankFlag


def test_all_presets_load_and_validate():
    names = preset_names()
    assert len(names) == 11
    for name in names:
        p = preset(name)
        spec = p.spec
        assert len(spec.zetas) == 2


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("fig99")


def test_fig3a_caption_values():
    p = preset("fig3a")
    assert p.bg.alpha == 1.0 and p.bg.beta == 0.1 and p.bg.k0 == 1.0 and p.bg.sigma == -1
    assert p.seeds[0].zn == 2j
    np.testing.assert_array_equal(p.seeds[0].Cn, np.ones((2, 2)))
    np.testing.assert_array_equal(p.bg.Qplus, np.eye(2))
    g = p.grid
    assert (g.xmin, g.xmax, g.nx, g.tmin, g.tmax, g.nt) == (-5.0, 5.0, 201, -3.0, 3.0, 121)


def test_fig5_caption_values():
    p = preset("fig5")
    assert p.bg.alpha == -1.0 and p.bg.beta == 0.01
    assert p.seeds[0].zn == 0.5 + 0.8j
    np.testing.assert_array_equal(p.seeds[0].Cn, np.array([[0, 1], [1, 0]]))


def test_fig11_caption_values():
    p = preset("fig11")
    assert p.bg.alpha == 1.0 and p.bg.beta == 0.1
    assert abs(p.seeds[0].zn - (0.5 + math.sqrt(3) / 2 * 1j)) < 1e-15
    np.testing.assert_array_equal(p.seeds[0].Cn, np.array([[1j, 2], [2, -4j]]))
    assert p.seeds[0].rank_flag is RankFlag.RANK1


def _tiny_grid() -> FieldGrid:
    rng = np.random.default_rng(42)
    xs = np.array([-1.0, 0.5, 2.0])
    ts = np.array([0.0, 1.5])
    vals = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
    vals[:, :, 1, 0] = vals[:, :, 0, 1]
    mask = np.zeros((2, 3), bool)
    mask[1, 2] = True
    vals[1, 2] = np.nan
    return FieldGrid(xs=xs, ts=ts, values=vals, mask=mask, metadata={"preset": "test"})


def test_csv_roundtrip_bit_exact(tmp_path):
    grid = _tiny_grid()
    path = tmp_path / "grid.csv"
    write_csv(grid, path)
    back = read_csv(path)
    np.testing.assert_array_equal(back.xs, grid.xs)
    np.testing.assert_array_equal(back.ts, grid.ts)
    np.testing.assert_array_equal(back.mask, grid.mask)
    ok = ~grid.mask
    assert np.array_equal(back.values[ok], grid.values[ok])


def test_json_roundtrip(tmp_path):
    grid = _tiny_grid()
    path = tmp_path / "grid.json"
    write_json(grid, path)
    back = read_json(path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == "1"
    ok = ~grid.mask
    assert np.array_equal(back.values[ok], grid.values[ok])
    assert back.metadata["preset"] == "test"


def test_cli_presets_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_cli_solve_small_grid(tmp_path):
    out = tmp_path / "f.csv"
    rc = main(
        ["solve", "--preset", "fig3a", "--nx", "3", "--nt", "3",
         "--xmin", "-1", "--xmax", "1", "--tmin", "-1", "--tmax", "1",
         "--out", str(out)]
    )
    assert rc == 0
    with out.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 9


def test_cli_solve_zero_constant_config(tmp_path):
    cfg = {
        "name": "flat",
        "background": {"sigma": -1, "k0": 1.0, "alpha": 1.0, "beta": 0.1,
                       "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "seeds": [{"zeta": [0, 2], "c": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}],
        "grid": {"xmin": -1, "xmax": 1, "nx": 3, "tmin": -1, "tmax": 1, "nt": 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "flat.csv"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    grid = read_csv(out)
    assert grid.masked_count == 0
    for it in range(3):
        for ix in range(3):
            np.testing.assert_array_equal(grid.values[it, ix], np.eye(2))


def test_cli_bad_inputs(tmp_path, capsys):
    assert main(["solve", "--preset", "fig99", "--out", str(tmp_path / "x.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["solve", "--out", str(tmp_path / "x.csv")]) == 2  # no preset/config
    assert main(["nonsense"]) == 2
    # both --preset and --config: the config was once taken silently
    capsys.readouterr()
    good = tmp_path / "cfg.json"
    good.write_text(json.dumps(_CFG))
    assert main(["solve", "--preset", "fig3a", "--config", str(good), "--out", str(tmp_path / "x.csv")]) == 2
    assert "argument --config: not allowed with argument --preset" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_config_mirrors_preset(tmp_path):
    p = preset("fig6")
    cfg = {
        "name": "fig6copy",
        "background": {"sigma": -1, "k0": 1.0, "alpha": 1.0, "beta": 0.01,
                       "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "seeds": [{"zeta": [1, 2], "c": [[[1, 0], [1, 0]], [[1, 0], [2, 0]]]}],
    }
    path = tmp_path / "fig6.json"
    path.write_text(json.dumps(cfg))
    q = load_config(path)
    assert q.seeds[0].zn == p.seeds[0].zn
    np.testing.assert_array_equal(q.seeds[0].Cn, p.seeds[0].Cn)
    assert q.grid == p.grid  # defaults applied


def test_sigma_sample_points_closed():
    pts = sigma_sample_points(1.0, n_real_orbits=2, n_circle_orbits=1)
    assert len(pts) == 12
    for z in pts:
        assert any(abs(np.conj(z) - w) < 1e-12 for w in pts)
        assert any(abs(-1.0 / z - w) < 1e-12 for w in pts)
    assert len(sigma_sample_points(1.0, n_real_orbits=8, n_circle_orbits=4)) == 48


@pytest.mark.parametrize("real, circle", [("-1", "1"), ("9", "1"), ("20", "1"), ("2", "-2"), ("2", "5"), ("0", "0")])
def test_cli_scatter_exit_2_on_bad_orbit_counts(tmp_path, real, circle):
    # slicing the orbit tables once turned -1 real orbits into 7, 20 into 8, -2 circle orbits
    # into 2, and 0 0 into an empty report whose audit passed with nothing checked
    out = tmp_path / "s.json"
    argv = ["scatter", "--preset", "fig3a", "--n-real-orbits", real, "--n-circle-orbits", circle, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("z", ["nan,0", "inf,0", "1"])
def test_cli_scatter_exit_2_on_a_bad_z(tmp_path, z, capsys):
    # nan and inf once passed into the mesh (numpy RuntimeWarnings, then "non-finite Jost solution"), and a
    # missing comma failed with "not enough values to unpack"
    out = tmp_path / "s.json"
    assert main(["scatter", "--preset", "fig3a", "--z", z, "--out", str(out)]) == 2
    assert "argument --z" in capsys.readouterr().err
    assert not out.exists()


def test_cli_scatter_exit_2_on_a_z_off_sigma(tmp_path, capsys):
    # 1.5i lies in D+, where b and rho do not exist; it once read rho 4.2e-7 of amplified rounding and exited 0
    out = tmp_path / "s.json"
    assert main(["scatter", "--preset", "fig6", "--z", "0.7,0", "--z", "0,1.5", "--out", str(out)]) == 2
    assert "error: scattering_matrix requires z on Sigma (got Region.D_PLUS at z = 1.5j)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t0", ["4", "12"])
def test_cli_scatter_fig6_reflectionless_after_its_front_moves(tmp_path, t0):
    # fig6's front moves left: at L = 20 its left outermost probe is off its limit at t0 = 4
    # (max |rho| 6.4e-3) and its -2L sample is off the background at t0 = 12 (NoBackground);
    # the mesh grows L instead.  Circle samples amplify rounding by e^{2 |Im theta(0, t0)|},
    # so only the real axis is checked.
    out = tmp_path / "s.json"
    assert main(["scatter", "--preset", "fig6", "--t0", t0, "--out", str(out)]) == 0
    samples = json.loads(out.read_text())["samples"]
    assert max(s["rho_norm"] for s in samples if s["z"][1] == 0.0) <= 1e-10


def test_cli_verify_preset(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--preset", "fig4", "--n-probe", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["checks"]["pde_residual"]["pass"] is True
    assert doc["checks"]["theta_condition"]["pass"] is True
    assert set(doc["checks"]["theta_condition"]) == {"measured", "expected", "pass"}


@pytest.mark.parametrize("name, decay, periodicity", [("fig4", True, False), ("fig11", False, True),
                                                     ("fig5", False, False)])
def test_cli_verify_samples_its_region_once(tmp_path, monkeypatch, name, decay, periodicity):
    # the symmetry check reads the residual's 15 stencil samples a probe, so verify builds no grid: it evaluates
    # 15 n_probe points, 19 more where the decay check runs and 2 n_probe more where the periodicity probe runs
    def no_grid(*args, **kwargs):
        raise AssertionError("verify evaluated a grid")

    monkeypatch.setattr(h.solitons, "eval_field", no_grid)
    monkeypatch.setattr(cli, "eval_field", no_grid)
    points = []

    def counted(x, t, spec):
        points.append(math.prod(np.broadcast_shapes(np.shape(x), np.shape(t))))
        return h.reconstruct_Q(x, t, spec)

    monkeypatch.setattr(cli, "reconstruct_Q", counted)
    out = tmp_path / "verify.json"
    assert main(["verify", "--preset", name, "--n-probe", "12", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert sum(points) == 15 * 12 + 19 * decay + 2 * 12 * periodicity
    assert ("skipped" not in checks["boundary_decay"]) == decay
    assert ("skipped" not in checks["periodicity"]) == periodicity
    assert set(checks["symmetry"]) == {"max_asymmetry", "pass"} and checks["symmetry"]["pass"] is True
    assert checks["symmetry"]["max_asymmetry"] <= 1e-10


def test_cli_verify_exit_2_on_a_singular_probe(monkeypatch, capsys):
    # kappa_inf over fig3a's region lies between 1 and about 5: a limit of 1.5 makes the residual's probes raise
    # SingularSystem, which verify reports as bad input rather than as a failed or skipped check
    monkeypatch.setattr(h.solitons, "COND_LIMIT", 1.5)
    assert main(["verify", "--preset", "fig3a", "--n-probe", "12"]) == 2
    assert "error: kappa_inf above 2e+00 at" in capsys.readouterr().err


@pytest.mark.parametrize("turn", [-1e-12, 1e-12])
def test_cli_verify_states_the_measured_phase_nearest_the_expected(tmp_path, monkeypatch, turn):
    # fig8's boundary phase is the expected 0 to rounding, so read mod 2 pi it could state 4.5e-17 or
    # 6.283185307179586 from one ulp's move of the field.  Turned by 1e-12 either way, it must read 1e-12 from 0
    decay = cli.boundary_decay

    def turned(*args, **kwargs):
        dec = decay(*args, **kwargs)  # det(Q+ Q-^dag) takes e^{i turn}
        return dataclasses.replace(dec, Qminus_measured=dec.Qminus_measured * np.exp(-0.5j * turn))

    monkeypatch.setattr(cli, "boundary_decay", turned)
    out = tmp_path / "verify.json"
    main(["verify", "--preset", "fig8", "--n-probe", "12", "--out", str(out)])
    theta = json.loads(out.read_text())["checks"]["theta_condition"]
    assert theta["expected"] == 0.0 and theta["pass"] is True
    assert abs(theta["measured"] - turn) <= 1e-15, theta


def _verify_theta_condition(tmp_path, seeds, alpha, beta):
    """Seed flags and theta_condition check of `verify --config` on seeds [(zeta, C), ...] with Q+- = I."""
    pair = lambda v: [float(v.real), float(v.imag)]
    cfg = {
        "name": "config",
        "background": {"sigma": -1, "k0": 1.0, "alpha": alpha, "beta": beta,
                       "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "seeds": [{"zeta": pair(zeta), "c": [[pair(C[0, 0]), pair(C[0, 1])],
                                             [pair(C[1, 0]), pair(C[1, 1])]]} for zeta, C in seeds],
        "grid": {"xmin": -4, "xmax": 4, "nx": 41, "tmin": -2, "tmax": 2, "nt": 25},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "verify.json"
    main(["verify", "--config", str(cfg_path), "--n-probe", "12", "--out", str(out)])
    return [s.rank_flag for s in load_config(cfg_path).seeds], json.loads(out.read_text())["checks"]["theta_condition"]


def test_cli_verify_rank1_config_theta_condition(tmp_path):
    # a float rank-1 seed from the benchmark's seeded range: alpha = 0.5,
    # beta = 0.02, |zeta| in [1.7, 1.85], arg zeta in [82, 98] deg, Q+ = I;
    # its partner constant carries a rounding-level rank-2 part that must
    # not change the measured left boundary phase
    rng = np.random.default_rng(1)
    zeta = rng.uniform(1.7, 1.85) * np.exp(1j * math.radians(rng.uniform(82.0, 98.0)))
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    C = np.outer(u, u)
    C[1, 0] = C[0, 1]
    (flag,), theta = _verify_theta_condition(tmp_path, [(zeta, C)], 0.5, 0.02)
    assert flag is RankFlag.RANK1
    assert theta["pass"] is True, theta


def test_cli_verify_near_rank1_config_theta_condition(tmp_path):
    # rank 2 with sigma2 / sigma1 = 2.5e-12: its partner once read as rank 1,
    # and the measured phase (0.360) then missed the phase condition; the rest of the
    # report is not asserted (pde_residual reads 1.04e-5 at h = 1e-2, stencil
    # truncation)
    (flag,), theta = _verify_theta_condition(tmp_path, [(1 + 2j, np.array([[1, 1], [1, 1 + 1e-11]]))], 1.0, 0.1)
    assert flag is RankFlag.RANK2
    assert theta["pass"] is True, theta


def test_cli_verify_mixed_order_config_theta_condition(tmp_path):
    # the seeds of test_two_eigenvalue_recovery: a simple zero 2i and a double zero 1 + 2i, so the expected phase
    # is 4 arg 2i + 8 arg(1 + 2i) mod 2 pi
    seeds = [(2j, np.ones((2, 2), dtype=complex)), (1 + 2j, np.array([[1, 0.5], [0.5, 1]], dtype=complex))]
    flags, theta = _verify_theta_condition(tmp_path, seeds, 1.0, 0.1)
    assert flags == [RankFlag.RANK1, RankFlag.RANK2]
    assert abs(theta["expected"] - (2 * math.pi + 8 * math.atan2(2, 1)) % (2 * math.pi)) <= 1e-12, theta
    assert theta["pass"] is True, theta


def test_cli_verify_skips_decay_checks_without_decay(tmp_path):
    # fig5's eigenvalue gives Im lambda < 0.375: no spatial decay to fit
    out = tmp_path / "verify5.json"
    rc = main(["verify", "--preset", "fig5", "--n-probe", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "skipped" in doc["checks"]["boundary_decay"]


@pytest.mark.parametrize("name", ["fig11", "fig5"])
def test_cli_verify_checks_periodicity_only_with_im_lambda_zero(tmp_path, name):
    # fig11's seed lies on |z| = k0, where Im lambda = 0, so the field repeats along x with period
    # 2 pi / (2 Re lambda) = 2 pi; fig5's seed has Im lambda = -0.049 and its field does not repeat
    out = tmp_path / f"verify_{name}.json"
    assert main(["verify", "--preset", name, "--n-probe", "12", "--out", str(out)]) == 0
    check = json.loads(out.read_text())["checks"]["periodicity"]
    if name == "fig11":
        assert check["period"] == pytest.approx(2 * math.pi) and check["max_deviation"] <= 1e-3
        assert check["pass"] is True
    else:
        assert "skipped" in check and check["pass"] is True


def test_cli_verify_checks_periodicity_of_a_seed_within_sigmas_band(tmp_path):
    # fig11's seed moved to (1 + 1e-11) e^{i pi/3}: Im lambda is 1.7e-11 |lambda|, within Sigma's band DELTA, so
    # spectral puts the seed on Sigma and verify probes the x-period; verify's own rule, |Im lambda| <= 1e-12
    # |lambda|, once skipped the check
    seed = preset("fig11").seeds[0]
    cfg = {"background": {"sigma": -1, "k0": 1.0, "alpha": 1.0, "beta": 0.1,
                          "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
           "seeds": [{"zeta": [(1 + 1e-11) * seed.zn.real, (1 + 1e-11) * seed.zn.imag],
                      "c": [[[c.real, c.imag] for c in row] for row in seed.Cn.tolist()]}]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "v.json"
    assert main(["verify", "--config", str(tmp_path / "cfg.json"), "--n-probe", "12", "--out", str(out)]) == 0
    check = json.loads(out.read_text())["checks"]["periodicity"]
    assert check["period"] == pytest.approx(2 * math.pi) and check["max_deviation"] <= 1e-3 and check["pass"] is True


def test_cli_verify_says_why_it_skips_periodicity_of_a_seed_off_sigma(tmp_path):
    # fig11's seed moved off |z| = k0 until Im lambda is 1e-8 |lambda|, past Sigma's band DELTA: spectral puts it
    # in D+, the field is not x-periodic, and the skipped check names that rule, not a zero Im lambda
    seed = preset("fig11").seeds[0]  # on |z| = 1 at phi = pi/3; at |z| = 1 + d, Im lambda is d tan(phi) |lambda|
    zeta = (1 + 1e-8 / math.tan(math.pi / 3)) * seed.zn
    sp = h.uniformize(zeta, preset("fig11").bg)
    assert sp.region is h.Region.D_PLUS and sp.lam.imag / abs(sp.lam) == pytest.approx(1e-8, rel=1e-6)
    cfg = {"background": {"sigma": -1, "k0": 1.0, "alpha": 1.0, "beta": 0.1,
                          "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
           "seeds": [{"zeta": [zeta.real, zeta.imag],
                      "c": [[[c.real, c.imag] for c in row] for row in seed.Cn.tolist()]}]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "v.json"
    assert main(["verify", "--config", str(tmp_path / "cfg.json"), "--n-probe", "12", "--out", str(out)]) == 0
    check = json.loads(out.read_text())["checks"]["periodicity"]
    assert check == {"skipped": "no x-period (a seed off Sigma, or two values of |Re lambda|)", "pass": True}


def test_cli_verify_exit_1_on_residual_failure(tmp_path):
    # fig3d's genuine stencil truncation at h = 1e-2 exceeds the default
    # 1e-5 tolerance (see ledger); the command reports it as failure
    rc = main(["verify", "--preset", "fig3d", "--n-probe", "40"])
    assert rc == 1


@pytest.mark.parametrize("n_probe", ["0", "-3"])
def test_cli_verify_exit_2_on_bad_probe_count(n_probe):
    # bad input, not a failed verification
    assert main(["verify", "--preset", "fig5", "--n-probe", n_probe]) == 2


@pytest.mark.parametrize("command", ["scatter", "roundtrip"])
@pytest.mark.parametrize("name", ["fig5", "fig11"])
def test_cli_exit_2_on_a_field_without_background(tmp_path, capsys, command, name):
    # fig5 and fig11 are periodic in x: |Q Q^dag - k0^2 I| is 0.017 and 0.33 at x = -40, and
    # they settle at no truncation up to the largest, whose left limit is sampled at x = -160
    extra = ["--out", str(tmp_path / "s.json")] if command == "scatter" else []
    assert main([command, "--preset", name, *extra]) == 2
    err = capsys.readouterr().err
    assert "field does not settle" in err and "x = -160" in err, err


@pytest.mark.parametrize("argv", [["roundtrip", "--preset", "fig3a", "--find-tol", "inf"],
                                  ["scatter", "--preset", "fig3a", "--tol", "inf", "--out"],
                                  ["verify", "--preset", "fig5", "--n-probe", "12", "--h", "inf", "--out"],
                                  ["verify", "--preset", "fig4", "--h", "1e200", "--out"],
                                  ["verify", "--preset", "fig4", "--h", "1e-110", "--out"]])
def test_cli_exit_2_on_a_non_finite_tolerance_or_step(tmp_path, capsys, argv):
    # an infinite tolerance once divided by zero probe cells (exit 1 with a traceback), and an infinite
    # step raised a singular system at x = -inf; a step whose cube overflows or underflows (1e200: an
    # OverflowError traceback, 1e-110: a NaN residual) exited 1, as if the verification had failed
    out = tmp_path / "out.json"
    value = argv[-2] if argv[-1] == "--out" else argv[-1]
    assert main([*argv, str(out)] if argv[-1] == "--out" else argv) == 2
    err = capsys.readouterr().err
    assert "must be positive and finite" in err and f"not {float(value)}" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["roundtrip", "--preset", "fig3a", "--find-tol", "1e-4", "--tol", "nan"],
                                  ["roundtrip", "--preset", "fig3a", "--find-tol", "1e-4", "--tol", "inf"],
                                  ["verify", "--preset", "fig4", "--tol-residual", "nan"],
                                  ["verify", "--preset", "fig4", "--tol-residual", "inf"]])
def test_cli_exit_2_on_a_non_finite_acceptance_tolerance(capsys, argv):
    # a NaN tolerance once failed every check (exit 1), and an infinite one passed whatever was measured
    assert main(argv) == 2
    assert f"must be positive and finite, not {argv[-1]}" in capsys.readouterr().err


_CFG = {
    "name": "one",
    "background": {"sigma": -1, "k0": 1.0, "alpha": 1.0, "beta": 0.1,
                   "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    "seeds": [{"zeta": [0, 1.2], "c": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}],
    "grid": {"xmin": -1, "xmax": 1, "nx": 5, "tmin": -1, "tmax": 1, "nt": 3},
}


def _edit(path, value):
    """A copy of _CFG with the entry at `path` (a tuple of keys) set to value; the empty path replaces it all."""
    doc = json.loads(json.dumps(_CFG))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value", [
    pytest.param(("seeds", 0, "zeta"), [1.2], id="zeta-one-entry"),  # IndexError
    pytest.param(("seeds", 0, "zeta"), 1.2, id="zeta-number"),
    pytest.param(("seeds", 0, "zeta"), "1.2j", id="zeta-string"),  # TypeError
    pytest.param(("seeds",), {"zeta": [0, 1.2]}, id="seeds-object"),
    pytest.param(("seeds",), 3, id="seeds-number"),
    pytest.param((), [_CFG], id="document-list"),
    pytest.param(("grid", "nx"), 2.5, id="nx-fraction"),  # once truncated to 2
    pytest.param(("grid", "nt"), math.nan, id="nt-nan"),
    pytest.param(("background", "alpha"), math.nan, id="alpha-nan"),  # once masked every point
    pytest.param(("background", "sigma"), math.inf, id="sigma-inf"),  # int(inf) once raised OverflowError
    pytest.param(("background", "sigma"), -1.5, id="sigma-fraction"),  # once truncated to -1
])
def test_cli_solve_exit_2_on_a_malformed_config(tmp_path, capsys, path, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_edit(path, value)))
    out = tmp_path / "g.csv"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"bad config {cfg_path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "scatter", "verify", "roundtrip"])
def test_cli_exit_2_on_colliding_poles_in_every_subcommand(tmp_path, capsys, command):
    # seeds 1.2i and i/1.2 at k0 = 1 put zeta_0* on zeta_3; solve once wrote a grid of masked NaN rows and exited 0
    doc = _edit(("seeds",), [_CFG["seeds"][0], {"zeta": [0, 1 / 1.2], "c": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path)] + (["--out", str(out)] if command != "roundtrip" else [])) == 2
    err = capsys.readouterr().err
    assert f"bad config {cfg_path}" in err and "zeta_0* collides with zeta_3" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "scatter", "verify", "roundtrip"])
def test_cli_exit_2_on_an_empty_seed_list_in_every_subcommand(tmp_path, capsys, command):
    # "seeds": [] once reached the first field call and failed there with numpy's "need at least one array
    # to concatenate", which named neither the file nor the seeds
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_edit(("seeds",), [])))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path)] + (["--out", str(out)] if command != "roundtrip" else [])) == 2
    err = capsys.readouterr().err
    assert f"bad config {cfg_path}: NoSeeds: the seed list is empty" in err
    assert not out.exists()


def test_cli_solve_exit_2_on_a_non_finite_grid_bound(tmp_path):
    # --xmax inf once wrote a grid of non-finite x with every point masked, and exited 0; so did a config's
    out = tmp_path / "g.csv"
    argv = ["solve", "--preset", "fig4", "--nx", "3", "--nt", "3", "--out", str(out)]
    assert main([*argv, "--xmax", "inf"]) == 2
    assert main([*argv, "--tmin", "-inf"]) == 2
    cfg = {
        "name": "flat",
        "background": {"sigma": -1, "k0": 1.0, "alpha": 1.0, "beta": 0.1,
                       "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "seeds": [{"zeta": [0, 2], "c": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}],
        "grid": {"xmin": -1, "xmax": math.inf, "nx": 3, "tmin": -1, "tmax": 1, "nt": 3},  # written as Infinity
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_scatter_exit_2_where_the_jost_mesh_would_be_too_fine(tmp_path, capsys):
    # tol 1e-40 once died with an uncaught numpy._ArrayMemoryError, and 1e-300 with "Maximum allowed size exceeded"
    out = tmp_path / "s.json"
    for tol in ("1e-40", "1e-300"):
        assert main(["scatter", "--preset", "fig3a", "--z", "0.7,0", "--tol", tol, "--out", str(out)]) == 2
        assert f"error: Jost mesh too fine: tol {tol} and k0 1 ask for" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k0", [0.25, 4.0])
def test_cli_verify_reads_a_mapped_config_as_its_preset(tmp_path, k0):
    # fig4 mapped to k0: background (k0, alpha k0, beta), seed (k0 zeta, k0 C), grid (x/k0, t/k0^3).  verify's rate
    # floor, decay time and bounds follow k0, so its decay, phase and symmetry checks read as fig4's, the rate and
    # the right deviation times k0; at k0 = 0.25 the rate 0.375 once fell below a floor of 0.75 and both were skipped.
    # The residual is left out: its step and tolerance are the user's
    cfg = {"background": {"sigma": -1, "k0": k0, "alpha": -k0, "beta": 0.01,
                          "qplus": [[[k0, 0], [0, 0]], [[0, 0], [k0, 0]]]},
           "seeds": [{"zeta": [0, 2 * k0], "c": [[[k0, 0], [2 * k0, 0]], [[2 * k0, 0], [k0, 0]]]}],
           "grid": {"xmin": -5 / k0, "xmax": 5 / k0, "nx": 201, "tmin": -3 / k0**3, "tmax": 3 / k0**3, "nt": 121}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    checks = []
    for source in (["--preset", "fig4"], ["--config", str(tmp_path / "cfg.json")]):
        main(["verify", *source, "--n-probe", "12", "--out", str(tmp_path / "v.json")])
        checks.append(json.loads((tmp_path / "v.json").read_text())["checks"])
    ref, got = checks
    assert got["symmetry"]["pass"] and got["boundary_decay"]["pass"] and got["periodicity"] == ref["periodicity"]
    for key in ("rate", "expected_rate", "right_deviation"):
        assert got["boundary_decay"][key] == pytest.approx(k0 * ref["boundary_decay"][key], rel=1e-9), key
    assert got["theta_condition"] == ref["theta_condition"]


def test_cli_roundtrip_lets_one_zero_recover_one_seed(tmp_path, capsys):
    # rank-1 seeds at 2i and 2i + 1e-4 on fig3a's background come back as one zero of multiplicity 2 at their
    # midpoint, 5e-5 from each; that zero once recovered both seeds, and the run passed
    bg = preset("fig3a").bg
    cfg = {"background": {"sigma": bg.sigma, "k0": bg.k0, "alpha": bg.alpha, "beta": bg.beta,
                          "qplus": [[[q.real, q.imag] for q in row] for row in bg.Qplus.tolist()]},
           "seeds": [{"zeta": [0, 2], "c": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},  # C = e1 e1^T and e2 e2^T
                     {"zeta": [1e-4, 2], "c": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(cfg))
    assert main(["roundtrip", "--config", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    status = [re.match(r"eigenvalue .*: (recovered|MISSED) \(closest error 5\.00e-05, tol 1\.0e-03\)", line)
              for line in lines[:2]]
    assert sorted(m.group(1) for m in status) == ["MISSED", "recovered"], lines
    assert lines[-1] == "roundtrip: FAIL" and not any(line.startswith("spurious") for line in lines)


@pytest.mark.parametrize("name, find_tol", [("fig3a", []), ("fig6", ["--find-tol", "1e-4"])],
                         ids=["fig3a", "fig6-1e-4"])
def test_cli_roundtrip_logs_each_mesh_and_search(name, find_tol, caplog):
    with caplog.at_level(logging.DEBUG, logger="hirota_ist.scattering"):
        assert main(["roundtrip", "--preset", name, *find_tol]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "hirota_ist.scattering"]
    assert sum(m.startswith("Jost mesh ") for m in messages) == 1  # the search and the samples share one mesh
    # the search starts from the CLI box's 12 panels of 8 intervals and states each refinement round
    assert sum(m.startswith("find_discrete_spectrum: ") and "rounds [96 nodes (96 new z), largest estimate" in m
               for m in messages) == 1
    # the samples' record counts its own call on the shared mesh: 16 samples, antipodes sharing a transfer
    assert sum(m.startswith("scattering_matrix: 16 samples, z propagated 8 left 8 right, ") for m in messages) == 1


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(h.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, hirota_ist.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_name_the_bench_reads_resolves_on_the_package():
    # bench/ imports hirota_ist as api and changes only with the benchmark, so the package must keep each
    # api.<name> that a bench file reads (dunders aside), and Background its Qminus argument
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    names = set()
    for f in (os.path.join(bench, n) for n in os.listdir(bench) if n.endswith(".py")):
        with open(f) as src:
            names |= {n for n in re.findall(r"\bapi\.(\w+)", src.read()) if not n.startswith("__")}
    assert {"Background", "preset", "reconstruct_Q"} <= names
    assert [n for n in sorted(names) if not hasattr(h, n)] == []
    eye = np.eye(2, dtype=complex)
    assert h.Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.1, Qplus=eye, Qminus=eye).Qminus.shape == (2, 2)


def test_cli_reaches_the_direct_problem_through_the_names_the_bench_wraps(tmp_path, monkeypatch):
    # bench/spans.py times the direct problem by replacing these functions, by identity, in every hirota_ist module
    # that holds them; a CLI that reached the direct problem by another route would leave the bench's per-layer
    # spans at zero with no error
    seen = []
    for name in ("scattering_matrix", "find_discrete_spectrum", "audit_symmetries"):
        original = getattr(h.scattering, name)

        def wrapper(*args, name=name, original=original, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if mod is not None and modname.split(".")[0] == "hirota_ist":
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    assert main(["roundtrip", "--preset", "fig3a", "--find-tol", "1e-4"]) == 0
    assert sorted(seen) == ["find_discrete_spectrum", "scattering_matrix"]
    seen.clear()
    assert main(["scatter", "--preset", "fig6", "--out", str(tmp_path / "s.json")]) == 0
    assert sorted(seen) == ["audit_symmetries", "scattering_matrix"]
