import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hirota_ist as h
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
        spec = p.spec()
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
    rows = list(csv.reader(out.open()))
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


def test_cli_bad_inputs(tmp_path):
    assert main(["solve", "--preset", "fig99", "--out", str(tmp_path / "x.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["solve", "--out", str(tmp_path / "x.csv")]) == 2  # no preset/config
    assert main(["nonsense"]) == 2


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


def _verify_theta_condition(tmp_path, zeta, C, alpha, beta):
    """Seed flag and theta_condition check of `verify --config` on one seed with Q+- = I."""
    pair = lambda v: [float(v.real), float(v.imag)]
    cfg = {
        "name": "config",
        "background": {"sigma": -1, "k0": 1.0, "alpha": alpha, "beta": beta,
                       "qplus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "seeds": [{"zeta": pair(zeta), "c": [[pair(C[0, 0]), pair(C[0, 1])],
                                             [pair(C[1, 0]), pair(C[1, 1])]]}],
        "grid": {"xmin": -4, "xmax": 4, "nx": 41, "tmin": -2, "tmax": 2, "nt": 25},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "verify.json"
    main(["verify", "--config", str(cfg_path), "--n-probe", "12", "--out", str(out)])
    return load_config(cfg_path).seeds[0].rank_flag, json.loads(out.read_text())["checks"]["theta_condition"]


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
    flag, theta = _verify_theta_condition(tmp_path, zeta, C, 0.5, 0.02)
    assert flag is RankFlag.RANK1
    assert theta["pass"] is True, theta


def test_cli_verify_near_rank1_config_theta_condition(tmp_path):
    # rank 2 with sigma2 / sigma1 = 2.5e-12: its partner once read as rank 1,
    # and the measured phase (0.360) then matched no variant; the rest of the
    # report is not asserted (pde_residual reads 1.04e-5 at h = 1e-2, stencil
    # truncation)
    flag, theta = _verify_theta_condition(tmp_path, 1 + 2j, np.array([[1, 1], [1, 1 + 1e-11]]), 1.0, 0.1)
    assert flag is RankFlag.RANK2
    assert theta["pass"] is True, theta


def test_cli_verify_skips_decay_checks_without_decay(tmp_path):
    # fig5's eigenvalue gives Im lambda < 0.375: no spatial decay to fit
    out = tmp_path / "verify5.json"
    rc = main(["verify", "--preset", "fig5", "--n-probe", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "skipped" in doc["checks"]["boundary_decay"]


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


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(h.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, hirota_ist.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
