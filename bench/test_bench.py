"""Tests of the benchmark itself: self-time arithmetic, tracing and gates.

    python3 -m pytest -q bench/test_bench.py

Each gate is shown to reject a deliberately corrupted output, so a gate
that cannot fail is caught.
"""

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hirota_ist as api  # noqa: E402
from hirota_ist import cli  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_the_union_of_children():
    tree = [
        spans.Span("root", 0.0, 10.0, None, 0),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("b", 3.0, 7.0, 0, 0),  # overlaps a: union of a and b is [1, 7]
        spans.Span("a.child", 2.0, 3.0, 1, 0),
        spans.Span("late", 9.0, 12.0, 0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 6 - 1, 3 - 1, 4, 1, 3])


def test_span_wrappers_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.span_wrapper("leaf", lambda: None)
    outer = tracer.span_wrapper("outer", lambda: (leaf(), leaf()))
    outer()  # inactive: nothing recorded
    assert tracer.spans == []
    tracer.active = True
    tracer.op = 7
    outer()
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", None, 7), ("leaf", 0, 7), ("leaf", 0, 7)]
    # outer spans ticks 0..5, each leaf one tick
    assert spans.self_times(tracer.spans) == [5 - 2, 1, 1]


def test_percentile_nearest_rank():
    assert spans.percentile([], 50) == 0.0
    assert spans.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert spans.percentile([float(i) for i in range(1, 101)], 99) == 99.0


def test_install_patches_every_importing_module_and_restores(tmp_path):
    original = api.reconstruct_Q
    tracer = spans.Tracer()
    tracer.install(api, cli)
    try:
        assert cli.reconstruct_Q is not original
        assert api.solitons.reconstruct_Q is cli.reconstruct_Q
        tracer.active = True
        out = tmp_path / "g.csv"
        assert cli.main(["solve", "--preset", "fig11", "--nx", "3", "--nt", "2", "--out", str(out)]) == 0
        tracer.active = False
    finally:
        tracer.restore()
    assert cli.reconstruct_Q is original and api.solitons.reconstruct_Q is original
    assert tracer.absent == []
    m = spans.layer_metrics(tracer, 0.0, 0.0)
    assert m["solitons.reconstruct_Q.calls"] == 6
    assert m["spectral.theta.calls_per_point"] > 0
    assert m["cli.solve.self_s"] > 0
    assert m["grids.write_csv.mb_per_s"] > 0
    assert set(m) == set(spans.LAYER_METRICS)


def test_missing_name_is_reported_absent():
    tracer = spans.Tracer()
    tracer.patch(api, None, lambda fn: fn, "no_such_function")
    assert tracer.absent == ["no_such_function"]


def test_speed_sampler_times_kernel_reps_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        t_end = time.perf_counter() + 3.2 * run.TICK_S
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.spent >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == previous


def test_config_is_seeded_and_admissible():
    assert workloads.config_doc(5) == workloads.config_doc(5)
    assert workloads.config_doc(5) != workloads.config_doc(6)
    for seed in range(20):
        pair, bg = workloads.config_preset(api, workloads.config_doc(seed))
        assert pair.rank_flag is api.RankFlag.RANK2
        api.expand_quartets([pair], bg)  # raises if inadmissible


def _solve(tmp_path, fmt):
    out = tmp_path / f"g.{fmt}"
    argv = ["solve", "--preset", "fig3a", "--nx", "9", "--nt", "5", "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_gate_rejects_a_perturbed_value(tmp_path, fmt):
    p = api.preset("fig3a")
    out = _solve(tmp_path, fmt)
    points = [(1, 2), (3, 7)]
    read = api.read_csv if fmt == "csv" else api.read_json
    gate = lambda: workloads.check_grid(api, out, fmt, read(out), p.seeds[0], p.bg, 9, 5, points, {})
    assert gate() == []
    grid = read(out)
    grid.values[3, 7, 0, 1] += 1e-9  # one digit of one gate-checked value
    grid.values[3, 7, 1, 0] += 1e-9
    (api.write_csv if fmt == "csv" else api.write_json)(grid, out)
    problems = gate()
    assert any("bit-exact" in s for s in problems)
    assert any("closed-form" in s for s in problems)


def test_grid_gate_rejects_masked_points(tmp_path):
    p = api.preset("fig3a")
    out = _solve(tmp_path, "csv")
    grid = api.read_csv(out)
    grid.mask[0, 0] = True
    api.write_csv(grid, out)
    problems = workloads.check_grid(api, out, "csv", api.read_csv(out), p.seeds[0], p.bg, 9, 5, [(2, 2)], {})
    assert any("masked" in s for s in problems)


def _verify_doc(residual=1.2097139933196787e-05):
    checks = {
        "pde_residual": {"max_residual": residual, "pass": residual <= 1e-5},
        "symmetry": {"max_asymmetry": 0.0, "pass": True},
        "boundary_decay": {"rate": 1.5, "pass": True},
        "theta_condition": {"measured": 0.0, "pass": True},
    }
    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}


def test_verify_gate_rejects_a_flipped_flag():
    ref = workloads.SEED_RESIDUAL["fig3a"]
    doc = _verify_doc()
    assert workloads.check_verify(doc, 1, ref) == []  # documented criterion-1 exit 1 is not a failure
    for name in ("symmetry", "boundary_decay", "theta_condition"):
        bad = copy.deepcopy(doc)
        bad["checks"][name]["pass"] = False
        assert workloads.check_verify(bad, 1, ref) != []
    assert workloads.check_verify(_verify_doc(1.5 * ref), 1, ref) != []
    assert workloads.check_verify(doc, 2, ref) != []


def test_verify_gate_on_the_config_needs_a_passing_residual():
    assert workloads.check_verify(_verify_doc(2e-7), 0, None) == []
    assert workloads.check_verify(_verify_doc(2e-5), 1, None) != []


def _scatter_doc():
    sample = {"det_S_deviation": 1e-12, "rho_norm": 1e-11}
    audit = {"conjugation_identity": 1e-12, "transpose_identity": 1e-12, "rho_symmetry": 1e-13,
             "antipode_identity": 1e-12, "abar_conjugation": 1e-12}
    return {"samples": [dict(sample) for _ in range(4)], "audit": audit}


def test_scatter_gate_rejects_corrupted_reports():
    assert workloads.check_scatter(_scatter_doc(), 0, 4) == []
    bad = _scatter_doc()
    bad["samples"][2]["det_S_deviation"] = 1e-6
    assert workloads.check_scatter(bad, 0, 4) != []
    bad = _scatter_doc()
    bad["audit"]["antipode_identity"] = 1e-3
    assert workloads.check_scatter(bad, 0, 4) != []
    bad = _scatter_doc()
    bad["audit"] = {"skipped": "no partner"}
    assert workloads.check_scatter(bad, 0, 4) != []
    assert workloads.check_scatter(_scatter_doc(), 0, 48) != []


ROUNDTRIP_OK = (
    "eigenvalue 2j: recovered (closest error 8.97e-06, tol 1.0e-03)\n"
    "max |rho| on spectrum samples: 1.36e-11 (tol 1.0e-03); det S ok: True\n"
    "roundtrip: PASS\n"
)


def test_roundtrip_gate_rejects_a_missing_eigenvalue():
    assert workloads.check_roundtrip(ROUNDTRIP_OK, 0, [2j]) == []
    missing = ROUNDTRIP_OK.replace("eigenvalue 2j: recovered (closest error 8.97e-06, tol 1.0e-03)\n", "")
    assert workloads.check_roundtrip(missing, 0, [2j]) != []
    missed = ROUNDTRIP_OK.replace("recovered", "MISSED").replace("PASS", "FAIL")
    assert workloads.check_roundtrip(missed, 1, [2j]) != []
    assert workloads.check_roundtrip(ROUNDTRIP_OK, 0, [1 + 2j]) != []


def test_ops_cover_each_workload(tmp_path):
    cfg = workloads.write_config(3, tmp_path)
    keys = {w: [op.key for op in workloads.make_ops(w, 3, tmp_path, cfg, api)] for w in workloads.WORKLOADS}
    assert keys["grid"] == ["solve:fig11", "solve:fig3a", "solve:fig10d", "solve:config"]
    assert keys["verify"] == ["verify:fig5", "verify:fig3a", "verify:fig10d", "verify:config"]
    assert keys["scatter"] == ["scatter:fig6"] and keys["roundtrip"] == ["roundtrip:fig3a"]
    assert json.loads(cfg.read_text()) == workloads.config_doc(3)
