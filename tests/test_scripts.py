"""Each script under scripts/ runs in-process on a small input and exits 0."""

import json
import pathlib
import re
import runpy
import shutil
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


# Explicit ids keep each case's name stable when a case is added or retired.
CASES = [pytest.param("phase_condition_probe.py", [], id="phase_condition_probe.py-args0")]
SAME_OUTPUTS = "same_outputs.py"  # run by test_same_outputs_finds_no_deviation_in_one_tree_and_names_a_perturbed_field


@pytest.mark.parametrize("script, args", CASES)
def test_script_runs(monkeypatch, script, args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 0


def test_every_script_has_a_case():
    run = {case.values[0] for case in CASES} | {SAME_OUTPUTS}
    untested = sorted(p.name for p in SCRIPTS.glob("*.py") if p.name not in run)
    assert not untested, f"no test in this module runs {untested}"


def test_same_outputs_finds_no_deviation_in_one_tree_and_names_a_perturbed_field(tmp_path):
    so = runpy.run_path(str(SCRIPTS / SAME_OUTPUTS))
    ref, new = tmp_path / "ref", tmp_path / "new"
    ref.mkdir()
    so["run_all"](ref, ["fig4"])  # this tree, in this process
    shutil.copytree(ref, new)
    lines, breaches = so["compare"](ref, new)
    # presets, fig4's 12 outputs, the unclosed fig6 scatter's 2 and the exit codes
    assert breaches == 0 and len(lines) == 16 and all(line.endswith(": identical") for line in lines)
    doc = json.loads((new / "fig4.scatter.json").read_text())
    doc["samples"][3]["rho_norm"] += 1e-12
    (new / "fig4.scatter.json").write_text(json.dumps(doc))
    lines, breaches = so["compare"](ref, new)
    assert breaches == 1
    (breach,) = [line for line in lines if line.endswith("BREACH")]
    assert breach.startswith("    samples[].rho_norm: 1e-12 (tol 1e-13)")
    shutil.copy(ref / "fig4.scatter.json", new)
    # roundtrip's closest error may move by one unit of its third digit, and no more
    text = (ref / "fig4.roundtrip-1e-4.txt").read_text()
    mantissa, exponent = re.search(r"closest error (\d\.\d\d)e([-+]\d+),", text).groups()
    for factor, n in ((1.0 + 0.01 / float(mantissa), 0), (1.05, 1)):
        moved = f"closest error {float(mantissa) * factor:.2f}e{exponent},"
        (new / "fig4.roundtrip-1e-4.txt").write_text(text.replace(f"closest error {mantissa}e{exponent},", moved))
        lines, breaches = so["compare"](ref, new)
        assert breaches == n and "fig4.roundtrip-1e-4.txt:" in lines
        (line,) = [line for line in lines if line.startswith("    eigenvalue ")]
        assert line.endswith("(tol 1e-02, relative)" + " BREACH" * n), line
