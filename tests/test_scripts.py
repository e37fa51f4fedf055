"""Each script under scripts/ runs in-process on a small input."""

import json
import pathlib
import re
import runpy
import shutil

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SAME_OUTPUTS = "same_outputs.py"  # run by test_same_outputs_finds_no_deviation_in_one_tree_and_names_a_perturbed_field
RUN = {SAME_OUTPUTS}  # every script a test in this module runs; a new script adds its test and its name here


def test_every_script_has_a_case():
    untested = sorted(p.name for p in SCRIPTS.glob("*.py") if p.name not in RUN)
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
