"""Each script under scripts/ runs in-process on a small input and exits 0."""

import logging
import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("phase_condition_probe.py", []),
        ("make_figure_grids.py", ["--presets", "fig4", "--outdir", "{tmp}"]),
        ("roundtrip_report.py", ["--presets", "fig3a"]),
        ("roundtrip_report.py", ["--presets", "fig6", "--find-tol", "1e-4"]),
    ],
)
def test_script_runs(tmp_path, monkeypatch, script, args):
    monkeypatch.setattr(sys, "argv", [script, *(a.format(tmp=tmp_path) for a in args)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 0


def test_roundtrip_report_verbose_logs_each_mesh_and_search(monkeypatch, caplog):
    logger = logging.getLogger("hirota_ist.scattering")
    level = logger.level
    monkeypatch.setattr(sys, "argv", ["roundtrip_report.py", "--presets", "fig3a", "--verbose"])
    try:
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "roundtrip_report.py"), run_name="__main__")
    finally:
        logger.setLevel(level)  # the script sets DEBUG for the rest of its process
    assert exc.value.code == 0
    messages = [r.getMessage() for r in caplog.records if r.name == logger.name]
    assert sum(m.startswith("Jost mesh ") for m in messages) == 2  # the search's mesh and the samples' mesh
    # the search starts from the CLI box's 12 panels of 8 intervals and states each refinement round
    assert sum(m.startswith("find_discrete_spectrum: ") and "rounds [96 nodes (96 new z), largest estimate" in m
               for m in messages) == 1
