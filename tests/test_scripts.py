"""Each script under scripts/ runs in-process on a small input and exits 0."""

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
    ],
)
def test_script_runs(tmp_path, monkeypatch, script, args):
    monkeypatch.setattr(sys, "argv", [script, *(a.format(tmp=tmp_path) for a in args)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 0
