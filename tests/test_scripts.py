"""Smoke runs of the study scripts at small sizes, in-process."""

import math
import runpy
import sys
from pathlib import Path

from ma_lin.linsolve import FLOOR_FACTOR

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_pipeline_study_runs(monkeypatch, capsys, tmp_path):
    _run(monkeypatch, "pipeline_study.py", "--grids", "9,17", "--out", str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[0] == "9" and lines[2].split()[0] == "17"
    for n in (9, 17):
        assert (tmp_path / f"resampled_{n}.csv").exists()
        assert (tmp_path / f"lifted_{n}.csv").exists()


def test_solver_convergence_runs(monkeypatch, capsys):
    _run(monkeypatch, "solver_convergence.py", "--grids", "9,17")
    out = capsys.readouterr().out
    assert out.count("U* = ") == 4
    rows = [ln.split() for ln in out.splitlines() if ln.strip().startswith(("9 ", "17 "))]
    assert len(rows) == 8
    assert all(math.isfinite(float(row[1])) for row in rows)
    # n, error, order, V-cycles, final residual, rounding floor, seconds
    assert "cycles" in out and "floor" in out and "seconds" in out
    for row in rows:
        cycles, residual, floor = int(row[3]), float(row[4]), float(row[5])
        assert 1 <= cycles <= 30 and 0.0 < floor and residual <= FLOOR_FACTOR * floor
        assert len(row) == 7 and 0.0 <= float(row[6]) < 60.0
