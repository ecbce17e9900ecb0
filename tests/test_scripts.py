"""Smoke runs of the study scripts at small sizes, in-process."""

import json
import math
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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
    # n, error, order, start, V-cycles, final residual, rounding floor, seconds
    assert "start" in out and "cycles" in out and "floor" in out and "seconds" in out
    for row in rows:
        start, cycles, residual, floor = row[3], int(row[4]), float(row[5]), float(row[6])
        # the first case's f = 1+X^2 varies along X; the others are constant along it
        assert (start, cycles >= 1) in (("nested", True), ("fourier", False))
        assert (start == "nested") == (row in rows[:2])
        assert cycles <= 30 and 0.0 < floor and residual <= FLOOR_FACTOR * floor
        assert len(row) == 8 and 0.0 <= float(row[7]) < 60.0


def _git_head():
    """HEAD of the git repository whose top level is this checkout, or None."""
    try:
        top, head = subprocess.run(
            ["git", "-C", str(SCRIPTS.parent), "rev-parse", "--show-toplevel", "HEAD"],
            check=True, capture_output=True, text=True).stdout.split()
    except (OSError, subprocess.CalledProcessError, ValueError):
        return None
    return head if Path(top).resolve() == SCRIPTS.parent else None


def test_bench_quick_runs(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    head = _git_head()
    _run(monkeypatch, "bench.py", "--quick", "--out", str(out),
         *(["--against", head] if head else []))
    report = json.loads(out.read_text())
    assert {"nproc", "python", "numpy"} <= set(report["host"])
    assert report["settings"]["sizes"] == [17, 33] and report["settings"]["repeat"] == 1
    assert set(report["trees"]) == ({"this", "against"} if head else {"this"})
    # the stage and write times of each request, read back from its manifest
    stages = ("classify", "coefficient", "solve", "lift", "resample", "verify",
              "lifted.csv", "resampled.csv", "solve_report.json", "verification.json")
    for tree in report["trees"].values():
        rows = tree["rows"]
        assert [(r["family"], r["n"]) for r in rows][:2] == [("plane-strain-class", 17),
                                                             ("plane-strain-class", 33)]
        assert len(rows) == 10 and "cli_lift" not in tree
        for r in rows:
            assert set(r["stages"]) == set(stages)
            assert all(0.0 < v < 60.0 for v in r["stages"].values()), r
            assert sum(r["stages"].values()) <= r["seconds"] < 60.0, r
            assert r["iterations"] >= (r["start"] == "nested") and 0.0 < r["setup_s"] < 60.0
            assert len(r["lifted_sha256"]) == len(r["resampled_sha256"]) == 10
        assert 0.0 < tree["import_s"] < 60.0
        assert "ma_lin.cli" in tree["import_modules"]
        assert tree["import_modules"] == sorted(tree["import_modules"])
        assert [(r["family"], r["points"]) for r in tree["points"]] == [
            ("plane-strain-class", 200), ("grad-inversion", 200)]
        for r in tree["points"]:
            assert 0.0 < r["chain_us"] < 1e4 and 0.0 < r["direct_us"] < 1e4, r
            assert len(r["chain_sha256"]) == len(r["direct_sha256"]) == 10
        assert [(r["call"], r.get("family"), r.get("n")) for r in tree["arrays"]] == [
            ("lift_parametric", "plane-strain-class", 65), ("lift_parametric", "grad-inversion", 65),
            ("classify", None, None)]
        for r in tree["arrays"]:
            assert 0.0 < r["us"] < 1e7 and len(r["sha256"]) == 10, r
        assert [(r["values"], r["layout"]) for r in tree["formatter"]] == [
            (11, "table"), (1089, "table"), (8184, "table"), (8184, "wide")]
        for r in tree["formatter"]:
            assert 0.0 < r["us"] < 1e6 and len(r["sha256"]) == 10, r
        assert set(tree["formatter_cost"]) == {"fixed_us", "per_value_ns"}
        assert [(r["form"], r["n"], r["slopes"]) for r in tree["conjugate"]] == [
            ("convex", 65, 33), ("concave", 65, 33)]
        for r in tree["conjugate"]:
            assert 0.0 < r["us"] < 1e7 and len(r["sha256"]) == 10, r
    # both trees write the same CSVs and format every block to the same bytes
    assert len({tuple((r["lifted_sha256"], r["resampled_sha256"]) for r in tree["rows"])
                for tree in report["trees"].values()}) == 1
    assert len({tuple(r["sha256"] for r in tree["formatter"])
                for tree in report["trees"].values()}) == 1
    # and take the same conjugates, lifts and class functions bit for bit
    for kind in ("conjugate", "arrays"):
        assert len({tuple(r["sha256"] for r in tree[kind])
                    for tree in report["trees"].values()}) == 1
    # with a second tree, each point, array and conjugate row's timings as the
    # median of the ratios of the passes that ran side by side
    if head:
        ratios = report["pass_ratios"]
        this = report["trees"]["this"]
        assert [r["family"] for r in ratios["points"]] == [r["family"] for r in this["points"]]
        assert [r["call"] for r in ratios["arrays"]] == [r["call"] for r in this["arrays"]]
        assert [r["form"] for r in ratios["conjugate"]] == [r["form"] for r in this["conjugate"]]
        for r in (*ratios["points"], *ratios["arrays"], *ratios["conjugate"]):
            assert not any(key.endswith("sha256") for key in r), r
            assert all(0.0 < r[key] < 100.0 for key in r if key == "us" or key.endswith("_us")), r
    else:
        assert "pass_ratios" not in report
    # the multigrid and the elasticity module load on first use, not on import
    assert not {"ma_lin.multigrid", "ma_lin.elasticity"} & set(
        report["trees"]["this"]["import_modules"])
    # the one-variable coefficients take the Fourier start, which meets the
    # bound with no V-cycle; general-Au's X*(1+Y^2)^2 runs the multigrid
    rows = report["trees"]["this"]["rows"]
    assert [(r["start"], r["iterations"]) for r in rows[:8]] == [("fourier", 0)] * 8
    assert [(r["family"], r["start"]) for r in rows[8:]] == [("general-Au", "nested")] * 2
    assert all(r["iterations"] >= 1 for r in rows[8:])
    out = capsys.readouterr().out
    assert "import ma_lin" in out and "per point: compose_chain" in out
    assert "_format_rows 11 values" in out and "ns per value" in out
    assert "discrete_legendre_2d, 65^2 nodes, 33^2 slopes: convex" in out
    assert "lift_parametric X^2-Y^2" in out and "classify (1.25" in out
    assert ("median of the per-pass ratios" in out) == bool(head)
    # with a second tree, the ratios of the point, array and conjugate rows
    assert out.count("this/against: ") == (4 if head else 0)


def test_bench_names_a_revision_whose_manifest_records_no_timings(tmp_path):
    # a stand-in ma_lin whose `lift` writes a manifest without `timings`, as
    # every revision from before the pipeline timed its stages does
    package = tmp_path / "src" / "ma_lin"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import json\nfrom pathlib import Path\n\n"
        "def main(argv):\n"
        "    out = Path(argv[argv.index('--out') + 1])\n"
        "    out.mkdir(parents=True, exist_ok=True)\n"
        "    (out / 'manifest.json').write_text(json.dumps({'artifacts': {}}))\n"
        "    (out / 'solve_report.json').write_text('{}')\n"
        "    return 0\n")
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    with pytest.raises(SystemExit) as exc:
        bench["_pass"]("abc1234", str(tmp_path / "src"), {"sizes": [17], "repeat": 1})
    assert exc.value.code == "abc1234: its `ma-lin lift` manifest records no timings"


def test_bench_folds_every_row_kind_by_one_rule():
    # timings take the best of two runs, stage by stage; any other key,
    # the stage names included, must agree or the run ends naming it
    fold = runpy.run_path(str(SCRIPTS / "bench.py"))["_fold"]
    row = {"family": "f", "n": 17, "seconds": 2.0, "setup_s": 0.5, "chain_us": 3.0,
           "us": 1.0, "stages": {"solve": 1.0, "lift": 2.0}, "sha256": "ab"}
    fold(row, {**row, "seconds": 1.0, "setup_s": 0.75, "chain_us": 4.0, "us": 0.5,
               "stages": {"solve": 1.5, "lift": 0.25}})
    assert row == {"family": "f", "n": 17, "seconds": 1.0, "setup_s": 0.5, "chain_us": 3.0,
                   "us": 0.5, "stages": {"solve": 1.0, "lift": 0.25}, "sha256": "ab"}
    for key, value in (("sha256", "cd"), ("stages", {"lift": 1.0, "solve": 1.0})):
        with pytest.raises(SystemExit) as exc:
            fold(dict(row), {**row, key: value})
        assert exc.value.code == (f"runs disagree on {key} at "
                                  "{'family': 'f', 'n': 17, 'sha256': 'ab'}")
