"""Tests of the benchmark itself: each check rejects a perturbed output, and
every workload runs once at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
from ma_lin import discrete_legendre_2d, geometry_from_domain, parse, sample  # noqa: E402
from ma_lin.cli import main as cli_main  # noqa: E402

DOMAIN = (0.5, 1.5, 0.5, 1.5)


@pytest.fixture(scope="module")
def saddle_lift(tmp_path_factory):
    """A real n = 33 saddle lift through the CLI, with its family."""
    tmp = tmp_path_factory.mktemp("lift")
    fam = orc.Family("plane-strain-class", 1.0)
    cfg = tmp / "l.json"
    cfg.write_text(json.dumps({"id": fam.catalog_id, "domain": list(DOMAIN), "nx": 33,
                               "ny": 33, "boundary": fam.text}))
    assert cli_main(["lift", "--in", str(cfg), "--out", str(tmp / "o")]) == 0
    return fam, tmp / "o"


def test_lift_checks_accept_the_program_output(saddle_lift):
    fam, out = saddle_lift
    geom, values = orc.read_grid_csv(out / "resampled.csv")
    assert orc.check_manifest(out) == []
    assert orc.check_lifted(fam, DOMAIN, 33, orc.read_lifted_csv(out / "lifted.csv")) == []
    assert orc.check_resampled(fam, DOMAIN, 33, geom, values) == []


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_resampled_value_shifted_by_1e3_is_rejected(saddle_lift, shift):
    fam, out = saddle_lift
    geom, values = orc.read_grid_csv(out / "resampled.csv")
    for j, i in zip(*np.nonzero(np.isfinite(values))):
        bad = values.copy()
        bad[j, i] += shift
        assert orc.check_resampled(fam, DOMAIN, 33, geom, bad), (j, i)


def test_dropped_hit_is_rejected(saddle_lift):
    fam, out = saddle_lift
    geom, values = orc.read_grid_csv(out / "resampled.csv")
    _, must_hit, _ = orc.coverage(fam, DOMAIN, 33, geom)
    assert must_hit.sum() > 100
    for j, i in list(zip(*np.nonzero(must_hit)))[::37]:
        bad = values.copy()
        bad[j, i] = np.nan
        assert any("masked" in p for p in orc.check_resampled(fam, DOMAIN, 33, geom, bad))


def test_filled_miss_is_rejected(saddle_lift):
    fam, out = saddle_lift
    geom, values = orc.read_grid_csv(out / "resampled.csv")
    _, _, must_miss = orc.coverage(fam, DOMAIN, 33, geom)
    j, i = next(zip(*np.nonzero(must_miss)))
    bad = values.copy()
    bad[j, i] = 1.0
    assert any("filled" in p for p in orc.check_resampled(fam, DOMAIN, 33, geom, bad))


def test_wrong_solution_and_broken_hash_are_rejected(saddle_lift, tmp_path):
    fam, out = saddle_lift
    rows = orc.read_lifted_csv(out / "lifted.csv")
    bad = rows.copy()
    bad[10, 3] += 1e-3  # y, so U = y + Y*x is off
    assert orc.check_lifted(fam, DOMAIN, 33, bad)
    copy = tmp_path / "o"
    shutil.copytree(out, copy)
    with open(copy / "lifted.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert orc.check_manifest(copy)


def test_flipped_exit_code_is_a_failure(tmp_path):
    msg = "error: pipeline stage 'classify' failed: x-dependence"
    assert orc.check_rejection(2, msg)
    assert not orc.check_rejection(1, msg)
    assert not orc.check_rejection(0, "")
    assert not orc.check_rejection(2, "rejected: not elliptic")
    (tmp_path / "lifted.csv").write_text("# lifted\n")
    assert orc.check_no_output(tmp_path)


def test_not_in_class_request_leaves_no_output(tmp_path):
    """The request the benchmark counts as failed until it exits 2."""
    cfg = tmp_path / "l.json"
    cfg.write_text(json.dumps({"id": "inverted-plane-strain", "domain": list(DOMAIN),
                               "boundary": "X^2-Y^2"}))
    code = cli_main(["lift", "--in", str(cfg), "--out", str(tmp_path / "o")])
    assert code != 0
    assert orc.check_no_output(tmp_path / "o") == []


def test_gradient_inversion_inverse_round_trips():
    fam = orc.Family("grad-inversion", 1.1)
    X, Y = np.meshgrid(np.linspace(0.6, 1.4, 9), np.linspace(0.6, 1.4, 9))
    x, y = fam.UY(X, Y), fam.U(X, Y) - Y * fam.UY(X, Y)
    Xr, Yr, has = fam.preimage(x, y)
    assert has.all()
    assert np.max(np.abs(Xr - X)) <= 1e-12 and np.max(np.abs(Yr - Y)) <= 1e-12


def test_wrong_conjugate_entry_is_rejected():
    geom = geometry_from_domain(0.5, 1.5, 0.25, 1.25, 9, 9)
    V = sample(parse("X^2+0.3*X*Y+Y^2+0.5*Y^4"), ("X", "Y"), geom)
    W = discrete_legendre_2d(V, geometry_from_domain(-3.0, 3.0, -6.0, 6.0, 5, 5))
    want = orc.brute_conjugate_2d(V.xs(), V.ys(), V.values, W.xs(), W.ys())
    assert orc.check_close("conjugate", W.values, want, 1e-12) == []
    bad = W.values.copy()
    bad[2, 3] += 1e-6
    assert orc.check_close("conjugate", bad, want, 1e-12)


def test_ampere_direct_formula_rejects_a_wrong_sample():
    betas = np.linspace(0.0, 1.0, 6)
    alphas = np.linspace(1.0, 2.0, 3)
    V = (betas[:, None] ** 2) * alphas[None, :]
    x, y, u = orc.ampere_direct(V, betas, alphas, betas[1] - betas[0])
    assert x.size == 3 * 4 and np.all(x[:4] == 1.0)
    assert np.allclose(y[:4], 2 * betas[1:-1])
    assert np.allclose(u[:4], -betas[1:-1] ** 2)  # V - beta*V_beta
    bad = u.copy()
    bad[5] += 1e-6
    assert orc.check_close("Ampere", bad, u, 1e-12)


def test_scaling_follows_the_program_and_cancels_the_machine():
    ref = calibration.REFERENCE_LOOP_S
    assert calibration.scale(2.0, ref, ref) == 2.0
    # the program twice as slow: twice the scaled time
    assert calibration.scale(4.0, ref, ref) == 4.0
    # the machine twice as slow: measured time and loop both double
    assert calibration.scale(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert calibration.Speedometer().sample(0.0) > 0.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_mode_runs_every_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    # only the not-in-class request may fail: one of the nine quick lift-solve requests
    assert result["failed"] == 0 or (workload == "lift-solve"
                                     and 9 * result["failed"] == result["attempted"])
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(names)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run("--workload", "closed-form", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
