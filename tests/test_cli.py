import json
import subprocess
import sys
import time

import numpy as np

from ma_lin.cli import main
from ma_lin.grids import read_grid
from ma_lin.linsolve import FLOOR_FACTOR


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# classify

def test_classify_catalog_id(tmp_path):
    out = tmp_path / "o"
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 0
    rep = _read_json(out / "classification.json")
    assert rep["in_class"] is True
    assert rep["f"] == "(s^2+1)^2"
    assert rep["seed"] == 42
    man = _read_json(out / "manifest.json")
    assert "classification.json" in man["artifacts"]


def test_classify_x_dependent_exits_2(tmp_path):
    eq = _write(tmp_path / "eq.json", {"id": "t", "F": "x^(-4)", "note": ""})
    out = tmp_path / "o"
    assert main(["classify", "--in", eq, "--out", str(out)]) == 2
    rep = _read_json(out / "classification.json")
    assert rep["in_class"] is False
    assert "x" in rep["witness"]["reason"]


def test_classify_malformed_expression_exits_1(tmp_path, capsys):
    eq = _write(tmp_path / "eq.json", {"id": "t", "F": "q^^4", "note": ""})
    assert main(["classify", "--in", eq, "--out", str(tmp_path / "o")]) == 1
    assert "offset" in capsys.readouterr().err


def test_classify_needs_input(tmp_path):
    assert main(["classify", "--out", str(tmp_path / "o")]) == 1


def test_grid_options_only_on_solver_subcommands(tmp_path):
    out = str(tmp_path / "o")
    assert main(["classify", "--id", "grad-inversion", "--nx", "5", "--out", out]) == 1
    assert main(["khabirov", "--g", "1", "--tol", "1e-3", "--out", out]) == 1


# ---------------------------------------------------------------------------
# solve

def _solve_config():
    return {"domain": [0.0, 1.0, 0.0, 1.0], "nx": 17, "ny": 17,
            "fcoeff": "1", "source": None, "boundary": "X^2-Y^2"}


def test_solve_harmonic(tmp_path):
    cfg = _write(tmp_path / "p.json", _solve_config())
    out = tmp_path / "o"
    assert main(["solve", "--in", cfg, "--out", str(out)]) == 0
    rep = _read_json(out / "solve_report.json")
    assert rep["converged"] is True and rep["residual"] <= rep["tol"]
    g = read_grid(out / "solution.csv")
    assert (g.nx, g.ny) == (17, 17)


def test_solve_not_elliptic_exits_2(tmp_path, capsys):
    data = _solve_config()
    data["fcoeff"] = "-1"
    cfg = _write(tmp_path / "p.json", data)
    out = tmp_path / "o"
    assert main(["solve", "--in", cfg, "--out", str(out)]) == 2
    # the rejected run still records its manifest
    assert _read_json(out / "manifest.json")["artifacts"] == {}


def test_solve_not_converged_exits_3_with_report(tmp_path):
    data = _solve_config()
    data["max_iter"] = 1
    cfg = _write(tmp_path / "p.json", data)
    out = tmp_path / "o"
    assert main(["solve", "--in", cfg, "--out", str(out)]) == 3
    rep = _read_json(out / "solve_report.json")
    assert rep["converged"] is False and rep["iterations"] == 1


def test_solve_unmeetable_tol_exits_3_quickly(tmp_path):
    cfg = _write(tmp_path / "p.json", _solve_config())
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["solve", "--in", cfg, "--tol", "1e-16", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 5.0
    rep = _read_json(out / "solve_report.json")
    assert rep["converged"] is False and rep["tol"] == 1e-16
    assert 0.0 < rep["residual_floor"] and rep["residual"] > rep["tol"]
    assert rep["iterations"] < 200_000


def test_solve_edge_boundary_form(tmp_path):
    data = _solve_config()
    data["boundary"] = {"left": "-Y^2", "right": "1-Y^2", "bottom": "X^2", "top": "X^2-1"}
    cfg = _write(tmp_path / "p.json", data)
    assert main(["solve", "--in", cfg, "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------------------
# lift

def _lift_config():
    return {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
            "nx": 17, "ny": 17,
            "target": {"nx": 9, "ny": 9, "x0": -2.4, "y0": 2.0, "dx": 0.1, "dy": 0.08}}


def test_lift_writes_all_artifacts(tmp_path):
    data = _lift_config()
    data["boundary"] = "X^2-Y^2"
    cfg = _write(tmp_path / "l.json", data)
    out = tmp_path / "o"
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 0
    for name in ("lifted.csv", "resampled.csv", "verification.json",
                 "solve_report.json", "manifest.json"):
        assert (out / name).exists(), name
    ver = _read_json(out / "verification.json")
    assert ver["max_abs_residual"] <= 1e-9
    assert ver["path"] == "grid"
    g = read_grid(out / "resampled.csv")
    xs, ys = np.meshgrid(g.xs(), g.ys())
    closed = np.sqrt(ys - xs ** 2 / 4)
    ok = np.isfinite(g.values)
    assert ok.any()
    assert np.max(np.abs((g.values - closed)[ok])) <= 5e-3


def test_lift_with_class_function(tmp_path):
    data = {"f": "(1+s^2)^2", "domain": [0.5, 1.5, 0.5, 1.5], "nx": 17, "ny": 17,
            "boundary": "X^2 - Y*arctan(Y)", "target_nx": 5, "target_ny": 5}
    cfg = _write(tmp_path / "l.json", data)
    out = tmp_path / "o"
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 0
    ver = _read_json(out / "verification.json")
    from ma_lin.expressions import evaluate, parse as eparse
    coeff = eparse(ver["coefficient"])
    for Y in (-1.0, 0.0, 2.0):
        assert abs(evaluate(coeff, {"X": 1.0, "Y": Y}) - (1 + Y * Y) ** 2) <= 1e-12


def test_lift_not_elliptic_exits_2(tmp_path):
    data = {"id": "general-Au", "domain": [-1.5, 1.5, 0.5, 1.5], "nx": 9, "ny": 9,
            "boundary": "X^2-Y^2"}
    cfg = _write(tmp_path / "l.json", data)
    assert main(["lift", "--in", cfg, "--out", str(tmp_path / "o")]) == 2


def test_lift_not_in_class_exits_2(tmp_path, capsys):
    data = {"id": "axisym", "domain": [0.5, 1.5, 0.5, 1.5], "boundary": "X^2-Y^2"}
    cfg = _write(tmp_path / "l.json", data)
    assert main(["lift", "--in", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "rejected: pipeline stage 'classify' failed" in capsys.readouterr().err


def test_lift_all_nodes_degenerate_exits_2(tmp_path, capsys):
    # the Laplace solution U = X*Y has U_YY = 0 at every node
    data = {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
            "nx": 9, "ny": 9, "boundary": "X*Y"}
    cfg = _write(tmp_path / "l.json", data)
    assert main(["lift", "--in", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "rejected: pipeline stage 'lift' failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# elasticity

def test_elasticity_report(tmp_path):
    d = _write(tmp_path / "d.json", {"kind": "from-U", "potential": "X^2+X*Y+Y^2/2"})
    out = tmp_path / "o"
    assert main(["elasticity", "--in", d, "--domain=-1,1,-1,1", "--n", "7",
                 "--out", str(out)]) == 0
    rep = _read_json(out / "incompressibility.json")
    assert rep["max_jac_dev"] <= 1e-12
    assert rep["samples"] == 49
    lines = (out / "deformed.csv").read_text().splitlines()
    assert lines[0] == "# deformed"
    assert len(lines) == 1 + 49
    X, Y, x, y = (float(t) for t in lines[1].split(","))
    assert (x, y) == (2 * X + Y, X + Y)  # gradient of the quadratic


def test_elasticity_negative_control(tmp_path):
    d = _write(tmp_path / "d.json", {"kind": "from-U", "potential": "X^2+Y^2",
                                     "domain": [-1, 1, -1, 1], "n": 5})
    out = tmp_path / "o"
    assert main(["elasticity", "--in", d, "--out", str(out)]) == 0
    rep = _read_json(out / "incompressibility.json")
    assert abs(rep["max_jac_dev"] - 3.0) <= 1e-12
    assert abs(rep["max_ma_residual"] - 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# khabirov

def test_khabirov_subcommand(tmp_path):
    out = tmp_path / "o"
    assert main(["khabirov", "--g", "1+s^2", "--out", str(out)]) == 0
    rep = _read_json(out / "khabirov.json")
    assert rep["gstar"] == "s^4*(1+s^2)"
    assert rep["Gstar"] == "1/(s^4*(1+s^2))"
    assert "equation" in rep and rep["seed"] == 42


def test_khabirov_rejects_zero_g(tmp_path):
    assert main(["khabirov", "--g", "0", "--out", str(tmp_path / "o")]) == 2


def test_khabirov_wrong_variable_exits_1(tmp_path):
    assert main(["khabirov", "--g", "1+x^2", "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------------------
# overwrite guard, determinism, entry point

def test_no_overwrite_without_force(tmp_path):
    out = tmp_path / "o"
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 0
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 1
    assert main(["classify", "--id", "grad-inversion", "--out", str(out), "--force"]) == 0


def test_reruns_reproduce_bit_identical_csvs(tmp_path):
    data = _lift_config()
    data["boundary"] = "X^2-Y^2"
    cfg = _write(tmp_path / "l.json", data)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["lift", "--in", cfg, "--out", str(out1)]) == 0
    assert main(["lift", "--in", cfg, "--out", str(out2)]) == 0
    for name in ("lifted.csv", "resampled.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1, m2 = _read_json(out1 / "manifest.json"), _read_json(out2 / "manifest.json")
    assert m1["artifacts"]["lifted.csv"] == m2["artifacts"]["lifted.csv"]
    assert m1["artifacts"]["resampled.csv"] == m2["artifacts"]["resampled.csv"]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ma_lin", "classify", "--id", "plane-strain",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "o" / "classification.json").exists()


def test_lift_grad_inversion_n97_converges(tmp_path):
    # red-black SOR took 98,217 iterations (about a minute) on this request
    cfg = _write(tmp_path / "l.json", {"id": "grad-inversion", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 97, "ny": 97, "boundary": "X^2-Y^2"})
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 0
    assert time.perf_counter() - start < 30.0
    rep = _read_json(out / "solve_report.json")
    assert rep["converged"] is True and rep["residual"] <= rep["tol"]
    assert rep["tol"] == FLOOR_FACTOR * rep["residual_floor"]


def test_runtime_imports_no_scipy():
    # the README promises numpy as the only runtime dependency; scipy may be
    # installed in a test environment, so a stray import would go unnoticed
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ma_lin, ma_lin.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_manifest_records_input_hash(tmp_path):
    eq = _write(tmp_path / "eq.json", {"id": "g", "F": "(p^2+q^2)^2", "note": ""})
    out = tmp_path / "o"
    assert main(["classify", "--in", eq, "--out", str(out)]) == 0
    man = _read_json(out / "manifest.json")
    assert len(man["inputs"][eq]) == 64  # sha256 hex digest
