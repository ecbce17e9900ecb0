import hashlib
import json
import platform
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import percent_g_rows, src_env
from ma_lin.cli import UsageError, _exit_code, main
from ma_lin.elasticity import ElasticityError
from ma_lin.equations import KhabirovError, NotInClassError, khabirov_push
from ma_lin.expressions import ExprError
from ma_lin.grids import GridError, read_grid
from ma_lin.lift import EmptyLiftError, LiftError, PipelineError
from ma_lin.linsolve import FLOOR_FACTOR, NotConvergedError, NotEllipticError
from ma_lin.transforms import DegenerateJetError, FoldError, TransformError


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


def test_an_overflowing_literal_exits_1(tmp_path, capsys):
    assert main(["khabirov", "--g", "1+1e400*s", "--out", str(tmp_path / "o")]) == 1
    assert "syntax error at offset 2: number 1e400 overflows a double" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,data,message", [
    ("classify", {"id": "bad", "F": "q^4*(1e200*1e200-1e200*1e200)"},
     "non-finite value nan at flat index 0 in `q^4*(1e+200*1e+200-1e+200*1e+200)`"),
    ("classify", {"id": "bad", "F": "x*1e200*1e200*q^4"},
     "non-finite value inf at flat index 0 in `x*1e+200*1e+200*q^4`"),
    ("lift", {"f": "1e200*1e200-1e200*1e200", "domain": [0.5, 1.5, 0.5, 1.5],
              "boundary": "X^2-Y^2"},
     "non-finite value nan at flat index 0 in `q^4*(1e+200*1e+200-1e+200*1e+200)`"),
    ("lift", {"f": "u*1e200*1e200", "domain": [0.5, 1.5, 0.5, 1.5], "boundary": "X^2-Y^2"},
     "non-finite value inf at flat index 0 in `q^4*(u*1e+200*1e+200)`"),
], ids=["classify-nan", "classify-inf", "lift-nan", "lift-inf"])
def test_an_F_that_is_not_finite_at_a_sample_exits_1_at_classify(tmp_path, capsys, command,
                                                                  data, message):
    out = tmp_path / "o"
    assert main([command, "--in", _write(tmp_path / "eq.json", data), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    man = _read_json(out / "manifest.json")
    assert man["error"] == {"stage": "classify", "message": message, "exit_code": 1}


def test_classify_needs_input(tmp_path):
    assert main(["classify", "--out", str(tmp_path / "o")]) == 1


def _strict_json(path):
    """The JSON in path, refusing NaN and Infinity as the artifact writer does."""
    return json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))


def test_an_F_whose_scaled_value_overflows_is_not_homogeneous(tmp_path, capsys):
    # lambda^4 F is past the largest double at some samples; F itself is finite
    eq = _write(tmp_path / "eq.json", {"id": "big", "F": "1e307*(1+q)"})
    out = tmp_path / "o"
    assert main(["classify", "--in", eq, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    witness = _strict_json(out / "classification.json")["witness"]
    assert witness["test"] == "homogeneity-degree-4"
    lam, q = witness["sample"]["lambda"], witness["sample"]["q"]
    # [F(lambda p, lambda q), F(p, q)]
    assert witness["values"] == [1e307 * (1 + lam * q), 1e307 * (1 + q)]
    assert list(_strict_json(out / "manifest.json")["artifacts"]) == ["classification.json"]


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
    error = _read_json(out / "manifest.json")["error"]
    assert (error["stage"], error["exit_code"]) == ("solve", 2)
    assert "positive" in error["message"]


@pytest.mark.parametrize("fcoeff", ["1", "1+X*Y"], ids=["fourier-start", "nested-start"])
def test_data_that_overflow_the_scheme_are_refused(tmp_path, capsys, fcoeff):
    # 2e307 on the boundary times 2/dx^2 + 2/dy^2 = 256 is past the largest
    # double: the solve refuses it before either start, with no warning
    cfg = _write(tmp_path / "p.json", {"domain": [0, 1, 0, 1], "nx": 9, "ny": 9,
                                       "fcoeff": fcoeff, "boundary": "1e307*(X+Y)"})
    out = tmp_path / "o"
    assert main(["solve", "--in", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the five-point operator overflows doubles on this data: "
                          "max |boundary| 2e+307, max |source| 0, 2/dx^2 + 2 max f/dy^2 = ")
    man = _read_json(out / "manifest.json")
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("solve", 1)
    assert man["artifacts"] == {} and [p.name for p in out.iterdir()] == ["manifest.json"]
    assert b"NaN" not in (out / "manifest.json").read_bytes()


def test_no_json_artifact_holds_a_non_finite_number(tmp_path):
    from ma_lin.cli import _dump_json
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            _dump_json(tmp_path / "r.json", {"residual": bad})
    assert not (tmp_path / "r.json").exists()


def test_solve_not_converged_exits_3_with_report(tmp_path):
    data = _solve_config()
    data["max_iter"] = 1
    # data that one V-cycle does not solve, and an f that varies along X,
    # which keeps the solve off the Fourier start
    data["boundary"], data["fcoeff"] = "exp(X)*cos(Y)", "1+X*Y"
    cfg = _write(tmp_path / "p.json", data)
    out = tmp_path / "o"
    assert main(["solve", "--in", cfg, "--out", str(out)]) == 3
    rep = _read_json(out / "solve_report.json")
    assert rep["converged"] is False and rep["iterations"] == 1
    man = _read_json(out / "manifest.json")
    assert sorted(man["artifacts"]) == ["solution.csv", "solve_report.json"]
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("solve", 3)


def test_solve_not_converged_says_so_on_stderr(tmp_path, capsys):
    # the same line a lift whose solve fails to converge prints
    cfg = _write(tmp_path / "p.json", {**_solve_config(), "max_iter": 1,
                                        "boundary": "exp(X)*cos(Y)", "fcoeff": "1+X*Y"})
    assert main(["solve", "--in", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("not converged: no convergence after 1 V-cycles")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("command,limits,flags,field", [
    ("solve", {"tol": "abc"}, [], "tol"),
    ("solve", {"tol": -1}, [], "tol"),
    ("solve", {"tol": float("nan")}, [], "tol"),
    ("solve", {}, ["--tol", "inf"], "tol"),
    ("solve", {"max_iter": 0}, [], "max_iter"),
    ("solve", {"max_iter": -3}, [], "max_iter"),
    ("solve", {"max_iter": "abc"}, [], "max_iter"),
    ("lift", {"tol": "abc"}, [], "tol"),
    ("lift", {"tol": -1}, [], "tol"),
    ("lift", {}, ["--tol=-1e-9"], "tol"),
    ("solve", {"tol": 10 ** 400}, [], "tol"),  # an int no double holds
])
def test_out_of_range_limits_exit_1_before_any_artifact(tmp_path, capsys, command, limits,
                                                        flags, field):
    data = {**(_solve_config() if command == "solve" else _lift_config()), **limits}
    cfg = _write(tmp_path / "p.json", data)
    out = tmp_path / "o"
    assert main([command, "--in", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and "Traceback" not in err
    assert not out.exists()


def test_zero_tol_stays_legal(tmp_path):
    # tol = 0 runs until the residual stalls, then exits 3 with the report
    data = {**_solve_config(), "tol": 0}
    cfg = _write(tmp_path / "p.json", data)
    out = tmp_path / "o"
    assert main(["solve", "--in", cfg, "--out", str(out)]) == 3
    rep = _read_json(out / "solve_report.json")
    assert rep["tol"] == 0.0 and rep["residual"] <= FLOOR_FACTOR * rep["residual_floor"]


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


def test_failed_lift_manifest_says_why(tmp_path):
    data = {"id": "axisym", "domain": [0.5, 1.5, 0.5, 1.5], "boundary": "X^2-Y^2"}
    cfg = _write(tmp_path / "l.json", data)
    out = tmp_path / "o"
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 2
    man = _read_json(out / "manifest.json")
    assert man["artifacts"] == {}
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("classify", 2)
    assert man["error"]["message"]


def test_lift_all_nodes_degenerate_exits_2(tmp_path, capsys):
    # the Laplace solution U = X*Y has U_YY = 0 at every node
    data = {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
            "nx": 9, "ny": 9, "boundary": "X*Y"}
    cfg = _write(tmp_path / "l.json", data)
    assert main(["lift", "--in", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "rejected: pipeline stage 'lift' failed" in capsys.readouterr().err


@pytest.mark.parametrize("x0,y0,code", [(100.0, 100.0, 2), (-2.5, 1.0, 0)],
                         ids=["far", "partial"])
def test_lift_with_no_resampled_value_exits_2(tmp_path, capsys, x0, y0, code):
    # the image of this 17x17 mesh is about [-2.88, -1.13] x [0.63, 4.13]: a
    # target far from it resamples no node, and one that overlaps it part
    data = {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5], "nx": 17, "ny": 17,
            "boundary": "X^2-Y^2",
            "target": {"nx": 5, "ny": 5, "x0": x0, "y0": y0, "dx": 1.0, "dy": 1.0}}
    out = tmp_path / "o"
    assert main(["lift", "--in", _write(tmp_path / "l.json", data), "--out", str(out)]) == code
    man = _read_json(out / "manifest.json")
    if code == 0:
        values = read_grid(out / "resampled.csv").values
        assert 0 < np.isfinite(values).sum() < values.size and "error" not in man
        return
    assert man["artifacts"] == {}
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("resample", 2)
    assert "target [100, 104] x [100, 104], image [-2.875, -1.125] x [0.6" in man["error"]["message"]
    assert "rejected: pipeline stage 'resample' failed" in capsys.readouterr().err


def test_lift_records_how_much_of_the_target_was_resampled(tmp_path):
    # the image of the Laplace lift of exp(X)*cos(Y) covers only part of the
    # target inferred from its box: partial coverage exits 0 and says so
    data = {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5], "nx": 17, "ny": 17,
            "boundary": "exp(X)*cos(Y)", "target_nx": 9, "target_ny": 11}
    out = tmp_path / "o"
    assert main(["lift", "--in", _write(tmp_path / "l.json", data), "--out", str(out)]) == 0
    ver = _read_json(out / "verification.json")
    values = read_grid(out / "resampled.csv").values
    assert ver["resampled_targets"] == values.size == 99
    assert 0 < ver["resampled_hits"] == np.isfinite(values).sum() < values.size


# ---------------------------------------------------------------------------
# config validation

def _geometry_config():
    """The solve config with `geometry` in place of `domain`, nx and ny."""
    data = _solve_config()
    for key in ("domain", "nx", "ny"):
        del data[key]
    data["geometry"] = {"nx": 9, "ny": 9, "x0": 0.0, "y0": 0.0, "dx": 0.125, "dy": 0.125}
    return data


def _refused_before_any_output(tmp_path, capsys, command, data, *flags):
    """Run command on data; it must exit 1 before creating the output
    directory, with one error line and no traceback.  Returns that line."""
    cfg = _write(tmp_path / "p.json", data)
    out = tmp_path / "o"
    assert main([command, "--in", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    return err


def _with(make, **changes):
    """A config from make() with keys set, or removed where the value is
    None; a key such as "target.ny" reaches into the nested object."""
    data = make()
    for path, value in changes.items():
        *outer, key = path.split(".")
        obj = data[outer[0]] if outer else data
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return data


def _case(command, changes, message, make=None):
    make = make or (_lift_config if command == "lift" else _solve_config)
    words = re.sub(r"[^\w.]+", "-", message).strip("-")
    return pytest.param(command, make, changes, message, id=f"{command}-{words}")


@pytest.mark.parametrize("command,make,changes,message", [
    _case("lift", {"max_iter": 0}, "lift config does not read the key 'max_iter'"),
    _case("lift", {"tl": -1}, "lift config does not read the key 'tl'"),  # a misspelt tol
    # not read beside an explicit target, or beside a catalog id
    _case("lift", {"target_nx": 9}, "lift config does not read the key 'target_nx'"),
    _case("lift", {"f": "1"}, "lift config does not read the key 'f'"),
    _case("lift", {"geometry": {}}, "lift config does not read the key 'geometry'"),
    _case("lift", {"target.dz": 0.1}, "target does not read the key 'dz'"),
    _case("solve", {"max_itr": 5}, "solve config does not read the key 'max_itr'"),
    _case("solve", {"nx": 9}, "solve config does not read the key 'nx'", _geometry_config),
    _case("solve", {"boundary": {"left": "0", "right": "0", "bottom": "0", "up": "0"}},
          "boundary does not read the key 'up'"),
])
def test_config_keys_a_command_does_not_read_exit_1(tmp_path, capsys, command, make, changes,
                                                      message):
    err = _refused_before_any_output(tmp_path, capsys, command, _with(make, **changes))
    assert err.startswith(f"error: {message}; it reads ")


@pytest.mark.parametrize("command,make,changes,message", [
    _case("lift", {"nx": 9.7}, "nx"),
    _case("lift", {"ny": 16.5}, "ny"),
    _case("lift", {"target.nx": 9.5}, "target.nx"),
    _case("lift", {"target.ny": 1e-3}, "target.ny"),
    _case("lift", {"target": None, "boundary": "X^2-Y^2", "target_nx": 9.7}, "target_nx"),
    _case("lift", {"target": None, "boundary": "X^2-Y^2", "target_ny": 32.5}, "target_ny"),
    _case("solve", {"nx": 9.7}, "nx"),
    _case("solve", {"ny": 17.25}, "ny"),
    _case("solve", {"geometry.nx": 9.7}, "geometry.nx", _geometry_config),
    _case("solve", {"geometry.ny": 4.5}, "geometry.ny", _geometry_config),
])
def test_non_integral_node_counts_exit_1(tmp_path, capsys, command, make, changes, message):
    err = _refused_before_any_output(tmp_path, capsys, command, _with(make, **changes))
    assert err.startswith(f"error: {message} must be a whole number")


@pytest.mark.parametrize("command,make,changes,message", [
    _case("lift", {"nx": "33"}, "nx must be a finite number"),
    _case("lift", {"target.dx": "0.1"}, "target.dx must be a finite number"),
    _case("lift", {"target.x0": 10 ** 400}, "target.x0 must be a finite number"),
    _case("lift", {"domain": [0.5, 1.5, 0.5]}, "domain must be [X0, X1, Y0, Y1]"),
    _case("lift", {"domain": [0.5, "a", 0.5, 1.5]}, "domain[1] must be a finite number"),
    _case("solve", {"ny": True}, "ny must be a finite number"),
    _case("solve", {"geometry": [9, 9]}, "geometry must be a JSON object", _geometry_config),
])
def test_non_numeric_grid_fields_exit_1(tmp_path, capsys, command, make, changes, message):
    err = _refused_before_any_output(tmp_path, capsys, command, _with(make, **changes))
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command,make,changes,message", [
    _case("lift", {"domain": None}, "lift config needs 'domain'"),
    _case("lift", {}, "lift config needs 'boundary'"),
    _case("lift", {"target.ny": None}, "target needs 'ny'"),
    _case("lift", {"target.x0": None}, "target needs 'x0'"),
    _case("solve", {"domain": None}, "solve config needs 'domain'"),
    _case("solve", {"boundary": None}, "solve config needs 'boundary'"),
    _case("solve", {"fcoeff": None}, "solve config needs 'fcoeff'"),
    _case("solve", {"geometry.dx": None}, "geometry needs 'dx'", _geometry_config),
    _case("solve", {"boundary": {"left": "0", "right": "0", "bottom": "0"}},
          "boundary needs 'top'"),
])
def test_missing_fields_exit_1_naming_the_field(tmp_path, capsys, command, make, changes,
                                                message):
    err = _refused_before_any_output(tmp_path, capsys, command, _with(make, **changes))
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command,make,flags,message", [
    ("solve", _solve_config, ["--nx", "0"], "nx=0"),
    ("solve", _solve_config, ["--ny", "0"], "ny=0"),
    ("solve", _geometry_config, ["--nx", "0"], "nx=0"),
    ("lift", lambda: _with(_lift_config, boundary="X^2-Y^2"), ["--ny", "0"], "ny=0"),
    ("elasticity", lambda: _deformation_config(domain=[-1, 1, -1, 1]), ["--n", "0"],
     "n must be at least 1, got 0"),
], ids=["solve-nx", "solve-ny", "solve-geometry-nx", "lift-ny", "elasticity-n"])
def test_zero_node_count_flags_are_values_not_absent(tmp_path, capsys, command, make, flags,
                                                     message):
    err = _refused_before_any_output(tmp_path, capsys, command, make(), *flags)
    assert message in err


@pytest.mark.parametrize("count", [0, 1, -3])
@pytest.mark.parametrize("key", ["target_nx", "target_ny"])
def test_inferred_target_counts_below_2_exit_1_before_any_output(tmp_path, capsys, key, count):
    data = _with(_lift_config, target=None, boundary="X^2-Y^2", **{key: count})
    err = _refused_before_any_output(tmp_path, capsys, "lift", data)
    assert err == f"error: {key} must be at least 2, got {count}\n"


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("key", ["nx", "ny"])
def test_lift_grid_counts_below_4_exit_1_before_any_output(tmp_path, capsys, key, count,
                                                           source):
    # the lift keeps the (nx-2) x (ny-2) interior, and resampling needs 2x2
    # of its nodes, so a smaller count could only fail after the solve
    data = _with(_lift_config, boundary="X^2-Y^2",
                 **({key: count} if source == "config" else {}))
    flags = [f"--{key}", str(count)] if source == "flag" else []
    err = _refused_before_any_output(tmp_path, capsys, "lift", data, *flags)
    assert err == f"error: {key} must be at least 4, got {count}\n"


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = _write(tmp_path / "p.json", [1, 2])
    assert main(["solve", "--in", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_whole_float_counts_and_geometry_stay_legal(tmp_path):
    # 17.0 is a whole number; geometry replaces domain
    data = _with(_solve_config, nx=17.0, ny=17.0)
    assert main(["solve", "--in", _write(tmp_path / "a.json", data),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--in", _write(tmp_path / "b.json", _geometry_config()),
                 "--out", str(tmp_path / "b")]) == 0
    assert [read_grid(tmp_path / side / "solution.csv").nx for side in "ab"] == [17, 9]


# ---------------------------------------------------------------------------
# elasticity

def _deformation_config(**changes):
    return {"kind": "from-U", "potential": "X^2+Y^2", **changes}


@pytest.mark.parametrize("command,data,flags,message", [
    ("elasticity", {}, [], "elasticity config needs 'kind'"),
    ("elasticity", {"kind": "from-U"}, [], "elasticity config needs 'potential'"),
    ("elasticity", _deformation_config(domain=[-1, 1, -1, 1], samples=5), [],
     "elasticity config does not read the key 'samples'; it reads kind, potential, domain, n"),
    ("elasticity", _deformation_config(domain=[-1, 1, -1, 1], n=5.5), [],
     "n must be a whole number"),
    ("elasticity", _deformation_config(domain=[-1, 1, -1]), [], "domain must be [X0, X1, Y0, Y1]"),
    ("elasticity", _deformation_config(domain=[-1, "a", -1, 1]), [],
     "domain[1] must be a finite number"),
    ("elasticity", _deformation_config(), ["--domain=nan,1,-1,1"],
     "domain[0] must be a finite number"),
    ("elasticity", _deformation_config(), ["--domain=-1,1,-1"], "domain must be [X0, X1, Y0, Y1]"),
    ("elasticity", _deformation_config(kind="from-Q"), [],
     "unknown deformation kind 'from-Q'; known kinds: from-U, from-V, from-W, axisym-U, "
     "axisym-V, membrane"),
    ("khabirov", {}, [], "khabirov config needs 'g'"),
    ("khabirov", {"g": "1+s^2", "h": "s"}, [],
     "khabirov config does not read the key 'h'; it reads g"),
    ("khabirov", {"g": "1+s^2"}, ["--g", "1+s^2"], "khabirov takes --g or --in, not both"),
    ("classify", {"id": "e", "F": "q^4", "Fx": "oops"}, [],
     "equation does not read the key 'Fx'; it reads id, F, note"),
    ("classify", {"id": "e", "note": ""}, [], "equation needs 'F'"),
    ("classify", {"id": "e", "F": "q^4", "note": ""}, ["--id", "grad-inversion"],
     "classify takes --id or --in, not both"),
    ("elasticity", _deformation_config(), [], "elasticity needs a material domain"),
], ids=["no-kind", "no-potential", "unknown-key", "fractional-n", "short-domain",
        "text-in-domain", "nan-domain-flag", "short-domain-flag", "unknown-kind", "no-g",
        "khabirov-unknown-key", "khabirov-g-and-in", "classify-unknown-key", "classify-no-F",
        "classify-id-and-in", "no-domain"])
def test_elasticity_and_khabirov_inputs_are_checked(tmp_path, capsys, command, data, flags,
                                                    message):
    err = _refused_before_any_output(tmp_path, capsys, command, data, *flags)
    assert err.startswith(f"error: {message}")


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
    rows = [[float(t) for t in line.split(",")] for line in lines[1:]]
    assert (out / "deformed.csv").read_bytes() == b"# deformed\n" + percent_g_rows(rows)


def test_elasticity_negative_control(tmp_path):
    d = _write(tmp_path / "d.json", {"kind": "from-U", "potential": "X^2+Y^2",
                                     "domain": [-1, 1, -1, 1], "n": 5})
    out = tmp_path / "o"
    assert main(["elasticity", "--in", d, "--out", str(out)]) == 0
    rep = _read_json(out / "incompressibility.json")
    assert abs(rep["max_jac_dev"] - 3.0) <= 1e-12
    assert abs(rep["max_ma_residual"] - 3.0) <= 1e-12


_DEFORMATION_DOMAIN = [0.5, 1.5, 0.4, 1.3]


# SHA-256 of deformed.csv and incompressibility.json for one potential per
# kind at n = 9, as written while elasticity spelt each balance residual out
# by hand; through the catalog's equations the bytes must stay the same
@pytest.mark.parametrize("kind,potential,digests", [
    ("from-U", "X^2+X*Y+Y^2/2+0.1*X^3",
     ("3072d5b67447979c5261867c280776f55ff63dee2d1041544bf695eb90a48ac1",
      "b59657cf3f0ed36deafb306e9d391b403060b20c35cd09db9ba62692ed0e6030")),
    ("from-V", "(alpha^2+beta^2)/2+alpha^3/3",
     ("8724cd1b7bd2a928e65eb6a17f89e29d7d1d6c3596755eab35758d20d6101879",
      "1eb7525b16bbd84649511bdd8a035f82dd887d467a38968f98cf9037d23f46da")),
    ("from-W", "X^2-Y*arctan(Y)+0.2*X*Y",
     ("059f92e944dc9d357963c5024395c41cbff9f0a943b3e60e37aa7df1da57d101",
      "61503de3bc5b5333d19a09eb2a4d1ea00c26f195833ca742f756527a3da58438")),
    ("axisym-U", "R^2/2+R*Z+Z^3/7",
     ("76caee326a91814fcc5842ab63c0d177d8f43974f933632354a695c02d0afebb",
      "f06dd3fff6c596c460cda59efb696d164e1d6c9ba0eba494ccf64b485e3bd10e")),
    ("axisym-V", "alpha^2/2+alpha*beta+beta^2+3*alpha",
     ("57af808bb96f98c0bd46164e68d8e669528169fcb170aa17e7c9e24f244da67c",
      "2d7fd89743364ad32dc51c7ee77e9e119ac2c180049d9efd2b5f4f21b5fd3f82")),
    ("membrane", "alpha*beta+alpha^2+exp(beta)",
     ("5e2cd3435b92c75b8e5933bdb42c0ef0aaad8151db2092bf4a018bc32b280ae6",
      "ca48f08b614b9803256dc69c273a4ecaa8d5cd0ca0543b71ebe6a7664b179dce")),
])
def test_elasticity_artifacts_keep_their_bytes(tmp_path, kind, potential, digests):
    d = _write(tmp_path / "d.json", {"kind": kind, "potential": potential,
                                     "domain": _DEFORMATION_DOMAIN, "n": 9})
    out = tmp_path / "o"
    assert main(["elasticity", "--in", d, "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("deformed.csv", "incompressibility.json"))
    assert got == digests


@pytest.mark.parametrize("data,message", [
    ({"kind": "axisym-U", "potential": "R^2/2 - R + Z^2/2", "domain": [0.5, 1.5, 0.5, 1.5],
      "n": 3}, "division by zero at flat index 3 in `x/p`"),
    ({"kind": "axisym-V", "potential": "alpha^2/2+alpha*beta+beta^2",
      "domain": _DEFORMATION_DOMAIN, "n": 9},
     "division by zero at flat index 11 in `x/((x^2+y^2)^2*p)`"),
    ({"kind": "membrane", "potential": "alpha*beta+alpha^2", "domain": _DEFORMATION_DOMAIN,
      "n": 9}, "division by zero at flat index 11 in `(x^2+y^2)^-2/(x*p+y*q-u)`"),
], ids=["axisym-U", "axisym-V", "membrane"])
def test_a_balance_residual_that_divides_by_zero_exits_1(tmp_path, capsys, data, message):
    # U_R or the membrane's x*p+y*q-u vanishes at a sample: the residual is
    # the catalog equation's, whose division refuses, not an infinite report
    out = tmp_path / "o"
    assert main(["elasticity", "--in", _write(tmp_path / "d.json", data),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    man = _read_json(out / "manifest.json")
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("elasticity", 1)
    assert man["artifacts"] == {} and [p.name for p in out.iterdir()] == ["manifest.json"]
    assert b"Infinity" not in (out / "manifest.json").read_bytes()


@pytest.mark.parametrize("data,code,message", [
    # 1e200*X^2 overflows to inf before the second 1e200: no J can be formed
    ({"kind": "from-U", "potential": "1e200*X^2*1e200", "domain": [0.5, 1.5, 0.5, 1.5],
      "n": 3}, 1, "error: the potential's jet is not finite at sample 0, point (0.5, 0.5)"),
    # a finite jet whose Hessian determinant 4e320 overflows
    ({"kind": "from-U", "potential": "1e160*X^2+1e160*Y^2", "domain": [0.5, 1.5, 0.5, 1.5],
      "n": 3}, 1, "error: the jacobian is not finite at sample 0, point (0.5, 0.5)"),
    ({"kind": "from-W", "potential": "X^2+Y^2", "domain": [-1, 1, -1, 1], "n": 3}, 2,
     "rejected: zero potential gradient at sample 4, point (0.0, 0.0)"),
    ({"kind": "from-V", "potential": "alpha*beta", "domain": [-1, 1, -1, 1], "n": 3}, 2,
     "rejected: inversion is singular at the origin: sample 4, point (0.0, 0.0)"),
], ids=["non-finite-jet", "hessian-overflow", "zero-gradient", "inversion-origin"])
def test_an_elasticity_refusal_names_the_first_sample(tmp_path, capsys, data, code, message):
    out = tmp_path / "o"
    assert main(["elasticity", "--in", _write(tmp_path / "d.json", data),
                 "--out", str(out)]) == code
    assert capsys.readouterr().err == message + "\n"
    man = _read_json(out / "manifest.json")
    assert man["error"] == {"stage": "elasticity", "exit_code": code,
                            "message": message.split(": ", 1)[1]}
    assert man["artifacts"] == {} and [p.name for p in out.iterdir()] == ["manifest.json"]


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


def test_khabirov_quotes_the_failing_sample_as_a_plain_float(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["khabirov", "--g", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    message = _read_json(out / "manifest.json")["error"]["message"]
    for text in (err, message):
        assert "np.float64" not in text
        sample = text.split("verification sample s=")[1].split()[0]
        assert repr(float(sample)) == sample


def test_khabirov_wrong_variable_exits_1(tmp_path):
    assert main(["khabirov", "--g", "1+x^2", "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------------------
# deep expressions and exit codes

_DEEP_SUM = "+".join(["X"] * 3000)


@pytest.mark.parametrize("command,data,flags", [
    ("khabirov", None, ["--g=" + "+".join(["s"] * 3000)]),
    ("khabirov", None, ["--g=" + "(" * 600 + "s" + ")" * 600]),
    ("solve", dict(_solve_config(), boundary=_DEEP_SUM), []),
    ("lift", dict(_lift_config(), boundary=_DEEP_SUM), []),
    ("lift", {**{k: v for k, v in _lift_config().items() if k != "id"},
              "f": "+".join(["s"] * 3000), "boundary": "X^2-Y^2"}, []),
    ("elasticity", _deformation_config(potential="+".join(["X*Y"] * 3000),
                                       domain=[0.5, 1.5, 0.5, 1.5]), []),
], ids=["khabirov-long-sum", "khabirov-nested-parentheses", "solve-boundary", "lift-boundary",
        "lift-class-function", "elasticity-potential"])
def test_deep_expressions_exit_1_without_a_traceback(tmp_path, capsys, command, data, flags):
    argv = [command, "--out", str(tmp_path / "o"), *flags]
    if data is not None:
        argv += ["--in", _write(tmp_path / "p.json", data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: the expression is nested too deeply\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("err,code", [
    (NotEllipticError("f <= 0"), 2),
    (NotInClassError("x-dependence", {}), 2),
    (EmptyLiftError("every node is degenerate"), 2),
    (TransformError("xs must be finite"), 2),
    (DegenerateJetError("eta", 0.0, 1e-12, 0), 2),
    (FoldError("fold"), 2),
    (ElasticityError("zero potential gradient"), 2),
    (KhabirovError("g vanishes"), 2),
    (NotConvergedError(SimpleNamespace(iterations=1, residual=1.0, tol=0.5,
                                       residual_floor=0.0), None), 3),
    (UsageError("bad"), 1),
    (ExprError("bad"), 1),
    (GridError("bad"), 1),
    (LiftError("bad"), 1),
    (ValueError("bad"), 1),
    (KeyError("bad"), 1),
    (OSError("bad"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_a_library_error_gives_one_exit_code_wrapped_or_bare(err, code):
    assert _exit_code(err) == _exit_code(PipelineError("stage", err)) == code


# ---------------------------------------------------------------------------
# overwrite guard, determinism, entry point

def test_no_overwrite_without_force(tmp_path):
    out = tmp_path / "o"
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 0
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 1
    assert main(["classify", "--id", "grad-inversion", "--out", str(out), "--force"]) == 0


def test_a_run_into_another_runs_directory_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_bytes()
    assert main(["khabirov", "--g", "1+s^2", "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert not (out / "khabirov.json").exists()
    assert (out / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize("argv,message", [
    (["classify", "--in", "{tmp}/missing.json"], "input file not found: {tmp}/missing.json"),
    (["classify", "--in", "{tmp}/cut.json"],
     "malformed JSON in {tmp}/cut.json: Expecting value: line 1 column 8 (char 7)"),
    (["lift", "--in", "{tmp}/lift.json"],
     "lift config needs 'id' (catalog) or 'f' (class function in u, s)"),
    (["khabirov"], 'khabirov needs --g EXPR or --in FILE with {"g": ...}'),
], ids=["missing-file", "truncated-json", "lift-without-equation", "khabirov-without-g"])
def test_a_usage_error_exits_1_and_creates_no_output(tmp_path, capsys, argv, message):
    (tmp_path / "cut.json").write_text('{"id": ')
    _write(tmp_path / "lift.json", {"domain": [0.5, 1.5, 0.5, 1.5], "nx": 9, "ny": 9,
                                    "boundary": "X^2-Y^2"})
    out = tmp_path / "o"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"
    assert not out.exists()


def test_an_artifact_left_without_a_manifest_is_not_overwritten(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "classification.json").write_bytes(b'{"x": 1}\n')
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 1
    message = f"refusing to overwrite {out / 'classification.json'} (use --force)"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (out / "classification.json").read_bytes() == b'{"x": 1}\n'
    assert sorted(p.name for p in out.iterdir()) == ["classification.json", "manifest.json"]
    man = _read_json(out / "manifest.json")
    assert man["artifacts"] == {}
    assert man["error"] == {"stage": "write", "message": message, "exit_code": 1}


def test_a_refused_run_does_no_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("ma_lin.cli.khabirov_push",
                        lambda *a, **k: calls.append(a) or khabirov_push(*a, **k))
    out = tmp_path / "o"
    assert main(["classify", "--id", "grad-inversion", "--out", str(out)]) == 0
    assert main(["khabirov", "--g", "1+s^2", "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert calls == []
    assert main(["khabirov", "--g", "1+s^2", "--out", str(tmp_path / "k")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv,code,stage", [
    (["khabirov", "--g", "0"], 2, "khabirov"),
    (["classify", "--in", {"id": "t", "F": "sqrt(-1-p^2)"}], 1, "classify"),
    (["elasticity", "--in", {"kind": "from-U", "potential": "sqrt(-X^2-1)",
                             "domain": [-1, 1, -1, 1], "n": 3}], 1, "elasticity"),
])
def test_a_failed_computation_leaves_a_manifest(tmp_path, capsys, argv, code, stage):
    argv = [_write(tmp_path / "in.json", a) if isinstance(a, dict) else a for a in argv]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    man = _read_json(out / "manifest.json")
    assert man["artifacts"] == {}
    assert (man["error"]["stage"], man["error"]["exit_code"]) == (stage, code)


def _listed_hashes_match(out, manifest):
    return all(hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
               for name, digest in manifest["artifacts"].items())


def test_a_failed_rerun_leaves_its_own_manifest(tmp_path):
    # a --force rerun that fails while writing replaces the first run's
    # manifest, which names the first input and hashes a file since rewritten
    out = tmp_path / "o"
    first = _write(tmp_path / "a.json", {**_lift_config(), "boundary": "X^2-Y^2"})
    assert main(["lift", "--in", first, "--out", str(out)]) == 0
    first_hash = _read_json(out / "manifest.json")["artifacts"]["lifted.csv"]
    (out / "resampled.csv.tmp").mkdir()
    second = _write(tmp_path / "b.json", {**_lift_config(), "boundary": "X^2-Y^2+X"})
    assert main(["lift", "--in", second, "--out", str(out), "--force"]) == 1
    man = _read_json(out / "manifest.json")
    assert list(man["inputs"]) == [second]
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("write", 1)
    assert list(man["artifacts"]) == ["lifted.csv"] and man["artifacts"]["lifted.csv"] != first_hash
    assert _listed_hashes_match(out, man)


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def full_disk(grid, path):
        with open(path, "wb") as fh:
            fh.write(b"# nx=")
        raise OSError(28, "No space left on device")
    monkeypatch.setattr("ma_lin.cli.write_grid", full_disk)
    out = tmp_path / "o"
    cfg = _write(tmp_path / "l.json", {**_lift_config(), "boundary": "X^2-Y^2"})
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 1
    man = _read_json(out / "manifest.json")
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("write", 1)
    assert list(out.glob("*.tmp")) == [] and not (out / "resampled.csv").exists()


@pytest.mark.parametrize("command,blocked,committed", [
    ("classify", "classification.json", []),
    ("elasticity", "deformed.csv", ["incompressibility.json"]),
])
def test_a_failed_write_is_recorded_in_the_manifest(tmp_path, capsys, command, blocked,
                                                    committed):
    out = tmp_path / "o"
    (out / (blocked + ".tmp")).mkdir(parents=True)
    argv = (["classify", "--id", "grad-inversion"] if command == "classify" else
            ["elasticity", "--in", _write(tmp_path / "d.json", _deformation_config()),
             "--domain=-1,1,-1,1", "--n", "5"])
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    man = _read_json(out / "manifest.json")
    assert (man["error"]["stage"], man["error"]["exit_code"]) == ("write", 1)
    assert sorted(man["artifacts"]) == committed and _listed_hashes_match(out, man)


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


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    from ma_lin.cli import _build_parser
    assert _build_parser() is _build_parser()
    runs = []
    for k in range(2):
        out = tmp_path / f"o{k}"
        codes = (main(["classify", "--id", "grad-inversion", "--out", str(out)]),
                 main(["classify", "--id", "no-such-id", "--out", str(tmp_path / f"x{k}")]),
                 main(["classify", "--bogus"]))
        runs.append((codes, capsys.readouterr(), (out / "classification.json").read_bytes()))
    assert runs[0][0] == (0, 1, 1)
    assert runs[1] == runs[0]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ma_lin", "classify", "--id", "plane-strain",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=src_env())
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


def test_lift_solve_report_records_the_multigrid_levels(tmp_path):
    # general-Au's coefficient X*(1+Y^2)^2 varies along X: the nested start runs
    cfg = _write(tmp_path / "l.json", {"id": "general-Au", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 65, "ny": 65, "boundary": "X^2-Y^2",
                                        "target_nx": 9, "target_ny": 9})
    out = tmp_path / "o"
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 0
    rep = _read_json(out / "solve_report.json")
    # 65 -> 33 -> 17 nodes per axis; the 15x15 interior of the last is solved exactly
    assert rep["start"] == "nested" and rep["levels"] == [[65, 65], [33, 33], [17, 17]]
    assert rep["direct_unknowns"] == 225


def test_lift_solve_report_records_the_fourier_start(tmp_path):
    # plane-strain-class's coefficient 1 is constant along X: the Fourier
    # start meets the bound, with no V-cycle and no hierarchy built
    cfg = _write(tmp_path / "l.json", {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 65, "ny": 65, "boundary": "X^2-Y^2",
                                        "target_nx": 9, "target_ny": 9})
    out = tmp_path / "o"
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 0
    rep = _read_json(out / "solve_report.json")
    assert (rep["start"], rep["iterations"], rep["levels"], rep["direct_unknowns"]) == (
        "fourier", 0, [], 0)
    assert rep["residuals"] == [rep["residual"]] and rep["residual"] <= rep["tol"]
    assert 0.0 < rep["setup_seconds"] < rep["elapsed"]


def test_solve_reports_record_the_hierarchy_build_time(tmp_path):
    # coefficients that vary along X, so that both solves build the hierarchy
    cfg = _write(tmp_path / "l.json", {"id": "general-Au", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 33, "ny": 33, "boundary": "X^2-Y^2",
                                        "target_nx": 9, "target_ny": 9})
    problem = _write(tmp_path / "p.json", {**_solve_config(), "fcoeff": "1+X*Y"})
    runs = [["lift", "--in", cfg], ["solve", "--in", problem]]
    for k, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / f"o{k}")]) == 0
        rep = _read_json(tmp_path / f"o{k}" / "solve_report.json")
        assert rep["start"] == "nested" and rep["levels"], argv
        assert 0.0 < rep["setup_seconds"] < rep["elapsed"], argv


def test_lift_solve_report_records_the_residual_history(tmp_path):
    cfg = _write(tmp_path / "l.json", {"id": "general-Au", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 65, "ny": 65, "boundary": "X^2-Y^2",
                                        "target_nx": 9, "target_ny": 9})
    out = tmp_path / "o"
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 0
    rep = _read_json(out / "solve_report.json")
    # one max-norm residual per V-cycle, the first after the nested start,
    # each at most half the one before
    history = rep["residuals"]
    assert len(history) == rep["iterations"] and history[-1] == rep["residual"] <= rep["tol"]
    assert all(b <= 0.5 * a for a, b in zip(history, history[1:]))


def test_runtime_imports_no_scipy(tmp_path):
    # the README promises numpy as the only runtime dependency; scipy may be
    # installed in a test environment, so a stray import would go unnoticed.
    # fractions, decimal and numpy.ma cost import time and memory that no
    # part of a lift needs
    cfg = _write(tmp_path / "l.json", {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 9, "ny": 9, "boundary": "X^2-Y^2"})
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ma_lin, ma_lin.cli; "
         f"assert ma_lin.cli.main(['lift', '--in', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]) == 0; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('scipy', 'fractions', 'decimal') "
         "or m.split('.')[:2] == ['numpy', 'ma']))"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _loaded_in_a_fresh_interpreter(code: str) -> str:
    """Which of the modules that load on first use, the multigrid and the
    elasticity module, are loaded after `import ma_lin, ma_lin.cli` and code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, ma_lin, ma_lin.cli; {code}; "
         "print(sorted(m for m in ('ma_lin.multigrid', 'ma_lin.elasticity') if m in sys.modules))"],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _lift_argv(tmp_path, catalog_id, out):
    cfg = _write(tmp_path / f"{catalog_id}.json", {
        "id": catalog_id, "domain": [0.5, 1.5, 0.5, 1.5], "nx": 33, "ny": 33,
        "boundary": "X^2-Y^2", "target_nx": 9, "target_ny": 9})
    return ["lift", "--in", cfg, "--out", str(tmp_path / out)]


@pytest.mark.parametrize("catalog_id", ["plane-strain-class", "grad-inversion"])
def test_a_one_variable_lift_loads_neither_the_multigrid_nor_elasticity(tmp_path, catalog_id):
    # f = 1 and f = (1+Y^2)^2: the Fourier start meets the bound, so no
    # hierarchy is built
    argv = _lift_argv(tmp_path, catalog_id, "o")
    assert _loaded_in_a_fresh_interpreter(f"assert ma_lin.cli.main({argv!r}) == 0") == "[]"
    assert _read_json(tmp_path / "o" / "solve_report.json")["start"] == "fourier"


def test_the_elasticity_names_and_command_load_elasticity(tmp_path):
    loaded = "['ma_lin.elasticity']"
    assert _loaded_in_a_fresh_interpreter("ma_lin.PlaneDeformation") == loaded
    argv = [*_every_command(tmp_path)[3], "--out", str(tmp_path / "o")]
    assert _loaded_in_a_fresh_interpreter(f"assert ma_lin.cli.main({argv!r}) == 0") == loaded


def test_a_two_variable_lift_loads_the_multigrid_with_the_same_results(tmp_path):
    # general-Au's X*(1+Y^2)^2 takes the nested start: the multigrid loads in
    # the run and gives what the same lift in this process gives, in the 6
    # V-cycles on two levels that the solver took before it was a module
    fresh = _lift_argv(tmp_path, "general-Au", "fresh")
    assert _loaded_in_a_fresh_interpreter(
        f"assert ma_lin.cli.main({fresh!r}) == 0") == "['ma_lin.multigrid']"
    assert main(_lift_argv(tmp_path, "general-Au", "here")) == 0
    for name in ("lifted.csv", "resampled.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    reports = [_read_json(tmp_path / side / "solve_report.json") for side in ("fresh", "here")]
    for key in ("start", "iterations", "residuals", "levels"):
        assert reports[0][key] == reports[1][key], key
    assert reports[0]["start"] == "nested" and reports[0]["iterations"] == 6
    assert reports[0]["levels"] == [[33, 33], [17, 17]]


def test_importing_the_cli_loads_no_dataclasses():
    # nodes and results are value classes that generate no code when defined;
    # numpy and the standard modules the CLI imports do not load dataclasses
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ma_lin.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_fresh_import_frees_the_previous_one():
    # nothing outside the package, such as typing's cache of Union types,
    # may keep an earlier import's modules alive once they leave sys.modules
    code = ("import gc, sys, weakref, ma_lin; "
            "ref = weakref.ref(ma_lin.expressions.parse); "
            "[sys.modules.pop(m) for m in list(sys.modules) "
            "if m == 'ma_lin' or m.startswith('ma_lin.')]; "
            "del ma_lin; import ma_lin; gc.collect(); "
            "print(ref() is None, ma_lin.expressions.parse is not None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_manifest_records_input_hash(tmp_path):
    eq = _write(tmp_path / "eq.json", {"id": "g", "F": "(p^2+q^2)^2", "note": ""})
    out = tmp_path / "o"
    assert main(["classify", "--in", eq, "--out", str(out)]) == 0
    man = _read_json(out / "manifest.json")
    assert len(man["inputs"][eq]) == 64  # sha256 hex digest


# an input file of each subcommand that reads one
_INPUT_FILES = {
    "classify": {"id": "g", "F": "(p^2+q^2)^2", "note": ""},
    "solve": _solve_config(),
    "lift": {**_lift_config(), "boundary": "X^2-Y^2", "nx": 9, "ny": 9},
    "elasticity": {"kind": "from-U", "potential": "X^2+Y^2", "domain": [-1, 1, -1, 1], "n": 5},
    "khabirov": {"g": "1+s^2"},
}


@pytest.mark.parametrize("command", list(_INPUT_FILES))
def test_the_manifest_hashes_the_input_bytes_that_were_parsed(tmp_path, monkeypatch, command):
    # the file is replaced as soon as it is parsed: a second read would hash
    # bytes that the run never used
    path = tmp_path / "in.json"
    parsed = json.dumps(_INPUT_FILES[command]).encode()
    path.write_bytes(parsed)
    loads = json.loads

    def loads_then_replace(*args, **kwargs):
        data = loads(*args, **kwargs)
        path.write_bytes(parsed + b"\n")
        return data

    monkeypatch.setattr(json, "loads", loads_then_replace)
    assert main([command, "--in", str(path), "--out", str(tmp_path / "o")]) == 0
    monkeypatch.undo()
    assert path.read_bytes() != parsed
    assert _read_json(tmp_path / "o" / "manifest.json")["inputs"] == {
        str(path): hashlib.sha256(parsed).hexdigest()}


def _every_command(tmp_path):
    """A succeeding argv of each subcommand, without --out."""
    lift = {**_lift_config(), "boundary": "X^2-Y^2", "nx": 9, "ny": 9}
    return [["classify", "--id", "grad-inversion"],
            ["solve", "--in", _write(tmp_path / "p.json", _solve_config())],
            ["lift", "--in", _write(tmp_path / "l.json", lift)],
            ["elasticity", "--in", _write(tmp_path / "d.json", {"kind": "from-U",
                                                                "potential": "X^2+Y^2"}),
             "--domain=-1,1,-1,1", "--n", "5"],
            ["khabirov", "--g", "1+s^2"]]


def test_manifest_records_the_software_versions(tmp_path):
    # every command's manifest; the CSV bytes are not affected by them
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    for k, argv in enumerate(_every_command(tmp_path)):
        out = tmp_path / f"o{k}"
        assert main([*argv, "--out", str(out)]) == 0, argv
        assert _read_json(out / "manifest.json")["versions"] == versions, argv


def test_a_lift_manifest_times_its_stages_and_its_writes(tmp_path):
    data = _with(_lift_config, boundary="X^2-Y^2")
    out = tmp_path / "o"
    assert main(["lift", "--in", _write(tmp_path / "l.json", data), "--out", str(out)]) == 0
    man = _read_json(out / "manifest.json")
    stages = ["classify", "coefficient", "solve", "lift", "resample", "verify"]
    assert sorted(man["timings"]) == sorted(stages + list(man["artifacts"]))
    assert len(man["artifacts"]) == 4
    assert all(0.0 <= t < 60.0 for t in man["timings"].values()), man["timings"]


def test_a_solve_manifest_times_its_two_writes(tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--in", _write(tmp_path / "p.json", _solve_config()),
                 "--out", str(out)]) == 0
    man = _read_json(out / "manifest.json")
    assert sorted(man["timings"]) == sorted(man["artifacts"]) == ["solution.csv",
                                                                  "solve_report.json"]
    assert all(0.0 <= t < 60.0 for t in man["timings"].values()), man["timings"]


def test_a_failed_lift_manifest_times_the_stages_that_completed(tmp_path):
    # the far target of test_lift_with_no_resampled_value_exits_2: resample
    # fails after four stages completed, and the manifest times those four
    far = {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5], "nx": 17, "ny": 17,
           "boundary": "X^2-Y^2",
           "target": {"nx": 5, "ny": 5, "x0": 100.0, "y0": 100.0, "dx": 1.0, "dy": 1.0}}
    out = tmp_path / "far"
    assert main(["lift", "--in", _write(tmp_path / "far.json", far), "--out", str(out)]) == 2
    man = _read_json(out / "manifest.json")
    assert (man["error"]["stage"], man["artifacts"]) == ("resample", {})
    assert sorted(man["timings"]) == ["classify", "coefficient", "lift", "solve"]
    assert all(0.0 <= t < 60.0 for t in man["timings"].values()), man["timings"]
    # a lift whose first stage, classify, fails (exit 2) and a usage error
    # of the classify command (exit 1) complete no stage
    for k, argv in enumerate((
            ["lift", "--in", _write(tmp_path / "axisym.json", {
                "id": "axisym", "domain": [0.5, 1.5, 0.5, 1.5], "boundary": "X^2-Y^2"})],
            ["classify", "--in", _write(tmp_path / "bad.json", {"id": "t",
                                                                "F": "sqrt(-1-p^2)"})])):
        out = tmp_path / f"o{k}"
        assert main([*argv, "--out", str(out)]) == 2 - k
        man = _read_json(out / "manifest.json")
        assert (man["error"]["stage"], man["timings"]) == ("classify", {})


def test_every_command_hashes_the_bytes_it_wrote(tmp_path):
    # the digests are taken while writing, not by reading the files back
    artifacts = [["classification.json"], ["solution.csv", "solve_report.json"],
                 ["lifted.csv", "resampled.csv", "solve_report.json", "verification.json"],
                 ["deformed.csv", "incompressibility.json"], ["khabirov.json"]]
    for k, (argv, names) in enumerate(zip(_every_command(tmp_path), artifacts)):
        out = tmp_path / f"o{k}"
        assert main([*argv, "--out", str(out)]) == 0, argv
        man = _read_json(out / "manifest.json")
        assert sorted(man["artifacts"]) == names and "error" not in man, argv
        assert _listed_hashes_match(out, man), argv
