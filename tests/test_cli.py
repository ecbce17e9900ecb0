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
    error = _read_json(out / "manifest.json")["error"]
    assert (error["stage"], error["exit_code"]) == ("solve", 2)
    assert "positive" in error["message"]


def test_solve_not_converged_exits_3_with_report(tmp_path):
    data = _solve_config()
    data["max_iter"] = 1
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
    cfg = _write(tmp_path / "p.json", {**_solve_config(), "max_iter": 1})
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
    cfg = _write(tmp_path / "l.json", {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 65, "ny": 65, "boundary": "X^2-Y^2",
                                        "target_nx": 9, "target_ny": 9})
    out = tmp_path / "o"
    assert main(["lift", "--in", cfg, "--out", str(out)]) == 0
    rep = _read_json(out / "solve_report.json")
    # 65 -> 33 -> 17 nodes per axis; the 15x15 interior of the last is solved exactly
    assert rep["levels"] == [[65, 65], [33, 33], [17, 17]]
    assert rep["direct_unknowns"] == 225


def test_solve_reports_record_the_hierarchy_build_time(tmp_path):
    cfg = _write(tmp_path / "l.json", {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
                                        "nx": 33, "ny": 33, "boundary": "X^2-Y^2",
                                        "target_nx": 9, "target_ny": 9})
    runs = [["lift", "--in", cfg], ["solve", "--in", _write(tmp_path / "p.json", _solve_config())]]
    for k, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / f"o{k}")]) == 0
        rep = _read_json(tmp_path / f"o{k}" / "solve_report.json")
        assert 0.0 < rep["setup_seconds"] < rep["elapsed"], argv


def test_lift_solve_report_records_the_residual_history(tmp_path):
    cfg = _write(tmp_path / "l.json", {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
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


def test_manifest_records_the_software_versions(tmp_path):
    # every command's manifest; the CSV bytes are not affected by them
    lift = {**_lift_config(), "boundary": "X^2-Y^2", "nx": 9, "ny": 9}
    runs = [["classify", "--id", "grad-inversion"],
            ["solve", "--in", _write(tmp_path / "p.json", _solve_config())],
            ["lift", "--in", _write(tmp_path / "l.json", lift)],
            ["elasticity", "--in", _write(tmp_path / "d.json", {"kind": "from-U",
                                                                "potential": "X^2+Y^2"}),
             "--domain=-1,1,-1,1", "--n", "5"],
            ["khabirov", "--g", "1+s^2"]]
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    for k, argv in enumerate(runs):
        out = tmp_path / f"o{k}"
        assert main([*argv, "--out", str(out)]) == 0, argv
        assert _read_json(out / "manifest.json")["versions"] == versions, argv
