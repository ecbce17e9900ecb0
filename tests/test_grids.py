import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import measured_order, stencil_jet
from ma_lin.expressions import Const, Var, diff, evaluate, parse
from ma_lin.grids import (Grid2, GridError, GridFormatError, GridGeometry,
                          Jet2, MaskedGrid2, geometry_from_domain,
                          interior_jets, jet_exprs, read_grid, sample,
                          symbolic_jet, write_grid)


def _unit_geom(n=3):
    return GridGeometry(n, n, 0.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# types

def test_jet_requires_finite_entries():
    with pytest.raises(ValueError):
        Jet2(1.0, math.inf, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Jet2(1.0, 0.0, math.nan, 0.0, 0.0, 0.0)


def test_grid_shape_and_inf_checks():
    with pytest.raises(GridError):
        Grid2(_unit_geom(), np.zeros((2, 3)))
    with pytest.raises(GridError):
        Grid2(_unit_geom(), np.full((3, 3), np.inf))
    g = Grid2(_unit_geom(), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0  # read-only storage


def test_masked_grid_excludes_masked_cells():
    vals = np.arange(9.0).reshape(3, 3)
    mask = np.ones((3, 3), dtype=bool)
    mask[2, 2] = False  # drops the value 8
    mg = MaskedGrid2(Grid2(_unit_geom(), vals), mask)
    assert mg.max_abs() == 7.0
    assert np.isnan(mg.grid.values[2, 2])
    assert mg.n_valid == 8


# ---------------------------------------------------------------------------
# sampling

def test_sample_bilinear_rows():
    g = sample(parse("X*Y"), ("X", "Y"), _unit_geom())
    assert np.array_equal(g.values, np.array([[0, 0, 0], [0, 1, 2], [0, 2, 4.0]]))


def test_sample_point_values():
    g = sample(parse("X^2-Y^2"), ("X", "Y"), _unit_geom())
    assert g.value(1, 1) == 0.0
    g2 = sample(parse("X^2 - Y*arctan(Y)"), ("X", "Y"), _unit_geom())
    assert abs(g2.value(1, 1) - (1.0 - math.pi / 4)) <= 1e-15


def test_sample_domain_error_carries_indices():
    geom = GridGeometry(3, 3, -1.0, 0.0, 1.0, 1.0)
    with pytest.raises(GridError) as exc:
        sample(parse("sqrt(X)"), ("X", "Y"), geom)
    assert "i=0" in str(exc.value)
    # the first failing cell in row-major order, for a node that depends on Y only
    with pytest.raises(GridError) as exc:
        sample(parse("X + ln(Y-1)"), ("X", "Y"), geom)
    assert "(i=0, j=0)" in str(exc.value)
    with pytest.raises(GridError) as exc:
        sample(parse("1/(X*Y-2)"), ("X", "Y"), geom)
    assert "(i=2, j=2)" in str(exc.value) and "division by zero" in str(exc.value)


def test_sample_broadcasts_a_constant_to_the_full_grid():
    geom = GridGeometry(4, 3, 0.0, 0.0, 1.0, 1.0)
    for text, want in (("1", 1.0), ("2*3-sqrt(4)", 4.0)):
        g = sample(parse(text), ("X", "Y"), geom)
        assert g.values.shape == (3, 4)
        assert np.all(g.values == want)


# ---------------------------------------------------------------------------
# finite differences

def _jet_at(jets, i, j):
    """The interior_jets entry of node (i, j)."""
    return {k: getattr(jets, k)[j - 1, i - 1]
            for k in ("u", "ux", "uy", "uxx", "uxy", "uyy", "valid")}


def test_fd_jet_exact_on_bilinear():
    geom = geometry_from_domain(0, 2, 0, 2, 5, 5)
    g = sample(parse("X*Y"), ("X", "Y"), geom)
    jets = interior_jets(g)
    assert jets.valid.all()
    Xg, Yg = np.meshgrid(g.xs()[1:-1], g.ys()[1:-1])
    assert np.max(np.abs(jets.ux - Yg)) <= 1e-12
    assert np.max(np.abs(jets.uy - Xg)) <= 1e-12
    assert np.max(np.abs(jets.uxy - 1.0)) <= 1e-12
    assert np.max(np.abs(jets.uxx)) <= 1e-12 and np.max(np.abs(jets.uyy)) <= 1e-12


def test_fd_jet_exact_on_quadratic():
    geom = geometry_from_domain(-1, 1, -1, 1, 9, 9)
    g = sample(parse("X^2-Y^2"), ("X", "Y"), geom)
    jet = _jet_at(interior_jets(g), 4, 4)
    assert abs(jet["uxx"] - 2.0) <= 1e-12
    assert abs(jet["uyy"] + 2.0) <= 1e-12


def test_fd_jet_exact_on_all_degree2_polynomials():
    geom = geometry_from_domain(0.3, 1.3, -0.2, 0.8, 6, 6)
    Xg, Yg = np.meshgrid(geom.xs()[1:-1], geom.ys()[1:-1])
    for text in ("1", "X", "Y", "X^2", "Y^2", "X*Y", "3-X+2*Y+X^2-X*Y+0.5*Y^2"):
        g = sample(parse(text), ("X", "Y"), geom)
        jets = interior_jets(g)
        exact = jet_exprs(parse(text), ("X", "Y"))
        for name, e in zip(("u", "ux", "uy", "uxx", "uxy", "uyy"), exact):
            want = evaluate(e, {"X": Xg, "Y": Yg})
            assert np.max(np.abs(getattr(jets, name) - want)) <= 1e-12, (text, name)


def test_symbolic_jet_keeps_the_sign_of_zero_constants():
    # X^0.0 and X^-0.0 are equal dataclasses with equal hashes, but the first
    # derivative of one is +0.0 and of the other -0.0; reused derivative trees
    # must not carry one tree's signs over to the other
    X = Var("X")
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        a, b = X ** Const(first), X ** Const(second)
        assert a == b and a is not b
        symbolic_jet(a, ("X", "Y"), 1.0, 2.0)
        got = symbolic_jet(b, ("X", "Y"), 1.0, 2.0)
        bx, by = diff(b, "X"), diff(b, "Y")
        trees = (b, bx, by, diff(bx, "X"), diff(bx, "Y"), diff(by, "Y"))
        want = [evaluate(t, {"X": 1.0, "Y": 2.0}) for t in trees]
        got = [got.u, got.ux, got.uy, got.uxx, got.uxy, got.uyy]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, second)


def test_jet_exprs_returns_the_callers_tree():
    a, b = parse("X^2*Y + sin(Y)"), parse("X^2*Y + sin(Y)")
    assert a == b and a is not b
    assert jet_exprs(a, ("X", "Y"))[0] is a
    jb = jet_exprs(b, ("X", "Y"))
    assert jb[0] is b
    assert jb[1:] == jet_exprs(a, ("X", "Y"))[1:]


def test_fd_jet_truncation_sin():
    geom = GridGeometry(201, 3, 0.0, 0.0, 0.01, 0.01)
    g = sample(parse("sin(X)"), ("X", "Y"), geom)
    jet = _jet_at(interior_jets(g), 50, 1)  # X = 0.5
    assert abs(jet["uxx"] + math.sin(0.5)) <= 1e-4


def test_fd_jet_convergence_order():
    e = parse("sin(X)*cosh(Y) + X^3*Y^2")
    errs = []
    for n in (33, 65):
        geom = geometry_from_domain(0, 1, 0, 1, n, n)
        jets = interior_jets(sample(e, ("X", "Y"), geom))
        Xg, Yg = np.meshgrid(geom.xs()[1:-1], geom.ys()[1:-1])
        _, *exact = jet_exprs(e, ("X", "Y"))
        errs.append({k: float(np.max(np.abs(getattr(jets, k) - evaluate(t, {"X": Xg, "Y": Yg}))))
                     for k, t in zip(("ux", "uy", "uxx", "uxy", "uyy"), exact)})
    for k in errs[0]:
        assert measured_order(errs[0][k], errs[1][k]) >= 1.9, k


def test_fd_jet_rejects_boundary_and_masked():
    geom = _unit_geom(4)
    vals = np.ones((4, 4))
    # boundary nodes carry no jet, and a grid under 3x3 has no interior
    assert interior_jets(Grid2(geom, vals)).u.shape == (2, 2)
    for shape in ((2, 4), (4, 2)):
        with pytest.raises(GridError):
            interior_jets(Grid2(GridGeometry(shape[1], shape[0], 0.0, 0.0, 1.0, 1.0),
                                np.ones(shape)))
    vals2 = vals.copy()
    vals2[0, 0] = np.nan
    jets = interior_jets(Grid2(geom, vals2))
    assert not _jet_at(jets, 1, 1)["valid"]
    # masking is contagious only within the 3x3 neighborhood
    assert _jet_at(jets, 2, 2)["valid"]
    assert jets.valid.sum() == 3


def test_interior_jets_match_fd_jet_bitwise():
    geom = geometry_from_domain(0, 1, 0, 2, 7, 6)
    g = sample(parse("sin(X)*cosh(Y)+X^2*Y"), ("X", "Y"), geom)
    jets = interior_jets(g)
    for i in range(1, g.nx - 1):
        for j in range(1, g.ny - 1):
            ref = stencil_jet(g.values, i, j, g.dx, g.dy)
            for k in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
                assert getattr(jets, k)[j - 1, i - 1] == ref[k]


# ---------------------------------------------------------------------------
# CSV I/O

def test_write_read_round_trip(tmp_path):
    geom = GridGeometry(4, 3, -0.1, 2.25, 0.1, 0.7)
    vals = np.array([[1.0, math.pi, -1e-17, 3.0],
                     [0.1 + 0.2, np.nan, 2.0 ** -40, -5.5],
                     [1e16, -2.0, 4.0 / 3.0, 0.0]])
    g = Grid2(geom, vals)
    path = tmp_path / "g.csv"
    write_grid(g, path)
    g2 = read_grid(path)
    assert g2.geom == g.geom
    assert np.array_equal(g.values, g2.values, equal_nan=True)


def test_read_header_example(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("# nx=3,ny=2,x0=0,y0=0,dx=1,dy=1\n1,2,3\n4,5,nan\n")
    g = read_grid(path)
    assert (g.nx, g.ny) == (3, 2)
    assert g.value(2, 0) == 3.0
    assert g.is_masked(2, 1)


def test_read_row_length_mismatch_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# nx=3,ny=2,x0=0,y0=0,dx=1,dy=1\n1,2,3\n4,5\n")
    with pytest.raises(GridFormatError) as exc:
        read_grid(path)
    assert "line 3" in str(exc.value)


def test_read_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nx=3,ny=2\n1,2,3\n")
    with pytest.raises(GridFormatError) as exc:
        read_grid(path)
    assert "line 1" in str(exc.value)


def test_read_non_numeric_token(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# nx=2,ny=1,x0=0,y0=0,dx=1,dy=1\n1,zap\n")
    with pytest.raises(GridFormatError) as exc:
        read_grid(path)
    assert "zap" in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 6), ny=st.integers(1, 6),
    data=st.data(),
)
def test_round_trip_random_grids(tmp_path_factory, nx, ny, data):
    vals = data.draw(hnp.arrays(
        np.float64, (ny, nx),
        elements=st.one_of(
            st.floats(min_value=-1e12, max_value=1e12,
                      allow_nan=False, allow_infinity=False),
            st.just(np.nan))))
    g = Grid2(GridGeometry(nx, ny, -1.0, 0.5, 0.25, 2.0), vals)
    path = tmp_path_factory.mktemp("grids") / "g.csv"
    write_grid(g, path)
    g2 = read_grid(path)
    assert np.array_equal(g.values, g2.values, equal_nan=True)
