import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import measured_order, percent_g_rows, reference_evaluate, same_bits, stencil_jet
import ma_lin.grids as grids
from ma_lin.expressions import Const, Var, compile_trees, diff, evaluate, parse
from ma_lin.grids import (Grid2, GridError, GridFormatError, GridGeometry,
                          MaskedGrid2, _format_rows, geometry_from_domain,
                          interior_jets, jet_exprs, read_grid, sample,
                          symbolic_jet, write_grid, write_table)


def _unit_geom(n=3):
    return GridGeometry(n, n, 0.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# types

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
    assert np.max(np.abs(mg.grid.values[mg.mask])) == 7.0
    assert np.isnan(mg.grid.values[2, 2])
    assert mg.n_valid == 8


# ---------------------------------------------------------------------------
# sampling

def test_sample_bilinear_rows():
    g = sample(parse("X*Y"), ("X", "Y"), _unit_geom())
    assert np.array_equal(g.values, np.array([[0, 0, 0], [0, 1, 2], [0, 2, 4.0]]))


def test_sample_point_values():
    g = sample(parse("X^2-Y^2"), ("X", "Y"), _unit_geom())
    assert g.values[1, 1] == 0.0
    g2 = sample(parse("X^2 - Y*arctan(Y)"), ("X", "Y"), _unit_geom())
    assert abs(g2.values[1, 1] - (1.0 - math.pi / 4)) <= 1e-15


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


def test_symbolic_jet_compiles_once_per_tree_and_names(monkeypatch):
    calls = []

    def counting(trees):
        calls.append(trees)
        return compile_trees(trees)

    monkeypatch.setattr(grids, "compile_trees", counting)
    text = "1.1*(X^2-Y*arctan(Y))"
    e = parse(text)
    first = symbolic_jet(e, ("X", "Y"), 1.1, 0.7)
    for x in (1.1, 1.2, np.linspace(0.5, 1.5, 4)):
        symbolic_jet(e, ("X", "Y"), x, 0.7)
        assert jet_exprs(e, ("X", "Y"))[0] is e
    assert len(calls) == 1 and len(calls[0]) == 6
    assert symbolic_jet(e, ("X", "Y"), 1.1, 0.7) == first
    # another pair of names compiles once more
    for _ in range(2):
        symbolic_jet(e, ("Y", "X"), 0.7, 1.1)
        jet_exprs(e, ("Y", "X"))
    assert len(calls) == 2
    # an equal tree parsed again gets its own compile
    again = parse(text)
    assert again == e and again is not e
    assert symbolic_jet(again, ("X", "Y"), 1.1, 0.7) == first
    assert len(calls) == 3


def test_symbolic_jet_of_a_point_gives_floats_and_a_numpy_bool():
    e = parse("X^2*Y + ln(Y)")
    for x, y in ((1.5, 2.0), (np.float64(1.5), np.float64(2.0)), (np.array(1.5), 2.0)):
        jet = symbolic_jet(e, ("X", "Y"), x, y)
        assert {type(a) for a in jet.entries()} == {float}
        assert type(jet.valid) is np.bool_ and jet.valid
    jet = symbolic_jet(parse("exp(X)"), ("X", "Y"), math.nan, 1.0)
    assert type(jet.valid) is np.bool_ and not jet.valid


@pytest.mark.parametrize("text,arrays", [("0.9*(X^2-Y^2)", 10), ("1.1*(X^2-Y*arctan(Y))", 13)])
def test_symbolic_jet_holds_few_mesh_sized_arrays(text, arrays):
    # `arrays` is the peak of the recursive tree walk, which held at most the
    # intermediates of one tree at a time; shared subtrees that live across
    # the six trees may cost a quarter more, not one array per step
    X, Y = np.meshgrid(np.linspace(0.5, 1.5, 257), np.linspace(0.5, 1.5, 257))
    e = parse(text)
    want = [reference_evaluate(t, {"X": X, "Y": Y}) for t in jet_exprs(e, ("X", "Y"))]
    grids._jet_entry(e, ("X", "Y"))  # differentiate and compile outside the window
    for _ in range(3):
        tracemalloc.start()
        try:
            jet = symbolic_jet(e, ("X", "Y"), X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert jet.valid.all()
        assert peak <= 1.25 * arrays * X.nbytes
        assert all(map(same_bits, jet.entries(), want))


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
    assert g.values[0, 2] == 3.0
    assert np.isnan(g.values[1, 2])


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


@pytest.mark.parametrize("text, line, value", [
    ("# nx=3,ny=2,x0=0,y0=0,dx=1,dy=1\n\n1,2,3\n\n4,5\n", 5, "found 2"),
    ("# nx=2,ny=2,x0=0,y0=0,dx=1,dy=1\n1,2\n\n3,zap\n", 4, "'zap'"),
    ("# nx=2,ny=1,x0=0,y0=0,dx=1,dy=1\n1,inf\n", 2, "'inf'"),
    ("# nx=2,ny=2,x0=0,y0=0,dx=1,dy=1\n1,2\n", 1, "1 data rows"),
    # the first bad row or value in file order names the error
    ("# nx=2,ny=3,x0=0,y0=0,dx=1,dy=1\n1,2\n-inf,3\n4,zap\n", 3, "value 1 is not finite: '-inf'"),
    ("# nx=2,ny=3,x0=0,y0=0,dx=1,dy=1\n1,zap\n3\n4,5\n", 2, "value 2 is not a number: 'zap'"),
    ("# nx=2,ny=3,x0=0,y0=0,dx=1,dy=1\n1,2\n3\n4,zap\n", 3, "expected 2 values, found 1"),
    ("# nx=2,ny=3,x0=0,y0=0,dx=1,dy=1\n1,2\n3,4\n5, inf \n", 4, "value 2 is not finite: 'inf'"),
], ids=["ragged", "token", "inf", "rows", "inf-first", "token-first", "ragged-first",
        "last-inf"])
def test_read_grid_names_the_true_line_and_the_value(tmp_path, text, line, value):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(GridFormatError, match=rf"^line {line}: .*{value}"):
        read_grid(path)


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


# ---------------------------------------------------------------------------
# the %.17g row formatter

def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]),
    st.integers(0, 2 ** 64 - 1).map(_from_bits))


@settings(max_examples=300, deadline=None)
@given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                       elements=_ANY_FLOAT))
def test_format_rows_equals_percent_g(rows):
    assert _format_rows(rows)[0] == percent_g_rows(rows)


def test_format_rows_equals_percent_g_on_random_values():
    rng = np.random.default_rng(1601)
    n = 500_000
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    magnitudes = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 25, n)
    fallbacks = {}
    for name, values in (("bits", bits), ("magnitudes", magnitudes)):
        rows = values.reshape(-1, 10)
        fallbacks[name] = 0
        for first in range(0, len(rows), 4096):
            text, slow = _format_rows(rows[first:first + 4096])
            assert text == percent_g_rows(rows[first:first + 4096])
            fallbacks[name] += slow
    # in the fast range only products within 1e-6 of an inexact tie fall back
    assert fallbacks["magnitudes"] < 20


def test_format_rows_next_to_powers_of_ten():
    # log10 misses floor(log10 |v|) next to powers of ten; the doubles 1e-14
    # and 1e98 lie below their powers of ten and round up to them, a carry
    powers = [float(f"1e{e}") for e in range(-5, 23)]
    values = [w for p in powers for w in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))]
    values += [99999999999999999.0, 9.99999999999999999e-5, 2.0 ** -60, 12345 / 2 ** 29,
               1e-14, 1e98]
    rows = np.array(values + [-w for w in values]).reshape(-1, 2)
    text, fallbacks = _format_rows(rows)
    assert text == percent_g_rows(rows)
    assert fallbacks == 0


def test_format_rows_rounds_exact_ties_half_to_even():
    # 18 significant digits ending in 5, exact in binary: the 17th digit
    # goes to the even neighbour, up as often as down
    values = np.array([1234567890123456.25, 1234567890123456.75, 2000000000000000.25,
                       999999999999999.875, 999999999999999.625, 562949953421312.125])
    rows = np.concatenate([values, -values]).reshape(-1, 3)
    text, fallbacks = _format_rows(rows)
    assert text == percent_g_rows(rows)
    assert text.split(b"\n")[0] == b"1234567890123456.2,1234567890123456.8,2000000000000000.2"
    assert fallbacks == 0


def test_format_rows_falls_back_to_python():
    # non-finite values, |v| outside the fast range, and 3 * 2**-24, whose
    # 18-digit expansion ends in 5 while 10**23 is not a double; NaN is
    # written as "nan" without Python
    rows = np.array([[np.inf, -np.inf, 5e-324, -1.7976931348623157e308],
                     [1e-300, 3 * 2.0 ** -24, np.nan, -np.nan]])
    text, fallbacks = _format_rows(rows)
    assert text == percent_g_rows(rows)
    assert fallbacks == 6


# In the fast range, values below and above 1 with 1 to 17 significant
# digits: the block-wide branches of the formatter take these, and each case
# below adds one value of another kind.  _FAST_BLOCK spans p = -1 ... 23, so
# it scales through the double-double powers of ten, and its 0.5**20 and 1e17
# take the exponent rows; every |v| of _EXACT_BLOCK lies in [1e-6, 1e17), so
# it scales by exact powers of ten, and none takes an exponent.
_FAST_BLOCK = [1.5, -0.25, 123456.789, -2.0 ** 0.5, 0.1, 1e16 + 2.0, 0.00012345, 7.0,
               -99999999999999999.0, 0.5 ** 20]
_EXACT_BLOCK = [1.5, -0.25, 123456.789, -2.0 ** 0.5, 0.1, 1e16 + 2.0, 7.0, 0.5 ** 5,
                -12345678901234567.0]


@pytest.mark.parametrize("extra,fallbacks", [
    ([], 0), ([0.0], 0), ([-0.0], 0), ([5e-324], 1), ([np.nan], 0), ([1e300], 1),
    ([-1.25e-7], 0), ([6.02214076e23], 0),
], ids=["fast-range", "zero", "negative-zero", "subnormal", "nan", "huge", "small-exponent",
        "large-exponent"])
def test_format_rows_fixed_blocks(extra, fallbacks):
    for block in (_FAST_BLOCK, _EXACT_BLOCK):
        for shape in ((1, -1), (-1, 1)):
            rows = np.array(block + extra).reshape(shape)
            assert _format_rows(rows) == (percent_g_rows(rows), fallbacks)


@pytest.mark.parametrize("values", [
    [0.5, -0.25, 0.001, 0.00012345, -0.999, 2.0 ** -13, 0.1 + 0.2],
    [1.0, -2.5, 123.0, 7.25, 1e16, -12345678901234567.0, 2.0 ** 52 + 0.5],
    [0.1], [-3.5], [0.0], [1e-5], [np.nan],
    [0.5, -12.25, 3.0], [0.05, -0.5, 12.25], [-0.005, 0.25, 12.25], [0.0005, 0.75, -12.25],
    [1.5, np.nan, -0.25],
    [1e-6, 2.5], [np.nextafter(1e-6, 0.0), 2.5], [9.999999999999999e16, 2.5], [1e17, 2.5],
], ids=["no-value-at-least-1", "no-value-below-1", "one-below-1", "one-above-1", "one-zero",
        "one-exponent", "one-nan", "lead-of-2", "lead-of-3", "lead-of-4", "lead-of-5",
        "nan-the-only-slow-value", "1e-6", "just-below-1e-6",
        "just-below-1e17", "1e17"])
def test_format_rows_blocks_that_skip_a_branch(values):
    rows = np.array([values])
    assert _format_rows(rows) == (percent_g_rows(rows), 0)


@pytest.mark.parametrize("block_values", [1, 11, 8192])
def test_write_table_bytes_and_digest_do_not_depend_on_the_block(tmp_path, monkeypatch,
                                                                 block_values):
    rng = np.random.default_rng(25)
    blocks = [rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-8, 20, (40, 3)),
              np.array([[np.nan, -0.0, 1e300], [5e-324, 0.0, -1.25e-7]])]
    monkeypatch.setattr(grids, "_BLOCK_VALUES", block_values)
    digest = write_table(tmp_path / "t.csv", "# t", blocks)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == b"# t\n" + b"".join(percent_g_rows(rows) for rows in blocks)
    assert digest == hashlib.sha256(data).hexdigest()


def test_write_grid_matches_percent_g(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((40, 300)) * 10.0 ** rng.integers(-8, 20, (40, 300))
    values[rng.random((40, 300)) < 0.3] = np.nan
    write_grid(Grid2(GridGeometry(300, 40, 0.0, 0.0, 1.0, 1.0), values), tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_bytes().split(b"\n", 1)[1] == percent_g_rows(values)
