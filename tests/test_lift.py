import math
import time
import tracemalloc

import numpy as np
import pytest

from helpers import first_hit_resample, invert_bilinear, measured_order, percent_g_rows
from ma_lin import lift
from ma_lin.equations import catalog_get
from ma_lin.expressions import parse, evaluate
from ma_lin.grids import (Grid2, GridFormatError, GridGeometry, _format_rows,
                          geometry_from_domain, sample, write_grid)
from ma_lin.lift import (EmptyLiftError, LiftError, LiftedSurface, PipelineConfig,
                         PipelineError, _invert_bilinear, lift_parametric,
                         pipeline, read_lifted, resample, verify_lift,
                         write_lifted)
from ma_lin.linsolve import problem_from_exprs, solve_dirichlet


# ---------------------------------------------------------------------------
# parametric lift

def test_lift_saddle_closed_form():
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 5)
    assert s.valid.all() and s.n_valid == 25
    j = int(np.where(np.isclose(s.Y[:, 0], 1.0))[0][0])
    i = int(np.where(np.isclose(s.X[0, :], 1.0))[0][0])
    assert (s.x[j, i], s.y[j, i], s.u[j, i]) == (-2.0, 2.0, 1.0)
    assert s.source_kind == "symbolic"


def test_lift_arctan_nowhere_degenerate():
    s = lift_parametric(parse("X^2 - Y*arctan(Y)"), (0.5, 1.5, 0.5, 1.5), 9)
    assert s.valid.all()


def test_lift_degenerate_everywhere_is_an_error():
    with pytest.raises(EmptyLiftError):
        lift_parametric(parse("X*Y"), (0.5, 1.5, 0.5, 1.5), 5)


def test_lift_jacobian_consistency():
    s = lift_parametric(parse("X^2 - Y*arctan(Y)"), (0.5, 1.5, 0.5, 1.5), 7)
    # stored jacobian is exactly -U_X * U_YY of the source jet
    UX = 2 * s.X
    UYY = -2.0 / (1 + s.Y ** 2) ** 2
    assert np.max(np.abs(s.jac - (-(UX * UYY)))) <= 1e-13


def test_mask_monotonicity_under_refinement():
    # U = X^2 + Y^3/3 folds along Y = 0; any node whose true jacobian is at or
    # below the threshold must stay masked at every resolution
    for n in (5, 9, 17, 33):
        s = lift_parametric(parse("X^2 + Y^3/3"), (0.5, 1.5, -0.5, 0.5), n)
        jac_true = -(2 * s.X) * (2 * s.Y)
        must_mask = np.abs(jac_true) <= 1e-8
        assert not (must_mask & s.valid).any()
        assert (~s.valid).sum() == must_mask.sum()  # and nothing else masked here


# ---------------------------------------------------------------------------
# verification

def test_verify_symbolic_saddle():
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 9)
    rep = verify_lift(s, catalog_get("plane-strain"))
    assert rep.max_abs_residual <= 1e-12
    assert rep.path == "symbolic"
    assert rep.samples == 81


def test_verify_symbolic_arctan_gradient_quartic():
    s = lift_parametric(parse("X^2 - Y*arctan(Y)"), (0.5, 1.5, 0.5, 1.5), 21)
    rep = verify_lift(s, catalog_get("grad-inversion"))
    assert rep.max_abs_residual <= 1e-9
    assert rep.mask_fraction == 0.0


def test_verify_grid_path_residual_is_solver_tail():
    # For fd jets of a discrete solution the pushed residual reduces
    # algebraically to the discrete linear residual, so it sits at the solver
    # tolerance rather than at the O(h^2) truncation scale.
    for n in (17, 33):
        geom = geometry_from_domain(0.5, 1.5, 0.5, 1.5, n, n)
        prob = problem_from_exprs(geom, parse("1"), None, parse("X^2-Y^2"))
        U, _ = solve_dirichlet(prob)
        s = lift_parametric(U)
        rep = verify_lift(s, catalog_get("plane-strain"))
        assert rep.path == "grid"
        assert rep.max_abs_residual <= 1e-9


# ---------------------------------------------------------------------------
# resampling

def test_resample_exact_node_hit():
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 33)
    tg = resample(s, GridGeometry(1, 1, -2.0, 2.0, 1.0, 1.0))
    assert tg.mask[0, 0]
    assert tg.grid.values[0, 0] == 1.0  # u = sqrt(2 - 1) at the image of (1, 1)


def test_resample_interior_point_against_closed_form():
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 33)
    tg = resample(s, GridGeometry(1, 1, -1.0, 1.5, 1.0, 1.0))
    assert tg.mask[0, 0]
    assert abs(tg.grid.values[0, 0] - math.sqrt(1.25)) <= 5e-4


def test_resample_outside_image_masked_not_failed():
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 9)
    tg = resample(s, GridGeometry(2, 2, 50.0, 50.0, 1.0, 1.0))
    assert not tg.mask.any()
    assert np.isnan(tg.grid.values).all()


def test_resample_convergence_against_closed_form():
    target = geometry_from_domain(-2.5, -1.5, 1.9, 2.7, 41, 41)
    errs = []
    for n in (17, 33):
        s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), n)
        tg = resample(s, target)
        xs, ys = np.meshgrid(tg.grid.xs(), tg.grid.ys())
        closed = np.sqrt(ys - xs ** 2 / 4)
        errs.append(np.max(np.abs(tg.grid.values - closed)[tg.mask]))
    assert measured_order(errs[0], errs[1]) >= 1.9


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _bilinear_cases(seed):
    """Cells of six kinds with targets inside, on an edge, on a corner and
    outside, as (kind, cx, cy, tx, ty) rows."""
    rng = np.random.default_rng(seed)
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # p00 p10 p01 p11
    cases = []
    for kind in ("ccw", "cw", "twisted", "zero-area", "parallelogram", "collapsed-edge"):
        for k in range(25):
            p = unit * rng.uniform(0.01, 3.0) + rng.uniform(-0.2, 0.2, (4, 2)) * 0.1
            p += rng.uniform(-5.0, 5.0, 2)
            if kind == "cw":
                p[:, 0] = -p[:, 0]
            elif kind == "twisted":
                p[[1, 3]] = p[[3, 1]]
            elif kind == "zero-area":
                q = rng.uniform(-1.0, 1.0, 4) if rng.random() < 0.5 else np.zeros(4)
                p = p[0] + np.outer(q, rng.uniform(-1.0, 1.0, 2))
            elif kind == "parallelogram":  # dyadic corners, so c3 = 0 exactly
                o, a, b = (rng.integers(-64, 65, 2) / 16 for _ in range(3))
                p = np.array([o, o + a, o + b, o + a + b])
            elif kind == "collapsed-edge":  # a triangle: p11 = p10, or p10 = p00
                p[(3, 1)[k % 2]] = p[(1, 0)[k % 2]]
            cx, cy = ((c[0], c[1] - c[0], c[2] - c[0], c[3] - c[1] - c[2] + c[0]) for c in p.T)
            s, t = rng.uniform(0.05, 0.95, 2)
            params = [(s, t), (s, 0.0), (1.0, t), (0.0, 0.0), (1.0, 1.0),
                      (1.0 + s, t), (s, -1.0 - t), (-3.0, 4.0)]
            targets = [(cx[0] + cx[1] * a + cx[2] * b + cx[3] * a * b,
                        cy[0] + cy[1] * a + cy[2] * b + cy[3] * a * b) for a, b in params]
            targets += [tuple(c) for c in p]  # the corner nodes themselves
            cases += [(kind, cx, cy, tx, ty) for tx, ty in targets]
    return cases


def test_closed_form_inverse_matches_newton_roots_inside_the_cell():
    cases = _bilinear_cases(20261018)
    kind = np.array([c[0] for c in cases])
    cx, cy = (np.array([c[k] for c in cases]).T for k in (1, 2))
    tx, ty = (np.array([c[k] for c in cases]) for k in (3, 4))
    assert not (cx[3] != 0)[kind == "parallelogram"].any()
    assert not (cy[3] != 0)[kind == "parallelogram"].any()
    s, t = _invert_bilinear(cx, cy, tx, ty)
    hit = np.isfinite(s)
    assert np.array_equal(hit, np.isfinite(t))
    assert 0 < hit.sum() < hit.size  # both outcomes are exercised
    assert (s[hit] >= -1e-9).all() and (s[hit] <= 1.0 + 1e-9).all()
    assert (t[hit] >= -1e-9).all() and (t[hit] <= 1.0 + 1e-9).all()
    # the collapsed corner p10 = c0 + c1 of a triangle cell, where the map's
    # jacobian vanishes; with p10 = p00 the root t = 0 of every target gives
    # no s, so the hits there take the other root
    corner = ((kind == "collapsed-edge")
              & (np.hypot(tx - cx[0] - cx[1], ty - cy[0] - cy[1]) <= 1e-12))
    # on regular cells, and on triangles away from that corner, the hits are
    # exactly the Newton roots inside the square
    newton = [invert_bilinear(tuple(map(float, a)), tuple(map(float, b)), float(x), float(y))
              for a, b, x, y in zip(cx.T, cy.T, tx, ty)]
    inside = np.array([r is not None and all(-1e-9 <= v <= 1.0 + 1e-9 for v in r)
                       for r in newton])
    regular = np.isin(kind, ("ccw", "cw", "parallelogram")) | ((kind == "collapsed-edge") & ~corner)
    assert np.array_equal(hit[regular], inside[regular])
    # every root maps back to its target to rounding, away from that corner
    check = hit & ~corner
    eps = np.finfo(np.float64).eps
    for c, target in ((cx, tx), (cy, ty)):
        back = c[0] + c[1] * s + c[2] * t + c[3] * s * t
        assert (np.abs(back - target)[check] <= 4 * eps * np.abs(c).sum(axis=0)[check]).all()
    # a cell collapsed to a point has no unique preimage
    point = (cx[1:] == 0).all(axis=0) & (cy[1:] == 0).all(axis=0)
    assert point.any() and not hit[point].any()


def _resample_case(name):
    if name == "clockwise":
        return (lift_parametric(parse("X^2+Y^2"), (0.5, 1.5, 0.5, 1.5), 33),
                geometry_from_domain(1.3, 2.7, -0.9, 0.9, 21, 21))
    res = pipeline(name, PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, 33, 33),
                                        boundary=parse("X^2-Y^2")))
    return res.surface, res.resampled.grid.geom


@pytest.mark.parametrize("name", ["plane-strain-class", "grad-inversion", "clockwise"])
def test_resample_equals_brute_force_first_hit(name, monkeypatch):
    # on the solved saddle some targets lie on edges shared by two cells whose
    # bilinear interpolants differ in the last bits, so cell order fixes the bits
    surface, target = _resample_case(name)
    got = resample(surface, target)
    values, mask = first_hit_resample(surface, target)
    assert np.array_equal(got.mask, mask)
    assert 0 < mask.sum() < mask.size
    # the closed form and the reference's Newton iteration round differently
    assert np.isnan(got.grid.values[~mask]).all()
    assert np.max(np.abs(got.grid.values - values)[mask]) <= 1e-13 * np.max(np.abs(values[mask]))
    # a target hit in an earlier chunk of pairs keeps that hit
    monkeypatch.setattr(lift, "_PAIR_CHUNK", 97)
    small = resample(surface, target)
    assert np.array_equal(small.mask, mask)
    assert np.array_equal(_bits(small.grid.values), _bits(got.grid.values))
    # a target's value does not depend on the other targets
    xs, ys = target.xs(), target.ys()
    for j in (0, target.ny // 2, target.ny - 1):
        row = resample(surface, GridGeometry(target.nx, 1, target.x0, float(ys[j]),
                                             target.dx, target.dy))
        assert np.array_equal(_bits(row.grid.values[0]), _bits(got.grid.values[j]))
    for i in (0, target.nx // 3, target.nx - 1):
        col = resample(surface, GridGeometry(1, target.ny, float(xs[i]), target.y0,
                                             target.dx, target.dy))
        assert np.array_equal(_bits(col.grid.values[:, 0]), _bits(got.grid.values[:, i]))


def test_resample_257_target_over_257_mesh_within_budget():
    # a search that scans the cell boxes once per target takes 40-400 s here
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 257)
    x, y = s.x[s.valid], s.y[s.valid]
    target = geometry_from_domain(x.min(), x.max(), y.min(), y.max(), 257, 257)
    start = time.perf_counter()
    tg = resample(s, target)
    assert time.perf_counter() - start < 5.0
    xs, ys = np.meshgrid(tg.grid.xs(), tg.grid.ys())
    closed = np.sqrt(ys[tg.mask] - xs[tg.mask] ** 2 / 4)
    assert tg.n_valid > 30000
    assert np.max(np.abs(tg.grid.values[tg.mask] - closed)) <= 1e-5


def test_resample_memory_does_not_grow_with_the_pairs():
    # 131,200 (cell, target) pairs; holding every pair's inversion state at
    # once took about 50 MB more
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 257)
    x, y = s.x[s.valid], s.y[s.valid]
    target = geometry_from_domain(x.min(), x.max(), y.min(), y.max(), 257, 257)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tg = resample(s, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tg.n_valid > 30000
    assert peak - base < 10e6


def test_resample_hit_mask_is_scale_invariant():
    # scaling U by lam scales the image and its cells by lam: an absolute
    # tolerance in the inversion would change the hits at one end
    masks = []
    for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        s = lift_parametric(parse(f"{lam!r}*(X^2-Y*arctan(Y))"), (0.5, 1.5, 0.5, 1.5), 65, eps=0)
        x, y = s.x[s.valid], s.y[s.valid]
        masks.append(resample(s, geometry_from_domain(x.min(), x.max(), y.min(), y.max(),
                                                      129, 129)).mask)
    assert 0 < masks[0].sum() < masks[0].size
    assert all(np.array_equal(m, masks[0]) for m in masks[1:])


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_unit_class_closed_form_oracle():
    cfg = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, 33, 33),
                         boundary=parse("X^2-Y^2"),
                         target=geometry_from_domain(-2.5, -1.5, 1.9, 2.7, 21, 21))
    res = pipeline("plane-strain-class", cfg)
    assert res.equation.id == "plane-strain-class"
    tg = res.resampled
    xs, ys = np.meshgrid(tg.grid.xs(), tg.grid.ys())
    err = np.abs(tg.grid.values - np.sqrt(ys - xs ** 2 / 4))[tg.mask]
    assert tg.mask.all()
    assert err.max() <= 1e-3
    assert res.verification.max_abs_residual <= 1e-9


def test_pipeline_gradient_quartic_mms_boundary():
    cfg = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, 33, 33),
                         boundary=parse("X^2 - Y*arctan(Y)"), target=(9, 9))
    res = pipeline(parse("(1+s^2)^2"), cfg)
    geom = res.solution.geom
    exact = sample(parse("X^2 - Y*arctan(Y)"), ("X", "Y"), geom)
    assert np.max(np.abs(res.solution.values - exact.values)) <= 1e-4
    assert res.verification.max_abs_residual <= 1e-9


def test_pipeline_u_weighted_class_runs_and_verifies():
    cfg = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, 33, 33),
                         boundary=parse("X^2 - Y*arctan(Y)"), target=(9, 9))
    res = pipeline("general-Au", cfg)
    assert evaluate(res.coefficient, {"X": 2.0, "Y": 1.0}) == 8.0  # X*(1+Y^2)^2
    assert res.verification.max_abs_residual <= 1e-9
    assert res.verification.samples > 0


def test_pipeline_stage_labels():
    cfg = PipelineConfig(geom=geometry_from_domain(-1.5, 1.5, 0.5, 1.5, 9, 9),
                         boundary=parse("X^2-Y^2"))
    with pytest.raises(PipelineError) as exc:
        pipeline("general-Au", cfg)  # coefficient X(1+Y^2)^2 <= 0 on X <= 0
    assert exc.value.stage == "solve"
    with pytest.raises(PipelineError) as exc2:
        pipeline("axisym", cfg)
    assert exc2.value.stage == "classify"


def test_pipeline_rejects_class_function_with_wrong_variables():
    cfg = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, 33, 33),
                         boundary=parse("X^2-Y^2"))
    with pytest.raises(PipelineError):
        pipeline(parse("1+x^2"), cfg)


def test_resample_negative_orientation_surface():
    # U = X^2 + Y^2 lifts with jacobian -4X < 0; cells are traversed clockwise
    s = lift_parametric(parse("X^2+Y^2"), (0.5, 1.5, 0.5, 1.5), 33)
    assert np.all(s.jac[s.valid] < 0)
    tg = resample(s, geometry_from_domain(1.3, 2.7, -0.9, 0.9, 21, 21))
    xs, ys = np.meshgrid(tg.grid.xs(), tg.grid.ys())
    with np.errstate(invalid="ignore"):
        closed = np.sqrt(ys + xs ** 2 / 4)
    err = np.abs(tg.grid.values - closed)[tg.mask]
    assert tg.n_valid > 300  # the window partly leaves the image; rest masked
    assert err.max() <= 1e-3
    # masked targets are exactly those outside the u-range of the source branch
    u_lo, u_hi = 0.5, 1.5
    inside = (closed >= u_lo - 0.01) & (closed <= u_hi + 0.01)
    assert not (tg.mask & ~inside).any()


def test_pipeline_non_square_grids():
    # rectangular source mesh and target grid guard against axis transposition
    cfg = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, 25, 41),
                         boundary=parse("X^2-Y^2"),
                         target=geometry_from_domain(-2.4, -1.6, 2.0, 2.6, 21, 31))
    res = pipeline("plane-strain-class", cfg)
    tg = res.resampled
    xs, ys = np.meshgrid(tg.grid.xs(), tg.grid.ys())
    err = np.abs(tg.grid.values - np.sqrt(ys - xs ** 2 / 4))[tg.mask]
    assert tg.mask.all()
    assert err.max() <= 1e-3
    assert res.verification.max_abs_residual <= 1e-9


# ---------------------------------------------------------------------------
# CSV export

def test_lifted_csv_round_trip(tmp_path):
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 5)
    path = tmp_path / "l.csv"
    write_lifted(s, path)
    rows = read_lifted(path)
    assert rows.shape == (25, 11)
    k = int(np.where((rows[:, 0] == 1.0) & (rows[:, 1] == 1.0))[0][0])
    X, Y, x, y, u, ux, uy, uxx, uxy, uyy, jac = rows[k]
    assert (x, y, u) == (-2.0, 2.0, 1.0)
    assert (ux, uy, uxx, uxy, uyy) == (0.5, 0.5, -0.5, -0.25, -0.25)
    assert jac == 4.0


@pytest.mark.parametrize("body, line, value", [
    ("\n".join([",".join(["1"] * 10)] * 11), 2, "expected 11 values, found 10"),
    ("1,2,3,4,5,6,7,8,9,10,11\n\n1,2,3\n", 4, "found 3"),
    ("1,2,3,4,5,6,7,8,9,10,x\n", 2, "value 11 .*'x'"),
    ("", 1, "unexpected header: '# nx=1'"),
], ids=["narrow", "ragged", "token", "header"])
def test_read_lifted_refuses_a_wrong_table(tmp_path, body, line, value):
    path = tmp_path / "l.csv"
    path.write_text(("# nx=1\n" if line == 1 else "# lifted\n") + body)
    with pytest.raises(GridFormatError, match=rf"^line {line}: .*{value}"):
        read_lifted(path)


def test_read_lifted_takes_what_the_writer_emits(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("# lifted\n")
    assert read_lifted(path).shape == (0, 11)
    path.write_text("# lifted\n\n" + ",".join(["nan", "inf", "-inf", "-0"] + ["1"] * 7) + "\n")
    row = read_lifted(path)[0]
    assert np.isnan(row[0]) and row[1] == np.inf and row[2] == -np.inf
    assert math.copysign(1.0, row[3]) == -1.0


def test_csv_writers_match_per_value_format(tmp_path):
    specials = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 3)
    u = s.u.copy()
    u.flat[:len(specials)] = specials
    # where X is -0.0, u = X + 0.0*U takes the sign of U: -0.0 above, +0.0 here
    X = s.X.copy()
    X[:, 0] = -0.0
    u[2, 0] = 0.0
    valid = s.valid.copy()
    valid[2, 2] = False
    s = LiftedSurface(X, s.Y, s.x, s.y, u, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac, valid,
                      s.source_kind, s.source_desc)
    cols = (s.X, s.Y, s.x, s.y, s.u, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac)
    expect = "# lifted\n" + "".join(
        ",".join(f"{c[j, i]:.17g}" for c in cols) + "\n" for j, i in zip(*np.nonzero(valid)))
    write_lifted(s, tmp_path / "l.csv")
    assert (tmp_path / "l.csv").read_bytes() == expect.encode()

    values = np.array([specials, [np.nan, -np.nan, 2.5, -0.0, 5e-324, 1e-310]])
    g = Grid2(GridGeometry(6, 2, -0.0, 0.1, 0.2, 0.3), values)
    header = "# nx=6,ny=2,x0=-0,y0=0.10000000000000001,dx=0.20000000000000001,dy=0.29999999999999999\n"
    expect = header + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values)
    write_grid(g, tmp_path / "g.csv")
    assert (tmp_path / "g.csv").read_bytes() == expect.encode()


@pytest.mark.parametrize("family", ["plane-strain-class", "grad-inversion"])
@pytest.mark.parametrize("n", [33, 65, 97, 257])
def test_lifted_values_take_the_fast_path(family, n, tmp_path):
    config = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, n, n),
                            boundary=parse("X^2-Y^2"))
    s = pipeline(family, config).surface
    cols = (s.X, s.Y, s.x, s.y, s.u, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac)
    rows = np.column_stack([c[s.valid] for c in cols])
    assert sum(_format_rows(rows[first:first + 512])[1] for first in range(0, len(rows), 512)) == 0
    if n <= 97:
        write_lifted(s, tmp_path / "l.csv")
        assert (tmp_path / "l.csv").read_bytes() == b"# lifted\n" + percent_g_rows(rows)


def test_write_lifted_memory_stays_small(tmp_path):
    # the formatter works on a few mesh rows at a time; the whole 257^2
    # surface as one block would take about 90 MB
    s = lift_parametric(parse("X^2-Y^2"), (0.5, 1.5, 0.5, 1.5), 257)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_lifted(s, tmp_path / "l.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 2e6
