import math
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import (apply_reference, dense_dirichlet, dense_level_operator, dense_line_solve,
                     linear_start_solve, measured_order, nested_start_solve, product_reference,
                     src_env, transfers_reference, zero_start_solve)
from ma_lin import multigrid
from ma_lin.equations import catalog_get, classify, linear_coefficient
from ma_lin.expressions import Const, evaluate, parse
from ma_lin.grids import Grid2, geometry_from_domain, sample
from ma_lin.linsolve import (FLOOR_FACTOR, BoundaryValues, EllipticProblem,
                             NotConvergedError, NotEllipticError, boundary_from_edge_exprs,
                             constant_f_family, discrete_residual, finite_number, mms_source,
                             problem_from_exprs, solve_dirichlet)
from ma_lin.multigrid import (DIRECT_SIDE, PCR_SIDE, _apply, _coarse_nodes, _cubic,
                              _dense_inverse, _Level, _product, _terms, _transfers)


def _solve_expr(fcoeff, Ustar, n, tol=None, source=None):
    geom = geometry_from_domain(0, 1, 0, 1, n, n)
    prob = problem_from_exprs(geom, parse(fcoeff), source, parse(Ustar))
    U, rep = solve_dirichlet(prob, tol=tol)
    exact = sample(parse(Ustar), ("X", "Y"), geom)
    return U, rep, float(np.max(np.abs(U.values - exact.values)))


# ---------------------------------------------------------------------------
# stencil-exact reproduction

def test_bilinear_exact():
    U, rep, err = _solve_expr("1", "X*Y", 17, tol=1e-12)
    assert rep.converged and err <= 1e-12


def test_bilinear_exact_non_square():
    geom = geometry_from_domain(0, 1, 0, 2, 17, 29)
    prob = problem_from_exprs(geom, parse("1"), None, parse("X*Y"))
    U, rep = solve_dirichlet(prob, tol=1e-12)
    exact = sample(parse("X*Y"), ("X", "Y"), geom)
    assert np.max(np.abs(U.values - exact.values)) <= 1e-12


def test_quadratic_exact_with_f4():
    # X^2 - Y^2/4 satisfies U_XX + 4 U_YY = 2 + 4*(-1/2) = 0 node-exactly
    U, rep, err = _solve_expr("4", "X^2 - Y^2/4", 17, tol=1e-12)
    assert rep.converged and err <= 1e-12


def test_separable_quartic_source_is_stencil_exact():
    # the five-point scheme is exact whenever pure fourth derivatives vanish
    src = mms_source(parse("X^2*Y^2"), parse("(1+Y^2)^2"))
    U, rep, err = _solve_expr("(1+Y^2)^2", "X^2*Y^2", 33, tol=1e-11, source=src)
    assert err <= 1e-9


# ---------------------------------------------------------------------------
# manufactured-solution convergence

@pytest.mark.parametrize("ustar,fcoeff,grids", [
    ("sin(X)*cosh(Y)", "1+X^2", (17, 33)),
    ("X^4+Y^4-X*Y^3", "2", (33, 65)),
    ("exp(0.5*X)*cos(Y)+Y^4", "(1+Y^2)^2", (33, 65)),
])
def test_mms_order_at_least_1p9(ustar, fcoeff, grids):
    # default tolerance: the solver stops at a few rounding floors, far below
    # the discretization error being measured
    errs = []
    for n in grids:
        src = mms_source(parse(ustar), parse(fcoeff))
        _, rep, err = _solve_expr(fcoeff, ustar, n, source=src)
        assert rep.converged
        errs.append(err)
    assert measured_order(errs[0], errs[1]) >= 1.9, errs


# ---------------------------------------------------------------------------
# structural properties

def test_discrete_maximum_principle():
    for fc, bd in (("1", "X^2-Y^2"), ("(1+Y^2)^2", "X^2 - Y*arctan(Y)"),
                   ("4", "sin(3*X)+cos(2*Y)")):
        geom = geometry_from_domain(0, 1, 0, 1, 21, 21)
        prob = problem_from_exprs(geom, parse(fc), None, parse(bd))
        U, rep = solve_dirichlet(prob)
        b = np.concatenate([U.values[0, :], U.values[-1, :],
                            U.values[:, 0], U.values[:, -1]])
        interior = U.values[1:-1, 1:-1]
        assert interior.min() >= b.min() - 1e-9
        assert interior.max() <= b.max() + 1e-9


def test_solver_is_deterministic_bitwise():
    geom = geometry_from_domain(0, 1, 0, 1, 21, 21)
    for fcoeff, start in (("(1+Y^2)^2", "fourier"), ("(1+X)*(1+Y^2)^2", "nested")):
        prob = problem_from_exprs(geom, parse(fcoeff), parse("X*Y"), parse("X^2-Y^2"))
        U1, r1 = solve_dirichlet(prob)
        U2, r2 = solve_dirichlet(prob)
        assert r1.start == start
        assert np.array_equal(U1.values, U2.values)
        assert r1.iterations == r2.iterations and r1.residual == r2.residual


def test_converged_implies_residual_below_tol():
    _, rep, _ = _solve_expr("1", "X^2-Y^2", 17, tol=1e-11)
    assert rep.converged and rep.residual <= rep.tol


def test_not_elliptic():
    geom = geometry_from_domain(0, 1, 0, 1, 9, 9)
    prob = problem_from_exprs(geom, parse("-1"), None, parse("X*Y"))
    with pytest.raises(NotEllipticError):
        solve_dirichlet(prob)


def test_mixed_sign_coefficient_rejected():
    geom = geometry_from_domain(0, 1, 0, 1, 9, 9)
    prob = problem_from_exprs(geom, parse("Y-0.5"), None, parse("X*Y"))
    with pytest.raises(NotEllipticError):
        solve_dirichlet(prob)


def test_not_converged_carries_report_and_grid():
    geom = geometry_from_domain(0, 1, 0, 1, 17, 17)
    # data that one V-cycle does not solve: the nested start reproduces a
    # quadratic such as X^2-Y^2 exactly, and an f that varies along X keeps
    # the solve off the Fourier start
    prob = problem_from_exprs(geom, parse("1+X*Y"), None, parse("exp(X)*cos(Y)"))
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, max_iter=1)
    assert exc.value.report.converged is False
    assert exc.value.report.iterations == 1  # one V-cycle
    assert exc.value.report.residual_floor > 0.0
    assert exc.value.grid.values.shape == (17, 17)


@pytest.mark.parametrize("limits,field", [
    ({"tol": "abc"}, "tol"), ({"tol": -1.0}, "tol"), ({"tol": math.nan}, "tol"),
    ({"tol": math.inf}, "tol"), ({"tol": True}, "tol"),
    ({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
    ({"max_iter": 2.5}, "max_iter"), ({"max_iter": "10"}, "max_iter"),
])
def test_out_of_range_limits_are_rejected_before_solving(limits, field):
    geom = geometry_from_domain(0, 1, 0, 1, 9, 9)
    prob = problem_from_exprs(geom, parse("1"), None, parse("X^2-Y^2"))
    with pytest.raises(ValueError, match=f"^{field} "):
        solve_dirichlet(prob, **limits)


def test_tol_zero_and_whole_float_max_iter_stay_legal():
    # tol = 0 runs until the residual stalls; a JSON max_iter may be 1e5
    geom = geometry_from_domain(0, 1, 0, 1, 9, 9)
    prob = problem_from_exprs(geom, parse("1"), None, parse("X^2-Y^2"))
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, tol=0, max_iter=1e5)
    assert exc.value.report.tol == 0.0 and exc.value.report.iterations < 1e5


def test_residuals_record_each_convergence_check():
    # a coefficient of both coordinates, so that the nested start and its
    # V-cycles run
    geom = geometry_from_domain(0, 1, 0, 1, 33, 33)
    prob = problem_from_exprs(geom, parse("1+X*Y"), None, parse("X^2-Y^2"))
    _, rep = solve_dirichlet(prob)
    assert len(rep.residuals) == rep.iterations and rep.residuals[-1] == rep.residual
    assert all(b < 0.5 * a for a, b in zip(rep.residuals, rep.residuals[1:]))
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, max_iter=2)
    assert exc.value.report.residuals == rep.residuals[:2]


def test_unmeetable_tol_stops_at_the_rounding_floor():
    # a tol below what doubles can represent: the residual stops falling and
    # the solve gives up after a few cycles, not after max_iter
    geom = geometry_from_domain(0, 1, 0, 1, 33, 33)
    prob = problem_from_exprs(geom, parse("(1+Y^2)^2"), None, parse("X^2-Y^2"))
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, tol=1e-16, max_iter=200_000)
    rep = exc.value.report
    assert rep.tol == 1e-16 and rep.iterations <= 30
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor
    assert "rounding floor" in str(exc.value)


@pytest.mark.parametrize("fcoeff", ["exp(3*Y)", "100"])
def test_stall_leaves_headroom_below_the_acceptance_bound(fcoeff):
    # with tol=0 the V-cycle runs until the residual stops falling; where it
    # stalls, relative to the rounding floor, is the headroom the default
    # bound of FLOOR_FACTOR floors has against rounding the line solves add
    # (2.36 and 2.66 floors when this test was written)
    geom = geometry_from_domain(0.5, 1.5, 0.5, 1.5, 257, 257)
    prob = problem_from_exprs(geom, parse(fcoeff), None, parse("X^2-Y^2"))
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, tol=0.0)
    rep = exc.value.report
    assert rep.residual / rep.residual_floor < 3.5, rep


# ---------------------------------------------------------------------------
# multigrid robustness

ROBUST_COEFFS = ("100", "0.01", "1+100*X^2", "exp(3*Y)")


def _robust_problem(fcoeff, nx, ny):
    geom = geometry_from_domain(0, 1, 0, 1, nx, ny)
    return problem_from_exprs(geom, parse(fcoeff), parse("X*Y"), parse("X^2-Y^2+sin(3*X*Y)"))


def _max_residual(prob, U):
    f, g = prob.fcoeff.values, prob.source.values
    r = discrete_residual(U, f[1:-1, 1:-1], g[1:-1, 1:-1], prob.geom.dx, prob.geom.dy)
    return float(np.max(np.abs(r)))


def _start_of(fcoeff):
    """The start solve_dirichlet takes for a coefficient of these tests."""
    return "nested" if "X" in fcoeff else "fourier"


def _within_the_maximum_principle(U, res, ref, r_ref):
    # the scheme is exact on (X - X0)(X1 - X)/2, so the discrete maximum
    # principle bounds the difference of two solutions on the unit square by
    # max|L(U - ref)| / 8, plus rounding of the values themselves
    bound = (res + r_ref) / 8 + 4 * np.finfo(float).eps * np.max(np.abs(ref))
    return np.max(np.abs(U - ref)) <= bound


# the anisotropic ones of ROBUST_COEFFS made to vary along X, so that the
# solver's own V-cycle rather than the Fourier start meets them
VARYING_COEFFS = ("100*(1+0.1*X*Y)", "0.01*(1+0.1*X*Y)", "exp(3*Y)*(1+0.1*X)")


@pytest.mark.parametrize("fcoeff", ROBUST_COEFFS + ("1", "(1+Y^2)^2") + VARYING_COEFFS)
@pytest.mark.parametrize("nx,ny", [(3, 3), (4, 4), (21, 21), (20, 13), (21, 9), (5, 511),
                                   (511, 5), (1020, 3)])
def test_multigrid_matches_dense_reference(fcoeff, nx, ny):
    # an f constant along X takes the Fourier start, which meets the bound
    # with no V-cycle and builds no hierarchy, and the multigrid is checked
    # on the same problem; nx = 1020 gives a transform of length 2 * 1019,
    # a prime times 2
    prob = _robust_problem(fcoeff, nx, ny)
    U, rep = solve_dirichlet(prob)
    assert rep.start == _start_of(fcoeff)
    ref = dense_dirichlet(prob)
    r_ref = _max_residual(prob, ref)
    # both solutions sit at the rounding floor, and agree
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor
    assert r_ref <= FLOOR_FACTOR * rep.residual_floor
    assert _within_the_maximum_principle(U.values, rep.residual, ref, r_ref)
    if rep.start == "fourier":
        assert (rep.iterations, rep.levels, rep.direct_unknowns) == (0, (), 0)
        assert len(rep.residuals) == 1
        V, _, res, converged = nested_start_solve(prob)
        assert converged and _within_the_maximum_principle(V, res, ref, r_ref)


@pytest.mark.parametrize("fcoeff", ROBUST_COEFFS + VARYING_COEFFS)
@pytest.mark.parametrize("nx,ny", [(3, 3), (21, 21), (50, 37), (64, 64)])
def test_multigrid_cycle_bound(fcoeff, nx, ny):
    prob = _robust_problem(fcoeff, nx, ny)
    _, rep = solve_dirichlet(prob)
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor
    assert rep.start == _start_of(fcoeff)
    # with a tol well above the floor only the V-cycle's convergence rate
    # counts, on the nested start whichever start the solver takes
    _, cycles, _, converged = nested_start_solve(prob, tol=1e3 * rep.residual_floor)
    assert converged
    if (nx, ny) == (3, 3):
        assert cycles == 1  # one interior node: the line solve is exact
    assert cycles <= 12, cycles


SWEEP_COEFFS = ("1", "100", "0.01", "1+100*X^2", "exp(3*Y)", "(1+Y^2)^2",
                "2+sin(5*X)*cos(3*Y)", "1+X^2+Y^2", "0.1+X^4", "1/(1+X^2)")


def _seeded_problems():
    """Six problems per family on random grids and rectangles, three of them
    with a source."""
    rng = np.random.default_rng(20261018)
    for k in range(60):
        fcoeff = SWEEP_COEFFS[k % len(SWEEP_COEFFS)]
        nx, ny = (int(v) for v in rng.integers(3, 140, 2))
        X0, Y0 = rng.uniform(-1.5, 1.5, 2)
        X1, Y1 = X0 + rng.uniform(0.1, 2.0), Y0 + rng.uniform(0.1, 2.0)
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        boundary = parse(f"{a:.6f}*(X^2-Y^2) + sin({b:.6f}*X*Y) + exp({c:.6f}*Y)")
        source = parse(f"{c:.6f}*X*Y + cos({a:.6f}*X)") if (k // 10) % 2 else None
        geom = geometry_from_domain(X0, X1, Y0, Y1, nx, ny)
        yield (k, fcoeff, nx, ny), problem_from_exprs(geom, parse(fcoeff), source, boundary)


def test_seeded_random_problems_converge_within_26_cycles():
    # rounding error the line solves leave in the cycle shows up here as a
    # residual that stalls above FLOOR_FACTOR floors.  Where the solver
    # takes the Fourier start, with no cycle, the multigrid runs on the same
    # problem too
    for case, prob in _seeded_problems():
        _, rep = solve_dirichlet(prob)  # raises NotConvergedError on a stall
        assert rep.start == _start_of(case[1]), case
        assert rep.iterations <= {"nested": 26, "fourier": 0}[rep.start], (case, rep)
        if rep.start == "fourier":
            _, cycles, _, converged = nested_start_solve(prob)
            assert converged and cycles <= 26, (case, cycles)


def test_nested_start_takes_no_more_cycles_than_a_zero_start():
    # 641 V-cycles from a zero start against 473 from the nested one when
    # this test was written
    total = [0, 0]
    for case, prob in _seeded_problems():
        _, nested, _, met = nested_start_solve(prob)
        _, cycles, _, converged = zero_start_solve(prob)
        assert met and converged and nested <= cycles, (case, nested, cycles)
        total[0], total[1] = total[0] + nested, total[1] + cycles
    assert total[0] < 0.8 * total[1], total


SWEEP_SHAPES = ((3, 3), (21, 21), (50, 37), (64, 64), (65, 65), (97, 33), (33, 97))


def test_cubic_start_takes_fewer_cycles_than_a_linear_start():
    # 462 V-cycles against 473 over the seeded problems, and 502 against 524
    # over the sweep, when this test was written
    seeded = [prob for _, prob in _seeded_problems()]
    sweep = [_robust_problem(f, nx, ny) for f in SWEEP_COEFFS for nx, ny in SWEEP_SHAPES]
    for problems in (seeded, sweep):
        cubic = sum(nested_start_solve(prob)[1] for prob in problems)
        linear = sum(linear_start_solve(prob)[1] for prob in problems)
        assert cubic < linear, (cubic, linear)


def _lift_family_problem(fcoeff, nx, ny, times_x=False):
    """A lift family's coefficient, or X times it, and boundary data, with no
    source."""
    boundary = {"1": "X^2-Y^2", "(1+Y^2)^2": "X^2 - Y*arctan(Y)"}[fcoeff]
    return problem_from_exprs(geometry_from_domain(0.5, 1.5, 0.5, 1.5, nx, ny),
                              parse(f"X*{fcoeff}" if times_x else fcoeff), None, parse(boundary))


@pytest.mark.parametrize("make,fcoeff,nx,ny", [
    (_robust_problem, "1+100*X^2", 65, 65),   # ends at a direct level
    (_robust_problem, "exp(3*Y)", 511, 5),    # ... or at 3-node line solves
    (_robust_problem, "0.01", 5, 511),
    (_robust_problem, "100", 257, 7),
    (_robust_problem, "1", 3, 3),
    (_lift_family_problem, "1", 65, 65),       # no source
    (_lift_family_problem, "(1+Y^2)^2", 65, 65),
], ids=["65x65", "511x5", "5x511", "257x7", "3x3", "lift-laplace-65", "lift-grad-inversion-65"])
def test_nested_start_agrees_with_a_zero_start(make, fcoeff, nx, ny):
    # the nested start whichever start the solver takes; the solver agrees too
    prob = make(fcoeff, nx, ny)
    ref, cycles, r_ref, converged = zero_start_solve(prob)
    U, nested, res, met = nested_start_solve(prob)
    assert converged and met and nested <= cycles
    # the discrete maximum principle on a domain one unit wide
    assert _within_the_maximum_principle(U, res, ref, r_ref)
    V, rep = solve_dirichlet(prob)
    assert rep.start == _start_of(fcoeff)
    assert _within_the_maximum_principle(V.values, rep.residual, ref, r_ref)


# ---------------------------------------------------------------------------
# line solves

@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("axis", ["y", "x"])
def test_line_solve_matches_dense_reference(axis, uniform):
    # every line length from 1 to 70, and lengths that take three to five
    # cyclic-reduction levels before the switch to parallel cyclic reduction,
    # both colours; non-uniform positions are what coarse levels see.
    # x-lines run on the transposed grid, as in relax
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(70 + 2 * (axis == "x") + uniform)
    for length in [*range(1, 71), 127, 128, 129, 255, 256, 257]:
        gaps = np.ones(length + 1, dtype=int) if uniform else rng.integers(1, 4, length + 1)
        pos, other = np.r_[0, np.cumsum(gaps)], np.arange(7)
        shape = (length + 2, 7) if axis == "y" else (7, length + 2)
        f = rng.uniform(0.01, 100.0, shape)
        if axis == "y":
            lev = _Level(f, other, pos, 0.3, 0.2)
            W, E, S, N, C = lev.op
            colours, (lo, hi, left, right, diag), T = lev.y_lines, (S, N, W, E, C), np.asarray
        else:
            lev = _Level(f, pos, other, 0.3, 0.2)
            W, E, S, N, C = lev.op
            colours, (lo, hi, left, right, diag), T = (lev.x_lines, (W.T, E.T, S.T, N.T, C.T),
                                                       np.transpose)
        V, G = rng.standard_normal((2, *shape))
        assert len(colours) == 2
        for lines in colours:
            before = V.copy()
            lines.solve(T(V), T(G))
            Vb, Va, Gt = T(before), T(V), T(G)
            cols = list(range(lines.first, Vb.shape[1] - 1, 2))
            fixed = np.ones(Vb.shape, dtype=bool)
            fixed[1:-1, cols] = False
            assert np.array_equal(Va[fixed], Vb[fixed])
            for c in cols:
                k = c - 1
                rhs = left[:, k] * Vb[1:-1, c - 1] + right[:, k] * Vb[1:-1, c + 1] - Gt[1:-1, c]

                def residual(u):
                    full = np.r_[Vb[0, c], u, Vb[-1, c]]
                    return diag[:, k] * u - lo[:, k] * full[:-2] - hi[:, k] * full[2:] - rhs

                u = Va[1:-1, c]
                r = np.max(np.abs(residual(u)))
                assert r <= 8 * eps * np.max(diag[:, k] * np.abs(u)), (length, c)
                rhs_ref = rhs.copy()
                rhs_ref[0] += lo[0, k] * Vb[0, c]
                rhs_ref[-1] += hi[-1, k] * Vb[-1, c]
                ref = dense_line_solve(diag[:, k], lo[:, k], hi[:, k], rhs_ref)
                # diagonal dominance by left + right bounds the inverse's max-norm
                margin = np.min(diag[:, k] - lo[:, k] - hi[:, k])
                bound = (r + np.max(np.abs(residual(ref)))) / margin
                assert np.max(np.abs(u - ref)) <= bound + 4 * eps * np.max(np.abs(ref))


def test_line_multipliers_stay_linear_in_the_line_length():
    # cyclic reduction stores about 4 L multipliers per line and parallel
    # cyclic reduction at most 2 K log2 K on the K <= PCR_SIDE positions it
    # is left; parallel reduction over a whole line would store 2 L log2 L
    length = 511
    f = np.random.default_rng(511).uniform(0.01, 100.0, (length + 2, 7))
    lev = _Level(f, np.arange(7), np.arange(length + 2), 0.3, 0.2)
    for lines in lev.y_lines:
        arrays = [a for level in lines.levels for a in level]
        arrays += [m for _, m1, m2 in lines.steps for m in (m1, m2)] + [lines.inv_last]
        # the first level's couplings are views of the stencil arrays
        owned = [a for a in arrays if not any(np.may_share_memory(a, b) for b in lev.op)]
        per_line = sum(a.size for a in owned) / lines.inv_last.shape[1]
        assert lines.levels and lines.inv_last.shape[0] <= PCR_SIDE
        assert per_line <= 4 * length + 2 * PCR_SIDE * math.log2(PCR_SIDE), per_line


def _coarsened(n: int, times: int) -> np.ndarray:
    """Node positions of an n-node axis after `times` coarsenings."""
    pos = np.arange(n)
    for _ in range(times):
        pos = pos[_coarse_nodes(len(pos))]
    return pos


def test_transfers_match_the_node_by_node_reference():
    # uniform axes of every length, and the non-uniform axes that coarsening
    # even node counts leaves (the last three intervals merged into one)
    axes = [np.arange(n) for n in range(4, 70)]
    axes += [_coarsened(n, times) for n in range(8, 140, 2) for times in (1, 2)
             if len(_coarsened(n, times)) >= 4]
    for pos in axes:
        keep = _coarse_nodes(len(pos))
        for got, want in zip(_transfers(pos, keep), transfers_reference(pos, keep)):
            assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0]), pos
            assert got[1].tobytes() == want[1].tobytes(), pos


def test_transfer_terms_apply_as_the_term_by_term_reference():
    # the (index, weight) columns split once at build give the bytes of
    # slicing them on every call
    rng = np.random.default_rng(7)
    for pos in [np.arange(n) for n in (4, 5, 17, 33, 65)] + [_coarsened(130, 1)]:
        for ell in _transfers(pos, _coarse_nodes(len(pos))):
            rows = ell[0].shape[0]
            for axis, shape in ((0, (len(pos), rows + 3)), (1, (rows + 2, len(pos)))):
                A = rng.standard_normal(shape)
                got = _apply(_terms(ell, axis), A, axis)
                assert got.tobytes() == apply_reference(ell, A, axis).tobytes(), (pos, axis)


def test_block_product_matches_the_broadcast_sum_bit_for_bit():
    # square blocks times row blocks, contiguous and as the strided views of
    # the inverse's block rows that _dense_inverse passes
    rng = np.random.default_rng(2024)
    for n in range(1, 17):
        for blocks in (1, 2, 7, 16):
            A = rng.uniform(-2.0, 2.0, (n, n)) * 10.0 ** rng.integers(-8, 8, (n, n))
            B = rng.standard_normal((n, blocks * n))
            Z = rng.standard_normal((3, n, 2 * blocks * n))
            for right in (B, Z[1, :, :blocks * n], Z[2, :, blocks * n:]):
                got = _product(A, right)
                assert got.tobytes() == product_reference(A, right).tobytes(), (n, blocks)


@pytest.mark.parametrize("fcoeff,nx,ny,interior", [
    ("1", 33, 33, (15, 15)), ("1", 65, 65, (15, 15)), ("1", 97, 97, (11, 11)),
    ("(1+Y^2)^2", 33, 33, (15, 15)), ("(1+Y^2)^2", 65, 65, (15, 15)),
    ("(1+Y^2)^2", 97, 97, (11, 11)),
    ("1+100*X^2", 65, 50, (11, 15)),  # the 17x13 level of the thread test
])
def test_direct_inverse_matches_the_broadcast_sum_build(monkeypatch, fcoeff, nx, ny, interior):
    geom = geometry_from_domain(0.5, 1.5, 0.5, 1.5, nx, ny)
    f = sample(parse(fcoeff), ("X", "Y"), geom).values
    lev = _Level(f, np.arange(nx), np.arange(ny), geom.dx, geom.dy).levels()[-1]
    assert lev.inverse is not None and lev.op[4].shape == interior
    monkeypatch.setattr(multigrid, "_product", product_reference)
    assert lev.inverse.tobytes() == _dense_inverse(*lev.op).tobytes()


@pytest.mark.parametrize("px,py", [
    (np.arange(17), np.arange(17)),
    (_coarsened(34, 1), _coarsened(30, 1)),   # 17 and 15 nodes, last interval of 3
    (_coarsened(130, 3), np.arange(9)),       # wider than tall
    (np.arange(5), _coarsened(100, 1)),       # taller than wide
    (np.arange(3), np.arange(3)),
])
def test_direct_level_inverse_matches_the_dense_operator(px, py):
    rng = np.random.default_rng(len(px) * 1000 + len(py))
    f = rng.uniform(0.01, 100.0, (len(py), len(px)))
    lev = _Level(f, px, py, 0.3, 0.2, direct=True)
    A = dense_level_operator(lev.op)
    ref = np.linalg.inv(A)
    assert lev.inverse.shape == A.shape and lev.coarse is None
    # both inverses carry rounding of order eps times the condition number
    cond = np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(ref).sum(axis=1))
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(lev.inverse - ref)) <= eps * cond * np.max(np.abs(ref))


@pytest.mark.parametrize("nx,ny,levels,direct", [
    (17, 17, ((17, 17), (9, 9)), 49),             # the top level is never solved directly
    (35, 35, ((35, 35), (18, 18)), 256),          # 16 x 16 interior: at the limit
    (37, 37, ((37, 37), (19, 19), (10, 10)), 64),  # 17 x 17 interior: one level more
    (601, 5, ((601, 5), (301, 3)), 0),            # 3 nodes before the limit: line solves
    (33, 5, ((33, 5), (17, 3)), 0),               # 3 nodes within the limit: still line solves
    (5, 33, ((5, 33), (3, 17)), 0),
    (511, 5, ((511, 5), (256, 3)), 0),
    (5, 511, ((5, 511), (3, 256)), 0),
    (257, 7, ((257, 7), (129, 4), (65, 3)), 0),   # 254 unknowns in rows of 127
    (7, 257, ((7, 257), (4, 129), (3, 65)), 0),   # ... or in 127 rows
    (65, 17, ((65, 17), (33, 9), (17, 5)), 45),   # one axis within the limit is not enough
    (3, 3, ((3, 3),), 0),
])
def test_hierarchy_ends_at_the_first_coarse_level_within_the_limit(nx, ny, levels, direct):
    _, rep = solve_dirichlet(_robust_problem("1+100*X^2", nx, ny))
    assert (rep.levels, rep.direct_unknowns) == (levels, direct)
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor


@pytest.mark.parametrize("fcoeff", ["1", "(1+Y^2)^2"])
def test_lift_families_take_no_more_cycles_with_the_direct_level(fcoeff):
    # the plane-strain-class and grad-inversion coefficients with their lift
    # boundary data take the Fourier start, with no cycle and no hierarchy;
    # on the multigrid they take 1, 1, 1, 1 and 5, 5, 5, 5 V-cycles.  X times
    # each coefficient (X*(1+Y^2)^2 is general-Au's) keeps the same data on
    # the solver's multigrid: the V-cycles each took with the direct level
    # and the cubic nested start (the coefficients themselves took 8, 8, 8, 7
    # and 7, 7, 7, 6 with a linear start; 11, 11, 11, 11 and 9, 10, 10, 10
    # when the hierarchy went on down to 3 nodes per axis and each solve
    # started from zero), and no more than a zero start takes
    own = {"1": (1, 1, 1, 1), "(1+Y^2)^2": (5, 5, 5, 5)}[fcoeff]
    before = {"1": (7, 7, 7, 7), "(1+Y^2)^2": (6, 6, 6, 6)}[fcoeff]
    for n, mine, cycles, direct in zip((33, 65, 97, 129), own, before, (225, 225, 121, 225)):
        prob = _lift_family_problem(fcoeff, n, n)
        _, rep = solve_dirichlet(prob)
        assert (rep.start, rep.iterations, rep.levels, rep.direct_unknowns) == ("fourier", 0, (), 0)
        assert rep.residual <= FLOOR_FACTOR * rep.residual_floor
        _, nested, _, converged = nested_start_solve(prob)
        assert converged and nested <= mine and nested <= zero_start_solve(prob)[1], n
        prob = _lift_family_problem(fcoeff, n, n, times_x=True)
        _, rep = solve_dirichlet(prob)
        assert rep.start == "nested" and rep.iterations <= cycles, (n, rep)
        assert rep.iterations <= zero_start_solve(prob)[1], n
        assert rep.direct_unknowns == direct <= DIRECT_SIDE ** 2
        assert rep.residual <= FLOOR_FACTOR * rep.residual_floor


def _cubic_reproduces(pos, keep, degree):
    idx, w = _cubic(pos, keep)
    coarse = pos[keep].astype(float)
    # each stencil is centred on the node's interval, except where it meets an end
    last = len(keep) - 1
    assert np.all((coarse[idx[:, 1]] <= pos) | (idx[:, 0] == 0))
    assert np.all((pos <= coarse[idx[:, -2]]) | (idx[:, -1] == last))
    for coeffs in ((1.0, -2.0, 0.5, 0.25), (0.3, 1.7, -0.9, -1.1)):
        poly = np.polynomial.Polynomial(coeffs[:degree + 1])
        got = (w * poly(coarse[idx])).sum(axis=1)
        assert np.allclose(got, poly(pos), rtol=1e-13, atol=1e-13 * np.max(np.abs(poly(pos))))


@pytest.mark.parametrize("pos", [
    np.arange(17),                          # uniform, odd
    np.arange(18),                          # even: the last coarse interval spans 3
    np.arange(18)[_coarse_nodes(18)],       # that level's own non-uniform nodes
    np.arange(8),                           # 4 coarse nodes, one stencil for all
], ids=["odd", "even", "merged", "four"])
def test_cubic_start_weights_reproduce_cubics(pos):
    _cubic_reproduces(pos, _coarse_nodes(len(pos)), 3)


@pytest.mark.parametrize("n", [5, 6])
def test_cubic_start_weights_on_a_3_node_coarse_axis_reproduce_quadratics(n):
    keep = _coarse_nodes(n)
    assert len(keep) == 3 and _cubic(np.arange(n), keep)[0].shape == (n, 3)
    _cubic_reproduces(np.arange(n), keep, 2)


@pytest.mark.parametrize("n", [3, 5, 6, 17, 18, 33])
def test_cubic_start_keeps_the_kept_nodes(n):
    pos = np.arange(n)
    keep = _coarse_nodes(n)
    idx, w = _cubic(pos, keep)
    assert np.all(idx >= 0) and np.all(idx < len(keep))
    kw, ki = w[keep], idx[keep]
    assert np.all((kw == 1.0).sum(axis=1) == 1)
    assert np.array_equal(ki[kw == 1.0], np.arange(len(keep)))
    assert np.all((kw == 1.0) | (kw == 0.0))
    assert not np.any(np.signbit(w) & (w == 0.0))  # no -0.0 weights


@pytest.mark.parametrize("n", [33, 65, 97, 129])
def test_laplace_with_quadratic_data_converges_in_one_cycle(n):
    # the five-point scheme and the cubic start both reproduce X^2-Y^2, so
    # the nested start already sits at the rounding floor; the solver takes
    # the Fourier start for Laplace, with no cycle.  With 1+X*Y, and the
    # source that keeps X^2-Y^2 exact, the solver's own nested start runs, and
    # the restriction of a linear f reproduces the quadratic too
    prob = _lift_family_problem("1", n, n)
    _, cycles, _, converged = nested_start_solve(prob)
    assert converged and cycles == 1
    _, rep = solve_dirichlet(prob)
    assert rep.start == "fourier" and rep.iterations == 0
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor
    geom = geometry_from_domain(0.5, 1.5, 0.5, 1.5, n, n)
    quadratic, f = parse("X^2-Y^2"), parse("1+X*Y")
    _, rep = solve_dirichlet(problem_from_exprs(geom, f, mms_source(quadratic, f), quadratic))
    assert rep.start == "nested" and rep.iterations == 1
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor


def test_solution_bytes_independent_of_blas_threads():
    # the problem's 17x13 coarse level is solved by the dense inverse
    code = ("import hashlib; from ma_lin import geometry_from_domain, parse, "
            "problem_from_exprs, solve_dirichlet; "
            "g = geometry_from_domain(0.5, 1.5, 0.5, 1.5, 65, 50); "
            "p = problem_from_exprs(g, parse('1+100*X^2'), None, parse('X^2-Y^2')); "
            "U, rep = solve_dirichlet(p); "
            "print(rep.direct_unknowns, hashlib.sha256(U.values.tobytes()).hexdigest())")
    outputs = []
    for threads in ("1", "2"):
        env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0][0] == str(15 * 11) and len(outputs[0][1]) == 64
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fcoeff,nx,ny", [("(1+Y^2)^2", 65, 65), ("exp(3*Y)", 50, 37),
                                          ("1+100*X^2", 33, 33)])
def test_any_variation_along_x_takes_the_nested_start(fcoeff, nx, ny):
    # one interior node moved by one ulp is enough to leave the Fourier
    # start, and f = f(X) is not covered by it; those solves run the nested
    # start and its V-cycles, node for node
    prob = _robust_problem(fcoeff, nx, ny)
    f = prob.fcoeff.values.copy()
    if fcoeff != "1+100*X^2":
        f[ny // 2, nx // 3] = np.nextafter(f[ny // 2, nx // 3], np.inf)
        prob = EllipticProblem(prob.geom, Grid2(prob.geom, f), prob.source, prob.boundary)
    U, rep = solve_dirichlet(prob)
    assert rep.start == "nested" and rep.iterations >= 1 and rep.levels[0] == (nx, ny)
    V, cycles, res, _ = nested_start_solve(prob)
    assert (U.values.tobytes(), rep.iterations, rep.residual) == (V.tobytes(), cycles, res)


@pytest.mark.parametrize("fcoeff", ["1", "(1+Y^2)^2"])
def test_tol_below_the_fourier_start_builds_the_hierarchy_and_stalls(fcoeff):
    prob = _lift_family_problem(fcoeff, 65, 65)
    _, first = solve_dirichlet(prob)
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, tol=0)
    rep = exc.value.report
    assert rep.start == "fourier" and rep.residuals[0] == first.residual
    # V-cycles run until STALL_CYCLES fail to halve the residual
    assert 1 <= rep.iterations == len(rep.residuals) - 1 <= 30
    assert rep.levels[0] == (65, 65) and rep.direct_unknowns == 225
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, tol=0, max_iter=1)
    assert exc.value.report.iterations == 1


def test_fourier_solution_bytes_independent_of_blas_threads():
    code = ("import hashlib; from ma_lin import geometry_from_domain, parse, "
            "problem_from_exprs, solve_dirichlet; "
            "g = geometry_from_domain(0.5, 1.5, 0.5, 1.5, 129, 100); "
            "p = problem_from_exprs(g, parse('(1+Y^2)^2'), parse('X*Y'), parse('X^2-Y^2')); "
            "U, rep = solve_dirichlet(p); "
            "print(rep.start, hashlib.sha256(U.values.tobytes()).hexdigest())")
    outputs = []
    for threads in ("1", "2"):
        env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0][0] == "fourier" and len(outputs[0][1]) == 64
    assert outputs[0] == outputs[1]


def test_grad_inversion_n129_converges():
    # red-black SOR stalled here at 1.34e-10 against its absolute tol of 1e-10
    coeff = linear_coefficient(classify(catalog_get("grad-inversion")))
    geom = geometry_from_domain(0.5, 1.5, 0.5, 1.5, 129, 129)
    prob = problem_from_exprs(geom, coeff, None, parse("X^2-Y^2"))
    start = time.perf_counter()
    U, rep = solve_dirichlet(prob)
    assert time.perf_counter() - start < 20.0
    assert rep.converged and rep.residual <= rep.tol
    assert _max_residual(prob, U.values) == rep.residual


def test_boundary_corner_consistency_enforced():
    with pytest.raises(ValueError):
        BoundaryValues(left=np.zeros(3), right=np.zeros(3),
                       bottom=np.array([1.0, 0, 0]), top=np.zeros(3))


def test_boundary_values_copy_the_callers_arrays():
    l, r, b, t = (np.zeros(3) for _ in range(4))
    bv = BoundaryValues(l, r, b, t)
    l[0] = 1.0  # the caller's array stays writable
    assert bv.left[0] == 0.0
    for edge in (bv.left, bv.right, bv.bottom, bv.top):
        assert not edge.flags.writeable


def test_boundary_from_edge_exprs_running_coordinate():
    geom = geometry_from_domain(0, 1, 0, 2, 3, 3)
    b = boundary_from_edge_exprs(parse("Y^2"), parse("1+Y^2"), parse("X^2"),
                                 parse("X^2+4"), geom)
    assert np.allclose(b.left, [0, 1, 4.0])
    assert np.allclose(b.bottom, [0, 0.25, 1.0])
    assert np.allclose(b.top, [4, 4.25, 5.0])


# ---------------------------------------------------------------------------
# manufactured sources

def test_mms_source_harmonic_is_zero():
    src = mms_source(parse("X^2-Y^2"), parse("1"))
    for X in (-1.0, 0.3):
        for Y in (0.1, 2.0):
            assert evaluate(src, {"X": X, "Y": Y}) == 0.0


def test_mms_source_arctan_solution():
    src = mms_source(parse("X^2 - Y*arctan(Y)"), parse("(1+Y^2)^2"))
    rng = np.random.default_rng(4)
    for _ in range(100):
        b = {"X": rng.uniform(-2, 2), "Y": rng.uniform(-2, 2)}
        assert abs(evaluate(src, b)) <= 1e-12


def test_mms_source_x2y2():
    src = mms_source(parse("X^2*Y^2"), parse("(1+Y^2)^2"))
    want = parse("2*Y^2 + 2*X^2*(1+Y^2)^2")
    rng = np.random.default_rng(6)
    for _ in range(50):
        b = {"X": rng.uniform(-2, 2), "Y": rng.uniform(-2, 2)}
        w = evaluate(want, b)
        assert abs(evaluate(src, b) - w) <= 1e-12 * (1 + abs(w))


# ---------------------------------------------------------------------------
# constant-coefficient closed forms

def test_constant_family_examples():
    e = constant_f_family(1.0, 2)
    for X, Y in ((0.2, -1.0), (1.5, 2.0)):
        assert abs(evaluate(e, {"X": X, "Y": Y}) - (X * X - Y * Y)) <= 1e-12
    e3 = constant_f_family(1.0, 3)
    for X, Y in ((0.2, -1.0), (1.5, 2.0)):
        assert abs(evaluate(e3, {"X": X, "Y": Y}) - (X ** 3 - 3 * X * Y * Y)) <= 1e-12
    e4 = constant_f_family(4.0, 2)
    for X, Y in ((0.2, -1.0), (1.5, 2.0)):
        assert abs(evaluate(e4, {"X": X, "Y": Y}) - (X * X - Y * Y / 4)) <= 1e-12


def test_constant_family_members_solve_their_equation():
    rng = np.random.default_rng(12)
    for c2 in (0.5, 1.0, 4.0):
        for n in (1, 2, 3, 4, 5):
            for part in ("re", "im"):
                e = constant_f_family(c2, n, part)
                src = mms_source(e, Const(c2))
                for _ in range(20):
                    b = {"X": rng.uniform(-2, 2), "Y": rng.uniform(-2, 2)}
                    assert abs(evaluate(src, b)) <= 1e-9, (c2, n, part)


def test_constant_family_rejects_bad_arguments():
    with pytest.raises(ValueError):
        constant_f_family(-1.0, 2)
    with pytest.raises(ValueError):
        constant_f_family(1.0, 0)


@pytest.mark.parametrize("value,finite", [
    (1, True), (-2.5, True), (np.float64(3.0), True), (10 ** 308, True), (-sys.float_info.max, True),
    (True, False), (float("nan"), False), (float("inf"), False), (10 ** 400, False), ("1", False),
    (None, False)])
def test_finite_number_compares_without_converting(value, finite):
    assert finite_number(value) == finite


@pytest.mark.parametrize("fcoeff", ["1", "1+X*Y"])
def test_the_overflow_refusal_keeps_large_data_that_the_scheme_holds(fcoeff):
    # 2e300 on the boundary of a 33 x 33 grid stays a double through either
    # start and every cycle; 2e307 does not, and is refused before the start
    geom = geometry_from_domain(0, 1, 0, 1, 33, 33)
    for scale, solves in (("1e300", True), ("1e307", False)):
        prob = problem_from_exprs(geom, parse(fcoeff), None, parse(f"{scale}*(X+Y)"))
        if solves:
            U, rep = solve_dirichlet(prob)
            assert rep.converged and np.all(np.isfinite(U.values))
        else:
            with pytest.raises(ValueError, match="the five-point operator overflows doubles"):
                solve_dirichlet(prob)
