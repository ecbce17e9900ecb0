import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import dense_dirichlet, dense_line_solve, measured_order
from ma_lin.equations import catalog_get, classify, linear_coefficient
from ma_lin.expressions import Const, evaluate, parse
from ma_lin.grids import geometry_from_domain, sample
from ma_lin.linsolve import (FLOOR_FACTOR, BoundaryValues, NotConvergedError,
                             NotEllipticError, boundary_from_edge_exprs,
                             constant_f_family, discrete_residual, mms_source,
                             _Level, problem_from_exprs, solve_dirichlet)

SRC = Path(__file__).resolve().parent.parent / "src"


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
    prob = problem_from_exprs(geom, parse("(1+Y^2)^2"), parse("X*Y"),
                              parse("X^2-Y^2"))
    U1, r1 = solve_dirichlet(prob)
    U2, r2 = solve_dirichlet(prob)
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
    prob = problem_from_exprs(geom, parse("1"), None, parse("X^2-Y^2"))
    with pytest.raises(NotConvergedError) as exc:
        solve_dirichlet(prob, max_iter=1)
    assert exc.value.report.converged is False
    assert exc.value.report.iterations == 1  # one V-cycle
    assert exc.value.report.residual_floor > 0.0
    assert exc.value.grid.values.shape == (17, 17)


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


@pytest.mark.parametrize("fcoeff", ROBUST_COEFFS)
@pytest.mark.parametrize("nx,ny", [(3, 3), (21, 21), (21, 9)])
def test_multigrid_matches_dense_reference(fcoeff, nx, ny):
    prob = _robust_problem(fcoeff, nx, ny)
    U, rep = solve_dirichlet(prob)
    ref = dense_dirichlet(prob)
    r_ref = _max_residual(prob, ref)
    # both solutions sit at the rounding floor ...
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor
    assert r_ref <= FLOOR_FACTOR * rep.residual_floor
    # ... and the scheme is exact on (X - X0)(X1 - X)/2, so the discrete
    # maximum principle bounds their difference on the unit square by
    # max|L(U - ref)| / 8, plus rounding of the values themselves
    bound = (rep.residual + r_ref) / 8 + 4 * np.finfo(float).eps * np.max(np.abs(ref))
    assert np.max(np.abs(U.values - ref)) <= bound


@pytest.mark.parametrize("fcoeff", ROBUST_COEFFS)
@pytest.mark.parametrize("nx,ny", [(3, 3), (21, 21), (50, 37), (64, 64)])
def test_multigrid_cycle_bound(fcoeff, nx, ny):
    prob = _robust_problem(fcoeff, nx, ny)
    _, rep = solve_dirichlet(prob)
    assert rep.residual <= FLOOR_FACTOR * rep.residual_floor
    # with a tol well above the floor only the convergence rate counts
    _, fast = solve_dirichlet(prob, tol=1e3 * rep.residual_floor)
    if (nx, ny) == (3, 3):
        assert fast.iterations == 1  # one interior node: the line solve is exact
    assert fast.iterations <= 12, fast


SWEEP_COEFFS = ("1", "100", "0.01", "1+100*X^2", "exp(3*Y)", "(1+Y^2)^2",
                "2+sin(5*X)*cos(3*Y)", "1+X^2+Y^2", "0.1+X^4", "1/(1+X^2)")


def test_seeded_random_problems_converge_within_26_cycles():
    # six problems per family on random grids and rectangles, three of them
    # with a source; rounding error the line solves leave in the cycle shows
    # up here as a residual that stalls above FLOOR_FACTOR floors
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
        prob = problem_from_exprs(geom, parse(fcoeff), source, boundary)
        _, rep = solve_dirichlet(prob)  # raises NotConvergedError on a stall
        assert rep.iterations <= 26, (k, fcoeff, nx, ny, rep)


# ---------------------------------------------------------------------------
# line solves

@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("axis", ["y", "x"])
def test_line_solve_matches_dense_reference(axis, uniform):
    # every line length from 1 to 70, both colours; non-uniform positions are
    # what coarse levels see.  x-lines run on the transposed grid, as in relax
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(70 + 2 * (axis == "x") + uniform)
    for length in range(1, 71):
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


def test_solution_bytes_independent_of_blas_threads():
    code = ("import hashlib; from ma_lin import geometry_from_domain, parse, "
            "problem_from_exprs, solve_dirichlet; "
            "g = geometry_from_domain(0.5, 1.5, 0.5, 1.5, 65, 50); "
            "p = problem_from_exprs(g, parse('1+100*X^2'), None, parse('X^2-Y^2')); "
            "print(hashlib.sha256(solve_dirichlet(p)[0].values.tobytes()).hexdigest())")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


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
