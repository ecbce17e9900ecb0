"""Dirichlet solver for U_XX + f(X, Y) U_YY = g(X, Y) on a rectangle.

When the sampled f is constant along every grid row (f = f(Y): 1 or
(1+Y^2)^2 for most of the catalog), the five-point scheme is solved directly
by a sine transform in X and one tridiagonal solve in Y per mode (see
`_fourier_start`); V-cycles follow only if the residual that start leaves
misses the bound.  The test is exact, on the grid values, and f = f(X) is
deliberately not covered: it stays on the multigrid.

Otherwise the solve starts by nested iteration and runs the V-cycles of the
geometric multigrid in `ma_lin.multigrid`, which this module loads where it
first builds a hierarchy, so a solve that the Fourier start finishes never
loads it.  The finest level's V-cycle after the nested start is the first
iteration counted.

Every operation of the multigrid is elementwise numpy arithmetic or a sum in
a fixed order, with no BLAS or LAPACK call, and the Fourier start's
transforms run in numpy's pocketfft, which calls neither BLAS nor threads,
so a given problem always produces a bit-identical solution whatever the
thread count.  Convergence is declared on the max-norm of the
discrete residual, matching the scheme the solution is supposed to satisfy,
against a scale-aware bound: by default ``max|r| <= FLOOR_FACTOR * residual_floor``
with ``residual_floor = eps * (2/dx^2 + 2*max f/dy^2) * max|U|``, the size of
the residual that rounding U to doubles alone can leave.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from typing import Optional, Union

import numpy as np

from .expressions import Const, Expr, Rejection, Var, _Value, diff, evaluate
from .grids import Grid2, GridGeometry, sample

__all__ = [
    "FLOOR_FACTOR", "BoundaryValues", "EllipticProblem", "SolveReport",
    "NotEllipticError", "NotConvergedError", "finite_number", "check_solve_limits",
    "solve_dirichlet",
    "boundary_from_expr", "boundary_from_edge_exprs", "problem_from_exprs",
    "mms_source", "constant_f_family", "discrete_residual",
]

# Default acceptance: max|r| <= FLOOR_FACTOR * residual_floor.  Iterates that
# had stopped improving, and np.linalg.solve's dense solutions, measured 0.02
# to 2 floors on grids of 3 to 129 nodes per axis; 4 leaves room for the spread.
FLOOR_FACTOR = 4.0
STALL_CYCLES = 3    # give up when this many V-cycles in a row fail to halve the residual


class NotEllipticError(Rejection):
    pass


class NotConvergedError(Exception):
    def __init__(self, report: "SolveReport", grid: Grid2):
        super().__init__(
            f"no convergence after {report.iterations} V-cycles "
            f"(residual {report.residual:.3e} > tol {report.tol:.3e}; "
            f"rounding floor {report.residual_floor:.3e})")
        self.report = report
        self.grid = grid


class BoundaryValues(_Value):
    """Dirichlet data on the four edges; corners must agree across edges."""

    left: np.ndarray    # ny values at i = 0
    right: np.ndarray   # ny values at i = nx-1
    bottom: np.ndarray  # nx values at j = 0
    top: np.ndarray     # nx values at j = ny-1

    def __init__(self, left, right, bottom, top):
        edges = {"left": left, "right": right, "bottom": bottom, "top": top}
        for name, a in edges.items():
            a = edges[name] = np.array(a, dtype=np.float64)  # a copy, not the caller's
            if not np.isfinite(a).all():
                raise ValueError(f"{name} boundary values must be finite")
            a.setflags(write=False)
        vars(self).update(edges)
        corners = [
            ("bottom-left", self.bottom[0], self.left[0]),
            ("bottom-right", self.bottom[-1], self.right[0]),
            ("top-left", self.top[0], self.left[-1]),
            ("top-right", self.top[-1], self.right[-1]),
        ]
        for name, a, b in corners:
            if abs(a - b) > 1e-9 * (1.0 + abs(a)):
                raise ValueError(f"inconsistent {name} corner: {a!r} vs {b!r}")


class EllipticProblem(_Value):
    geom: GridGeometry
    fcoeff: Grid2
    source: Grid2
    boundary: BoundaryValues

    def __init__(self, geom, fcoeff, source, boundary):
        if geom.nx < 3 or geom.ny < 3:
            raise ValueError(f"need at least 3 nodes per axis, got nx={geom.nx}, ny={geom.ny}")
        for name, g in (("fcoeff", fcoeff), ("source", source)):
            if g.geom != geom:
                raise ValueError(f"{name} grid geometry differs from the problem geometry")
            if not np.isfinite(g.values).all():
                raise ValueError(f"{name} grid must be fully unmasked")
        if boundary.left.shape != (geom.ny,) or boundary.bottom.shape != (geom.nx,):
            raise ValueError("boundary array lengths do not match the geometry")
        vars(self).update(geom=geom, fcoeff=fcoeff, source=source, boundary=boundary)


class SolveReport(_Value):
    iterations: int  # V-cycles run, the finest one of the nested start included
    residual: float
    converged: bool
    elapsed: float
    # of elapsed, running the Fourier start or building the hierarchy (its
    # transfers, lines and inverse), or both when cycles follow the Fourier start
    setup_seconds: float
    tol: float
    residual_floor: float
    residuals: tuple     # max|r| at each convergence check, the first after the start
    levels: tuple        # (nx, ny) of each multigrid level, finest first; () if none was built
    direct_unknowns: int  # interior nodes of the level solved exactly, 0 if none
    start: str           # "fourier" or "nested"


def discrete_residual(U: np.ndarray, f_int: np.ndarray, g_int: np.ndarray,
                      dx: float, dy: float) -> np.ndarray:
    cx, cy = 1.0 / dx ** 2, f_int / dy ** 2
    return (cx * (U[1:-1, 2:] + U[1:-1, :-2] - 2.0 * U[1:-1, 1:-1])
            + cy * (U[2:, 1:-1] + U[:-2, 1:-1] - 2.0 * U[1:-1, 1:-1])
            - g_int)


def _fourier_start(U: np.ndarray, f: np.ndarray, g: np.ndarray, dx: float, dy: float) -> None:
    """Solve the scheme directly into U's interior when f is constant along
    every grid row (Hockney 1965; Buzbee, Golub and Nielson 1970).  With the
    boundary values moved into the right-hand side, a sine transform in X
    (DST-I, as the imaginary part of `rfft` of the odd extension, of length
    2N with N = nx - 1) turns the scheme into one tridiagonal system in Y per
    mode k = 1 ... N-1, with diagonal 4/dx^2 sin^2(pi k/2N) + 2 f_j/dy^2 and
    couplings f_j/dy^2: strictly dominant, so the Thomas sweep, run over all
    modes at once, needs no pivoting.  The same transform twice is 2N times
    the identity."""
    N = U.shape[1] - 1
    e = f[1:-1, :1] / dy ** 2  # each interior row's coupling to the rows beside it
    b = -g[1:-1, 1:-1]
    b[:, 0] += U[1:-1, 0] / dx ** 2
    b[:, -1] += U[1:-1, -1] / dx ** 2
    b[0] += e[0] * U[0, 1:-1]
    b[-1] += e[-1] * U[-1, 1:-1]

    odd = np.zeros((len(b), 2 * N))  # both transforms' odd extension: columns 0 and N stay 0
    def dst(A):  # -2 sum_t A_t sin(pi k t/N) for k = 1 ... N-1
        odd[:, 1:N], odd[:, N + 1:] = A, -A[:, ::-1]
        return np.fft.rfft(odd, axis=1).imag[:, 1:N]

    # each row divided by its coupling, so that the couplings are all 1
    d = 4.0 / dx ** 2 * np.sin(np.pi / (2 * N) * np.arange(1, N)) ** 2 / e + 2.0
    r, p = dst(b) / e, np.empty(d.shape)
    np.divide(1.0, d[0], out=p[0])
    r[0] *= p[0]
    for dj, rj, r_prev, pj, p_prev in zip(d[1:], r[1:], r, p[1:], p):
        np.subtract(dj, p_prev, out=pj)
        np.divide(1.0, pj, out=pj)
        rj += r_prev
        rj *= pj
    for rj, r_next, pj in zip(r[-2::-1], r[:0:-1], p[-2::-1]):
        rj += pj * r_next
    U[1:-1, 1:-1] = dst(r) / (2 * N)


def _hierarchy(f: np.ndarray, geom: GridGeometry):
    """The multigrid hierarchy on the problem's grid, and the seconds its
    build took.  Its module loads here on a process's first build, outside
    the time taken, which stays the build's alone."""
    from .multigrid import _Level
    t0 = time.perf_counter()
    top = _Level(f, np.arange(geom.nx), np.arange(geom.ny), geom.dx, geom.dy)
    return top, time.perf_counter() - t0


def finite_number(v) -> bool:
    """A real within the doubles' range that is not a bool.  Compared, not
    converted: an int too large for a double is refused, not an OverflowError."""
    big = sys.float_info.max
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and -big <= v <= big


def check_solve_limits(tol, max_iter) -> None:
    """Raise ValueError, naming the field, unless tol is None or a finite
    number >= 0 and max_iter is a whole number >= 1."""
    if tol is not None and not (finite_number(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not (finite_number(max_iter) and max_iter == int(max_iter) and max_iter >= 1):
        raise ValueError(f"max_iter must be a whole number >= 1, got {max_iter!r}")


def solve_dirichlet(problem: EllipticProblem, tol: Optional[float] = None,
                    max_iter: int = 200_000) -> tuple[Grid2, SolveReport]:
    """Solve the five-point scheme to a max-norm residual below tol.

    Starts directly (`_fourier_start`) when f is constant along every grid
    row, and builds the hierarchy only if V-cycles must follow; the report's
    `start` is then "fourier" and `iterations` counts those cycles alone.
    Otherwise it starts by nested iteration (`multigrid._Level.start`):
    every coarser level is solved first and its solution interpolated up, and
    the finest level's V-cycle after that is the first of the `iterations`.
    The default tol is FLOOR_FACTOR times the rounding floor of the current
    iterate; tol = 0 runs until the residual stalls.  Rejects any non-positive
    coefficient node (the Dirichlet problem is only well-posed for f > 0),
    a tol or max_iter that `check_solve_limits` refuses, and data on which
    the five-point operator overflows doubles (ValueError).  Raises
    NotConvergedError, carrying the report and the last iterate, when
    max_iter V-cycles are run or when STALL_CYCLES cycles in a row fail to
    halve the residual, whichever is first.
    """
    check_solve_limits(tol, max_iter)
    f = problem.fcoeff.values
    if not np.all(f > 0.0):
        worst = float(np.min(f))
        raise NotEllipticError(f"coefficient must be positive everywhere, min f = {worst:g}")
    start = time.perf_counter()
    geom = problem.geom
    g = problem.source.values
    f_int, g_int = f[1:-1, 1:-1], g[1:-1, 1:-1]
    stencil = 2.0 / geom.dx ** 2 + 2.0 * float(np.max(f_int)) / geom.dy ** 2
    scale = float(np.finfo(np.float64).eps) * stencil

    U = np.zeros((geom.ny, geom.nx))
    U[:, 0] = problem.boundary.left
    U[:, -1] = problem.boundary.right
    U[0, :] = problem.boundary.bottom
    U[-1, :] = problem.boundary.top
    # the operator's terms at the data, summed over every node as the starts'
    # transforms and the cycles' transfers may sum them, must stay doubles
    data, source = float(np.max(np.abs(U))), float(np.max(np.abs(g)))
    if not (2.0 * stencil * data + source) * U.size < sys.float_info.max:
        raise ValueError(f"the five-point operator overflows doubles on this data: max |boundary| "
                         f"{data:g}, max |source| {source:g}, 2/dx^2 + 2 max f/dy^2 = {stencil:g}")

    if np.all(f == f[:, :1]):
        first, top, cycles = "fourier", None, 0
        t0 = time.perf_counter()
        _fourier_start(U, f, g, geom.dx, geom.dy)
        setup = time.perf_counter() - t0
    else:
        first, cycles = "nested", 1
        top, setup = _hierarchy(f, geom)
    if top is not None:
        top.start(U, g)
    mark, since, residuals = math.inf, 0, []
    while True:
        res = float(np.max(np.abs(discrete_residual(U, f_int, g_int, geom.dx, geom.dy))))
        residuals.append(res)
        floor = scale * float(np.max(np.abs(U)))
        bound = FLOOR_FACTOR * floor if tol is None else float(tol)
        if res < 0.5 * mark:
            mark, since = res, 0
        else:
            since += 1
        if res <= bound or cycles >= max_iter or since >= STALL_CYCLES:
            break
        if top is None:
            top, built = _hierarchy(f, geom)
            setup += built
        top.cycle(U, g)
        cycles += 1
    levels = [] if top is None else top.levels()
    inverse = levels[-1].inverse if levels else None
    report = SolveReport(iterations=cycles, residual=res, converged=res <= bound,
                         elapsed=time.perf_counter() - start, setup_seconds=setup, tol=bound,
                         residual_floor=floor, residuals=tuple(residuals),
                         levels=tuple(lev.shape[::-1] for lev in levels),
                         direct_unknowns=0 if inverse is None else len(inverse), start=first)
    if not report.converged:
        raise NotConvergedError(report, Grid2(geom, U))
    return Grid2(geom, U), report


# ---------------------------------------------------------------------------
# problem construction

def boundary_from_expr(e: Expr, geom: GridGeometry) -> BoundaryValues:
    """Trace of a closed form in (X, Y) on all four edges."""
    xs, ys = geom.xs(), geom.ys()
    return BoundaryValues(
        left=evaluate(e, {"X": xs[0], "Y": ys}),
        right=evaluate(e, {"X": xs[-1], "Y": ys}),
        bottom=evaluate(e, {"X": xs, "Y": ys[0]}),
        top=evaluate(e, {"X": xs, "Y": ys[-1]}),
    )


def boundary_from_edge_exprs(left: Expr, right: Expr, bottom: Expr, top: Expr,
                             geom: GridGeometry) -> BoundaryValues:
    """Edge expressions in the edge's running coordinate: Y on left/right, X on bottom/top."""
    xs, ys = geom.xs(), geom.ys()
    return BoundaryValues(
        left=evaluate(left, {"Y": ys}),
        right=evaluate(right, {"Y": ys}),
        bottom=evaluate(bottom, {"X": xs}),
        top=evaluate(top, {"X": xs}),
    )


def problem_from_exprs(geom: GridGeometry, fcoeff: Expr,
                       source: Optional[Expr],
                       boundary: Union[Expr, BoundaryValues]) -> EllipticProblem:
    fgrid = sample(fcoeff, ("X", "Y"), geom)
    if source is None:
        sgrid = Grid2(geom, np.zeros((geom.ny, geom.nx)))
    else:
        sgrid = sample(source, ("X", "Y"), geom)
    if isinstance(boundary, Expr):
        boundary = boundary_from_expr(boundary, geom)
    return EllipticProblem(geom=geom, fcoeff=fgrid, source=sgrid, boundary=boundary)


# ---------------------------------------------------------------------------
# manufactured sources and closed-form families

def mms_source(Ustar: Expr, fcoeff: Expr) -> Expr:
    """The source U*_XX + f * U*_YY that makes U* an exact solution."""
    return diff(diff(Ustar, "X"), "X") + fcoeff * diff(diff(Ustar, "Y"), "Y")


def constant_f_family(c2: float, n: int, part: str = "re") -> Expr:
    """Degree-n harmonic polynomial in the stretched coordinates (X, Y/sqrt(c2)).

    Exact solutions of U_XX + c2*U_YY = 0 for constant c2 > 0; `part` picks
    the real or imaginary part of (X + i*Y/sqrt(c2))^n.
    """
    if not c2 > 0:
        raise ValueError(f"constant coefficient must be positive, got {c2!r}")
    if n < 1:
        raise ValueError("polynomial index must be >= 1")
    if part not in ("re", "im"):
        raise ValueError("part must be 're' or 'im'")
    scale = 1.0 / math.sqrt(c2)
    X, Y = Var("X"), Var("Y")
    start = 0 if part == "re" else 1
    terms = []
    for k in range(start, n + 1, 2):
        sign = -1.0 if (k // 2) % 2 == 1 else 1.0
        coeff = sign * math.comb(n, k) * scale ** k
        term: Expr = Const(coeff)
        if n - k > 0:
            term = term * (X ** Const(float(n - k)))
        if k > 0:
            term = term * (Y ** Const(float(k)))
        terms.append(term)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out
