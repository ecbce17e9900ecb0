"""Dirichlet solver for U_XX + f(X, Y) U_YY = g(X, Y) on a rectangle.

Five-point scheme, red-black successive over-relaxation with a fixed
relaxation factor and fixed sweep order, so a given problem always produces a
bit-identical solution.  Convergence is declared on the max-norm of the
discrete residual, matching the scheme the solution is supposed to satisfy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .expressions import Const, Expr, Var, diff, evaluate
from .grids import Grid2, GridGeometry, sample

__all__ = [
    "OMEGA", "BoundaryValues", "EllipticProblem", "SolveReport",
    "NotEllipticError", "NotConvergedError", "solve_dirichlet",
    "boundary_from_expr", "boundary_from_edge_exprs", "problem_from_exprs",
    "mms_source", "constant_f_family", "discrete_residual",
]

OMEGA = 1.5  # fixed relaxation factor; no auto-tuning


class NotEllipticError(Exception):
    pass


class NotConvergedError(Exception):
    def __init__(self, report: "SolveReport", grid: Grid2):
        super().__init__(
            f"no convergence after {report.iterations} iterations "
            f"(residual {report.residual:.3e} > tol {report.tol:.3e})")
        self.report = report
        self.grid = grid


@dataclass(frozen=True)
class BoundaryValues:
    """Dirichlet data on the four edges; corners must agree across edges."""

    left: np.ndarray    # ny values at i = 0
    right: np.ndarray   # ny values at i = nx-1
    bottom: np.ndarray  # nx values at j = 0
    top: np.ndarray     # nx values at j = ny-1

    def __post_init__(self):
        for name in ("left", "right", "bottom", "top"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(a).all():
                raise ValueError(f"{name} boundary values must be finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        corners = [
            ("bottom-left", self.bottom[0], self.left[0]),
            ("bottom-right", self.bottom[-1], self.right[0]),
            ("top-left", self.top[0], self.left[-1]),
            ("top-right", self.top[-1], self.right[-1]),
        ]
        for name, a, b in corners:
            if abs(a - b) > 1e-9 * (1.0 + abs(a)):
                raise ValueError(f"inconsistent {name} corner: {a!r} vs {b!r}")


@dataclass(frozen=True)
class EllipticProblem:
    geom: GridGeometry
    fcoeff: Grid2
    source: Grid2
    boundary: BoundaryValues

    def __post_init__(self):
        if self.geom.nx < 3 or self.geom.ny < 3:
            raise ValueError("need at least 3 nodes per axis")
        for name, g in (("fcoeff", self.fcoeff), ("source", self.source)):
            if g.geom != self.geom:
                raise ValueError(f"{name} grid geometry differs from the problem geometry")
            if not np.isfinite(g.values).all():
                raise ValueError(f"{name} grid must be fully unmasked")
        if self.boundary.left.shape != (self.geom.ny,) or self.boundary.bottom.shape != (self.geom.nx,):
            raise ValueError("boundary array lengths do not match the geometry")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    elapsed: float
    tol: float

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "residual": self.residual,
                "converged": self.converged, "elapsed": self.elapsed, "tol": self.tol}


def discrete_residual(U: np.ndarray, f_int: np.ndarray, g_int: np.ndarray,
                      dx: float, dy: float) -> np.ndarray:
    cx, cy = 1.0 / dx ** 2, f_int / dy ** 2
    return (cx * (U[1:-1, 2:] + U[1:-1, :-2] - 2.0 * U[1:-1, 1:-1])
            + cy * (U[2:, 1:-1] + U[:-2, 1:-1] - 2.0 * U[1:-1, 1:-1])
            - g_int)


def solve_dirichlet(problem: EllipticProblem, tol: Optional[float] = None,
                    max_iter: int = 100_000) -> tuple[Grid2, SolveReport]:
    """Solve the five-point scheme to a max-norm residual below tol.

    Rejects any non-positive coefficient node (the Dirichlet problem is only
    well-posed for f > 0).  Raises NotConvergedError, carrying the report and
    the last iterate, when max_iter is hit first.
    """
    f = problem.fcoeff.values
    if not np.all(f > 0.0):
        worst = float(np.min(f))
        raise NotEllipticError(f"coefficient must be positive everywhere, min f = {worst:g}")
    geom = problem.geom
    g_int = problem.source.values[1:-1, 1:-1]
    f_int = f[1:-1, 1:-1]
    if tol is None:
        tol = 1e-10 * (1.0 + float(np.max(np.abs(problem.source.values))))

    U = np.zeros((geom.ny, geom.nx))
    U[:, 0] = problem.boundary.left
    U[:, -1] = problem.boundary.right
    U[0, :] = problem.boundary.bottom
    U[-1, :] = problem.boundary.top

    cx = 1.0 / geom.dx ** 2
    cy = f_int / geom.dy ** 2
    diag = 2.0 * cx + 2.0 * cy
    parity = (np.add.outer(np.arange(1, geom.ny - 1), np.arange(1, geom.nx - 1))) % 2
    colors = (parity == 0, parity == 1)

    start = time.perf_counter()
    it = 0
    res = math.inf
    while it < max_iter:
        for mask in colors:
            nb = (cx * (U[1:-1, 2:] + U[1:-1, :-2])
                  + cy * (U[2:, 1:-1] + U[:-2, 1:-1]))
            delta = OMEGA * (nb - g_int - diag * U[1:-1, 1:-1]) / diag
            U[1:-1, 1:-1][mask] += delta[mask]
        it += 1
        res = float(np.max(np.abs(discrete_residual(U, f_int, g_int, geom.dx, geom.dy))))
        if res <= tol:
            report = SolveReport(iterations=it, residual=res, converged=True,
                                 elapsed=time.perf_counter() - start, tol=tol)
            return Grid2(geom, U), report
    report = SolveReport(iterations=it, residual=res, converged=False,
                         elapsed=time.perf_counter() - start, tol=tol)
    raise NotConvergedError(report, Grid2(geom, U))


# ---------------------------------------------------------------------------
# problem construction

def boundary_from_expr(e: Expr, geom: GridGeometry,
                       names: tuple[str, str] = ("X", "Y")) -> BoundaryValues:
    """Trace of a closed form on all four edges."""
    n1, n2 = names
    xs, ys = geom.xs(), geom.ys()
    return BoundaryValues(
        left=evaluate(e, {n1: xs[0], n2: ys}),
        right=evaluate(e, {n1: xs[-1], n2: ys}),
        bottom=evaluate(e, {n1: xs, n2: ys[0]}),
        top=evaluate(e, {n1: xs, n2: ys[-1]}),
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
