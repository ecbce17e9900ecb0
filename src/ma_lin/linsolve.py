"""Dirichlet solver for U_XX + f(X, Y) U_YY = g(X, Y) on a rectangle.

Five-point scheme, solved by geometric multigrid (Briggs, Henson and
McCormick, *A Multigrid Tutorial*): V-cycles of alternating zebra line
relaxation, which stays robust when f makes the problem strongly anisotropic.
Each level keeps every other node of the finer one, so any grid with at least
3 nodes per axis coarsens down to one with 3 nodes on some axis, where a
single line solve is exact; an axis with an even node count merges its last
three intervals into one.  Transfers are 1-D linear interpolation and its
transpose weighted by control-volume width (full weighting on a uniform
axis).  Coarse levels are rediscretised on their (possibly non-uniform) nodes
with f carried down by that same restriction: the average a smooth error's
restricted defect actually sees, where plain injection of a fast-varying f
such as exp(3*Y) makes the cycle diverge.

Each zebra half-step solves every line of one colour exactly, all at once,
by cyclic reduction (see `_Lines`): about 2 log2 L whole-array steps for
lines of L nodes.  One V-cycle is thus O(nodes) arithmetic in O(log^2 n)
numpy calls, and the cycle count does not grow with n.

Every operation in a cycle is elementwise numpy arithmetic in a fixed order,
with no BLAS or LAPACK call, so a given problem always produces a
bit-identical solution whatever the thread count.  Convergence is declared on
the max-norm of the discrete residual, matching the scheme the solution is
supposed to satisfy, against a scale-aware bound: by default
``max|r| <= FLOOR_FACTOR * residual_floor`` with
``residual_floor = eps * (2/dx^2 + 2*max f/dy^2) * max|U|``, the size of the
residual that rounding U to doubles alone can leave.
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
    "FLOOR_FACTOR", "BoundaryValues", "EllipticProblem", "SolveReport",
    "NotEllipticError", "NotConvergedError", "solve_dirichlet",
    "boundary_from_expr", "boundary_from_edge_exprs", "problem_from_exprs",
    "mms_source", "constant_f_family", "discrete_residual",
]

# Default acceptance: max|r| <= FLOOR_FACTOR * residual_floor.  Iterates that
# had stopped improving, and np.linalg.solve's dense solutions, measured 0.02
# to 2 floors on grids of 3 to 129 nodes per axis; 4 leaves room for the spread.
FLOOR_FACTOR = 4.0
STALL_CYCLES = 3    # give up when this many V-cycles in a row fail to halve the residual


class NotEllipticError(Exception):
    pass


class NotConvergedError(Exception):
    def __init__(self, report: "SolveReport", grid: Grid2):
        super().__init__(
            f"no convergence after {report.iterations} V-cycles "
            f"(residual {report.residual:.3e} > tol {report.tol:.3e}; "
            f"rounding floor {report.residual_floor:.3e})")
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
    iterations: int  # V-cycles run
    residual: float
    converged: bool
    elapsed: float
    tol: float
    residual_floor: float

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "residual": self.residual,
                "converged": self.converged, "elapsed": self.elapsed, "tol": self.tol,
                "residual_floor": self.residual_floor}


def discrete_residual(U: np.ndarray, f_int: np.ndarray, g_int: np.ndarray,
                      dx: float, dy: float) -> np.ndarray:
    cx, cy = 1.0 / dx ** 2, f_int / dy ** 2
    return (cx * (U[1:-1, 2:] + U[1:-1, :-2] - 2.0 * U[1:-1, 1:-1])
            + cy * (U[2:, 1:-1] + U[:-2, 1:-1] - 2.0 * U[1:-1, 1:-1])
            - g_int)


# ---------------------------------------------------------------------------
# multigrid

def _coarse_nodes(n: int) -> np.ndarray:
    """Indices of the nodes of an n-node axis that the next coarser level keeps."""
    keep = list(range(0, n - 1, 2)) + [n - 1]
    if n % 2 == 0 and n >= 6:
        del keep[-2]  # one interval of three, rather than a short one at the end
    return np.array(keep)


def _stencil(pos: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the low and high neighbours in the second difference at each
    interior node of an axis whose nodes sit at pos * h (pos integer)."""
    lo, hi = np.diff(pos)[:-1], np.diff(pos)[1:]
    return 1.0 / (h ** 2 * (lo * (lo + hi) / 2)), 1.0 / (h ** 2 * (hi * (lo + hi) / 2))


def _widths(pos: np.ndarray) -> np.ndarray:
    """Control-volume width of each node."""
    half = np.diff(pos) / 2
    return np.r_[half, 0.0] + np.r_[0.0, half]


def _ell(rows: list[list[tuple[int, float]]]) -> tuple[np.ndarray, np.ndarray]:
    """A sparse 1-D transfer as (index, weight) arrays of one width, zero-padded."""
    width = max(len(r) for r in rows)
    idx = np.zeros((len(rows), width), dtype=np.intp)
    w = np.zeros((len(rows), width))
    for k, r in enumerate(rows):
        for m, (i, v) in enumerate(r):
            idx[k, m], w[k, m] = i, v
    return idx, w


def _transfers(pos: np.ndarray, keep: np.ndarray):
    """Linear interpolation from the kept nodes to all of pos, and its transpose
    weighted by control-volume widths (full weighting on a uniform axis).
    The restriction's weights sum to one on each interior coarse node, and
    its two boundary rows are empty."""
    coarse = pos[keep]
    left = np.clip(np.searchsorted(coarse, pos, side="right") - 1, 0, len(coarse) - 2)
    t = (pos - coarse[left]) / (coarse[left + 1] - coarse[left])
    prolong = [[(int(m), 1.0 - float(s)), (int(m) + 1, float(s))] for m, s in zip(left, t)]
    wf, wc = _widths(pos), _widths(coarse)
    restrict = [[] for _ in coarse]
    for i, row in enumerate(prolong):
        for m, v in row:
            if v != 0.0 and 0 < m < len(coarse) - 1:
                restrict[m].append((i, v * wf[i] / wc[m]))
    restrict[0] = restrict[-1] = [(0, 0.0)]
    return _ell(prolong), _ell(restrict)


def _apply(ell, A: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 1-D transfer along one axis of A, term by term in a fixed order."""
    idx, w = ell
    shape = (-1, 1) if axis == 0 else (1, -1)
    out = w[:, 0].reshape(shape) * np.take(A, idx[:, 0], axis=axis)
    for m in range(1, idx.shape[1]):
        out += w[:, m].reshape(shape) * np.take(A, idx[:, m], axis=axis)
    return out


class _Lines:
    """One colour of zebra lines in one direction, with its cyclic-reduction
    multipliers.

    Arrays are indexed (position along the line, line).  A line's equations
    are ``diag u - lo u_prev - hi u_next = left u_left + right u_right - g``,
    where left and right are the lines beside it; `first` is the full index
    of the first line, counted across the lines.

    Cyclic reduction (Buzbee, Golub and Nielson 1970): each level eliminates
    the odd positions of the system above it, leaving a tridiagonal system on
    the even ones, until one position is left.  A line of L positions takes
    about 2 log2 L whole-array steps per solve instead of the 2 L of the
    Thomas recurrence, and the multipliers take about 4 L numbers per line:
    per level, 1/diag and the two couplings over it at the eliminated
    positions, and the couplings of the kept positions to them, which on the
    first level are views of the stencil arrays."""

    def __init__(self, lo, hi, left, right, diag, first: int):
        sel = np.s_[:, first - 1::2]
        lo, hi, diag = lo[sel], hi[sel], diag[sel]
        self.first, self.left, self.right = first, left[sel], right[sel]
        self.lo_first, self.hi_last = lo[0].copy(), hi[-1].copy()  # couplings to the boundary
        sub, sup = lo[1:], hi[:-1]  # position m+1 to m, and m to m+1
        self.levels = []
        while diag.shape[0] > 1:
            k = (diag.shape[0] + 1) // 2  # positions kept
            inv = np.ascontiguousarray(1.0 / diag[1::2])
            lo_k, hi_k = sub[1::2], sup[0::2]  # kept positions to the eliminated ones
            if self.levels:  # own them, rather than keep the whole level above alive
                lo_k, hi_k = np.ascontiguousarray(lo_k), np.ascontiguousarray(hi_k)
            p, q = sub[0::2] * inv, sup[1::2] * inv[:k - 1]  # eliminated to kept, over diag
            diag = diag[0::2].copy()
            diag[1:] -= lo_k * q
            diag[:hi_k.shape[0]] -= hi_k * p
            sub, sup = lo_k * p[:k - 1], hi_k[:k - 1] * q
            self.levels.append((lo_k, hi_k, inv, np.ascontiguousarray(p), np.ascontiguousarray(q)))
        self.inv_last = 1.0 / diag

    def solve(self, V: np.ndarray, G: np.ndarray) -> None:
        """Solve every line of this colour exactly, in place, with the lines
        beside it held fixed (cyclic reduction, all lines at once)."""
        n = V.shape[1]
        cols = np.s_[self.first:n - 1:2]
        d = self.left * V[1:-1, self.first - 1:n - 2:2] + self.right * V[1:-1, self.first + 1::2]
        d -= G[1:-1, cols]
        d[0] += self.lo_first * V[0, cols]
        d[-1] += self.hi_last * V[-1, cols]
        # each level works on contiguous copies of its kept and eliminated
        # rows: numpy arithmetic on strided row views costs about three times
        # as much per call
        stack = [d]
        for lo_k, hi_k, inv, p, q in self.levels:
            kept, gone = stack[-1][0::2].copy(), stack[-1][1::2].copy()
            gone *= inv
            kept[1:] += lo_k * gone[:lo_k.shape[0]]
            kept[:hi_k.shape[0]] += hi_k * gone
            stack += [gone, kept]
        u = stack.pop()
        u *= self.inv_last
        for lo_k, hi_k, inv, p, q in reversed(self.levels):
            gone, x = stack.pop(), stack.pop()
            gone += p * u[:p.shape[0]]
            gone[:q.shape[0]] += q * u[1:]
            x[0::2], x[1::2] = u, gone
            u = x
        V[1:-1, cols] = u


class _Level:
    """One level of the hierarchy: the five-point operator
    ``W u_w + E u_e + S u_s + N u_n - C u`` on nodes at (px*dx, py*dy), its
    zebra lines, and, unless an axis has 3 nodes, the transfers to the next
    coarser level and that level."""

    def __init__(self, f: np.ndarray, px: np.ndarray, py: np.ndarray, dx: float, dy: float):
        self.shape = f.shape
        w, e = _stencil(px, dx)
        s, n = _stencil(py, dy)
        fi = f[1:-1, 1:-1]
        W, E = np.broadcast_to(w, fi.shape), np.broadcast_to(e, fi.shape)
        S, N = fi * s[:, None], fi * n[:, None]
        C = W + E + S + N
        self.op = (W, E, S, N, C)
        # zebra colours: lines at odd full indices first, then at even ones
        self.y_lines = [_Lines(S, N, W, E, C, k) for k in (1, 2) if k < f.shape[1] - 1]
        self.x_lines = [_Lines(W.T, E.T, S.T, N.T, C.T, k) for k in (1, 2)
                        if k < f.shape[0] - 1]
        self.coarse = None
        if min(f.shape) > 3:
            kx, ky = _coarse_nodes(len(px)), _coarse_nodes(len(py))
            self.prolong_x, self.restrict_x = _transfers(px, kx)
            self.prolong_y, self.restrict_y = _transfers(py, ky)
            self.coarse = _Level(self.restrict(f), px[kx], py[ky], dx, dy)

    def restrict(self, A: np.ndarray) -> np.ndarray:
        return _apply(self.restrict_x, _apply(self.restrict_y, A, 0), 1)

    def prolong(self, A: np.ndarray) -> np.ndarray:
        return _apply(self.prolong_x, _apply(self.prolong_y, A, 0), 1)

    def defect(self, U: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g - (operator applied to U) on the interior, zero on the boundary."""
        W, E, S, N, C = self.op
        r = np.zeros(self.shape)
        r[1:-1, 1:-1] = g[1:-1, 1:-1] - (W * U[1:-1, :-2] + E * U[1:-1, 2:] + S * U[:-2, 1:-1]
                                         + N * U[2:, 1:-1] - C * U[1:-1, 1:-1])
        return r

    def relax(self, U: np.ndarray, g: np.ndarray) -> None:
        """One alternating zebra step: every Y-line, then every X-line.  Exact
        when an axis has 3 nodes."""
        for lines in self.y_lines:
            lines.solve(U, g)
        for lines in self.x_lines:
            lines.solve(U.T, g.T)

    def cycle(self, U: np.ndarray, g: np.ndarray) -> None:
        """One V(1,1)-cycle on U in place; the coarsest level relaxes once."""
        self.relax(U, g)
        if self.coarse is None:
            return
        ec = np.zeros(self.coarse.shape)
        self.coarse.cycle(ec, self.restrict(self.defect(U, g)))
        U += self.prolong(ec)
        self.relax(U, g)


def solve_dirichlet(problem: EllipticProblem, tol: Optional[float] = None,
                    max_iter: int = 100_000) -> tuple[Grid2, SolveReport]:
    """Solve the five-point scheme to a max-norm residual below tol.

    The default tol is FLOOR_FACTOR times the rounding floor of the current
    iterate.  Rejects any non-positive coefficient node (the Dirichlet problem
    is only well-posed for f > 0).  Raises NotConvergedError, carrying the
    report and the last iterate, when max_iter V-cycles are run or when
    STALL_CYCLES cycles in a row fail to halve the residual, whichever is first.
    """
    f = problem.fcoeff.values
    if not np.all(f > 0.0):
        worst = float(np.min(f))
        raise NotEllipticError(f"coefficient must be positive everywhere, min f = {worst:g}")
    start = time.perf_counter()
    geom = problem.geom
    g = problem.source.values
    f_int, g_int = f[1:-1, 1:-1], g[1:-1, 1:-1]
    scale = float(np.finfo(np.float64).eps) * (2.0 / geom.dx ** 2 + 2.0 * float(np.max(f_int)) / geom.dy ** 2)

    U = np.zeros((geom.ny, geom.nx))
    U[:, 0] = problem.boundary.left
    U[:, -1] = problem.boundary.right
    U[0, :] = problem.boundary.bottom
    U[-1, :] = problem.boundary.top

    top = _Level(f, np.arange(geom.nx), np.arange(geom.ny), geom.dx, geom.dy)
    cycles, mark, since = 0, math.inf, 0
    while True:
        res = float(np.max(np.abs(discrete_residual(U, f_int, g_int, geom.dx, geom.dy))))
        floor = scale * float(np.max(np.abs(U)))
        bound = FLOOR_FACTOR * floor if tol is None else tol
        if res < 0.5 * mark:
            mark, since = res, 0
        else:
            since += 1
        if res <= bound or cycles >= max_iter or since >= STALL_CYCLES:
            break
        top.cycle(U, g)
        cycles += 1
    report = SolveReport(iterations=cycles, residual=res, converged=res <= bound,
                         elapsed=time.perf_counter() - start, tol=bound,
                         residual_floor=floor)
    if not report.converged:
        raise NotConvergedError(report, Grid2(geom, U))
    return Grid2(geom, U), report


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
