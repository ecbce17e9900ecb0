"""Dirichlet solver for U_XX + f(X, Y) U_YY = g(X, Y) on a rectangle.

Five-point scheme, solved by geometric multigrid (Briggs, Henson and
McCormick, *A Multigrid Tutorial*): V-cycles of alternating zebra line
relaxation, which stays robust when f makes the problem strongly anisotropic.
Each level keeps every other node of the finer one; an axis with an even node
count merges its last three intervals into one.  The hierarchy ends at the
first level with 3 nodes on some axis, where a single line solve is exact,
or before it at the first coarse level whose interior has at most
DIRECT_SIDE nodes on each axis, which is solved exactly by a dense inverse
built once per solve.
Transfers are 1-D linear interpolation and its transpose weighted by
control-volume width (full weighting on a uniform axis).  Coarse levels are
rediscretised on their (possibly non-uniform) nodes with f carried down by
that same restriction: the average a smooth error's restricted defect
actually sees, where plain injection of a fast-varying f such as exp(3*Y)
makes the cycle diverge.

Each zebra half-step solves every line of one colour exactly, all at once
(see `_Lines`): cyclic reduction halves the lines until at most PCR_SIDE
positions are left, parallel cyclic reduction solves those in at most
log2 PCR_SIDE steps with no back-substitution, and only the halving levels
are substituted back.  On lines this short numpy's per-call overhead, not
arithmetic, sets the time, and the hybrid makes fewer calls than cyclic
reduction all the way down: one V-cycle at 65x65 took 0.70 ms against
0.91 ms.  One V-cycle is thus O(nodes) arithmetic in O(log^2 n) numpy calls,
and the cycle count does not grow with n.  Below the direct level the coarse
grids would cost about as many numpy calls per cycle as the fine ones while
holding almost none of the nodes; one multiply-and-sum with the inverse
replaces them.

A solve starts by nested iteration (full multigrid, *A Multigrid Tutorial*
ch. 3) rather than from a zero interior: each coarse level takes its boundary
values by injection from the level above and its right-hand side by
restriction, the coarsest is solved exactly, and going up each level's
interior is interpolated from the one below and given one V-cycle.  The
finest level's cycle is the first iteration counted; it leaves an error near
the discretization error, not of the size of the boundary data, and spares
the 2-4 cycles a zero start spends getting there.

Every operation in a cycle, and in building the inverse, is elementwise
numpy arithmetic or a sum in a fixed order (the inverse's block products run
in numpy's own einsum loop), with no BLAS or LAPACK call, so
a given problem always produces a bit-identical solution whatever the thread
count.  Convergence is declared on the max-norm of the discrete residual,
matching the scheme the solution is supposed to satisfy, against a
scale-aware bound: by default ``max|r| <= FLOOR_FACTOR * residual_floor``
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

from .expressions import Const, Expr, Var, _Value, diff, evaluate
from .grids import Grid2, GridGeometry, sample

__all__ = [
    "FLOOR_FACTOR", "DIRECT_SIDE", "PCR_SIDE", "BoundaryValues", "EllipticProblem", "SolveReport",
    "NotEllipticError", "NotConvergedError", "check_solve_limits", "solve_dirichlet",
    "boundary_from_expr", "boundary_from_edge_exprs", "problem_from_exprs",
    "mms_source", "constant_f_family", "discrete_residual",
]

# Default acceptance: max|r| <= FLOOR_FACTOR * residual_floor.  Iterates that
# had stopped improving, and np.linalg.solve's dense solutions, measured 0.02
# to 2 floors on grids of 3 to 129 nodes per axis; 4 leaves room for the spread.
FLOOR_FACTOR = 4.0
STALL_CYCLES = 3    # give up when this many V-cycles in a row fail to halve the residual
# A coarse level with at most this many interior nodes on each axis, so at
# most 256 unknowns, is solved by a dense inverse: at 65x65 the 17x17 level
# and those below it took 45% of each V-cycle.  The inverse holds at most
# 16^4 doubles, 0.5 MB.  It is applied as one multiply and a sum along rows,
# whose order of additions the cycle counts rest on: an einsum apply, which
# adds in another order, took Laplace at 129x129 from 7 V-cycles to 8.
# Bounding the unknowns alone lets a thin level through: the 127-node rows
# of a 129x4 level took 33 MB and tripled a 257x7 solve, and the 127 rows of
# a 4x129 level cost more to eliminate one by one than the cycles saved.
DIRECT_SIDE = 16
# Line solves run cyclic reduction while more than this many positions are
# left, and parallel cyclic reduction on the rest: one colour of 65x65 lines
# of 63 positions took 38 us instead of 50-52, of 31 positions 22 instead of
# 34, and a 65x65 V-cycle 0.70 ms instead of 0.91.  8 and 32 took 0.74 and
# 0.73 ms per cycle.  Pure parallel reduction would store 2 L log2 L
# multipliers per line, and its rounding grows with L: at 64 a line solve's
# residual passed 8 eps.
PCR_SIDE = 16


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
    setup_seconds: float  # of elapsed, building the hierarchy (its transfers, lines and inverse)
    tol: float
    residual_floor: float
    residuals: tuple     # max|r| at each convergence check, the first after the start
    levels: tuple        # (nx, ny) of each multigrid level, finest first
    direct_unknowns: int  # interior nodes of the level solved exactly, 0 if none

    def __init__(self, iterations, residual, converged, elapsed, setup_seconds, tol,
                 residual_floor, residuals, levels, direct_unknowns):
        vars(self).update(iterations=iterations, residual=residual, converged=converged,
                          elapsed=elapsed, setup_seconds=setup_seconds, tol=tol,
                          residual_floor=residual_floor, residuals=residuals, levels=levels,
                          direct_unknowns=direct_unknowns)


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
    w = np.zeros(len(pos))
    w[:-1] = half
    w[1:] += half
    return w


def _transfers(pos: np.ndarray, keep: np.ndarray):
    """Linear interpolation from the kept nodes to all of pos, and its transpose
    weighted by control-volume widths (full weighting on a uniform axis), each
    as (index, weight) arrays of one width, zero-padded.  The restriction's
    weights sum to one on each interior coarse node and come in fine-node
    order; its two boundary rows are empty."""
    coarse = pos[keep]
    nc = len(coarse)
    left = np.clip(np.searchsorted(coarse, pos, side="right") - 1, 0, nc - 2)
    t = (pos - coarse[left]) / (coarse[left + 1] - coarse[left])
    prolong = np.stack((left, left + 1), axis=1), np.stack((1.0 - t, t), axis=1)
    # every nonzero interpolation weight into an interior coarse node m,
    # grouped by m (a stable sort keeps the fine nodes in order)
    fine, m, v = np.repeat(np.arange(len(pos)), 2), prolong[0].ravel(), prolong[1].ravel()
    use = (v != 0.0) & (m > 0) & (m < nc - 1)
    order = np.argsort(m[use], kind="stable")
    fine, m, v = fine[use][order], m[use][order], v[use][order]
    counts = np.bincount(m, minlength=nc)
    slot = np.arange(len(m)) - (np.cumsum(counts) - counts)[m]
    idx = np.zeros((nc, max(1, int(counts.max()))), dtype=np.intp)
    w = np.zeros(idx.shape)
    idx[m, slot] = fine
    w[m, slot] = v * _widths(pos)[fine] / _widths(coarse)[m]
    return prolong, (idx, w)


def _terms(ell, axis: int) -> list:
    """A 1-D transfer's (index column, weight column) terms, each weight
    shaped to broadcast along `axis`, split once when the level is built."""
    idx, w = ell
    shape = (-1, 1) if axis == 0 else (1, -1)
    return [(np.ascontiguousarray(idx[:, m]), w[:, m].reshape(shape))
            for m in range(idx.shape[1])]


def _apply(terms: list, A: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 1-D transfer along one axis of A, term by term in a fixed order."""
    (i, w), *rest = terms
    out = w * np.take(A, i, axis=axis)
    for i, w in rest:
        out += w * np.take(A, i, axis=axis)
    return out


class _Lines:
    """One colour of zebra lines in one direction, with its cyclic-reduction
    and parallel-cyclic-reduction multipliers.

    Arrays are indexed (position along the line, line).  A line's equations
    are ``diag u - lo u_prev - hi u_next = left u_left + right u_right - g``,
    where left and right are the lines beside it; `first` is the full index
    of the first line, counted across the lines.

    Cyclic reduction (Buzbee, Golub and Nielson 1970) runs while more than
    PCR_SIDE positions remain: each level eliminates the odd positions of the
    system above it, leaving a tridiagonal system on the even ones.  Its
    multipliers take about 4 L numbers per line: per level, 1/diag and the
    two couplings over it at the eliminated positions, and the couplings of
    the kept positions to them, which on the first level are views of the
    stencil arrays.  The system left, of K <= PCR_SIDE positions, is solved
    by parallel cyclic reduction (Hockney and Jesshope 1988): the step of
    stride s = 1, 2, 4, ... adds to every equation the multiples of the
    equations s positions away that eliminate its neighbours, so that after
    ceil(log2 K) steps each equation holds one unknown.  Those steps need no
    back-substitution, two multipliers per position and step, and one
    reciprocal diagonal at the end; only the cyclic-reduction levels are
    substituted back.  A line of 63 positions takes 2 reduction levels and 4
    parallel steps, against 6 reduction levels forward and back, in fewer
    numpy calls on short arrays, where call overhead rather than arithmetic
    sets the time (the CR-to-PCR hybrid of Zhang, Cohen and Owens 2010)."""

    def __init__(self, lo, hi, left, right, diag, first: int):
        sel = np.s_[:, first - 1::2]
        lo, hi, diag = lo[sel], hi[sel], diag[sel]
        self.first, self.left, self.right = first, left[sel], right[sel]
        self.lo_first, self.hi_last = lo[0].copy(), hi[-1].copy()  # couplings to the boundary
        sub, sup = lo[1:], hi[:-1]  # position m+1 to m, and m to m+1
        self.levels = []
        while diag.shape[0] > PCR_SIDE:
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
        # parallel cyclic reduction: at stride s, sub[m] couples position
        # m + s to m and sup[m] couples m to m + s
        self.steps = []
        s = 1
        while s < diag.shape[0]:
            m1, m2 = sub / diag[:-s], sup / diag[s:]  # rows m - s and m + s into row m
            diag = diag.copy()
            diag[s:] -= m1 * sup
            diag[:-s] -= m2 * sub
            sub, sup = m1[s:] * sub[:-s], m2[:-s] * sup[s:]
            self.steps.append((s, m1, m2))
            s *= 2
        self.inv_last = 1.0 / diag

    def solve(self, V: np.ndarray, G: np.ndarray) -> None:
        """Solve every line of this colour exactly, in place, with the lines
        beside it held fixed (all lines at once)."""
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
        for s, m1, m2 in self.steps:
            t = m1 * u[:-s]
            u[:-s] += m2 * u[s:]
            u[s:] += t
        u *= self.inv_last
        for lo_k, hi_k, inv, p, q in reversed(self.levels):
            gone, x = stack.pop(), stack.pop()
            gone += p * u[:p.shape[0]]
            gone[:q.shape[0]] += q * u[1:]
            x[0::2], x[1::2] = u, gone
            u = x
        V[1:-1, cols] = u


def _gauss_jordan(T: np.ndarray) -> np.ndarray:
    """Inverse of a small matrix whose Gauss elimination needs no pivoting."""
    n = T.shape[0]
    A = np.concatenate((T, np.eye(n)), axis=1)
    for k in range(n):
        row = A[k] / A[k, k]
        A -= A[:, k, None] * row
        A[k] = row
    return A[:, n:]


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product by numpy's own einsum loop (the default optimize=False),
    which calls no BLAS and adds the terms of each entry in order of the
    summed index, as a multiply over a broadcast (n, n, m) array and a sum
    over its leading axis would, without that array: a 15 x 15 by
    15 x 225 block took 27 us against that form's 99-106 us."""
    return np.einsum("ij,jk->ik", A, B)


def _dense_inverse(W, E, S, N, C) -> np.ndarray:
    """Inverse of ``W u_w + E u_e + S u_s + N u_n - C u`` on the interior
    nodes of a grid, zero on its boundary, with the nodes in row-major order.

    Block elimination over the J grid rows of n nodes (Schur complements),
    without pivoting: the negated operator is an M-matrix.  Row j of it reads
    ``-S_j u_{j-1} + D_j u_j - N_j u_{j+1}`` with D_j tridiagonal.  Forward,
    G_j is the inverse of D_j - S_j G_{j-1} N_{j-1}, and block row j of
    Z = G_j (I_j + S_j Z_{j-1}) holds the eliminated right-hand sides of the
    identity; backward, X_j = Z_j + G_j N_j X_{j+1}.  About 1.5 J^2 n^3
    multiply-adds, and J n pivots in sequence, each on an n x 2n array."""
    J, n = C.shape
    k = np.arange(n)
    Z = np.zeros((J, n, J * n))
    G = []
    for j in range(J):
        T = np.zeros((n, n))
        T[k, k] = C[j]
        T[k[1:], k[:-1]] = -W[j, 1:]
        T[k[:-1], k[1:]] = -E[j, :-1]
        if j:
            T -= S[j][:, None] * G[-1] * N[j - 1]
        G.append(_gauss_jordan(T))
        if j:
            Z[j, :, :j * n] = _product(G[j] * S[j], Z[j - 1, :, :j * n])
        Z[j, :, j * n:(j + 1) * n] = G[j]
    for j in range(J - 2, -1, -1):
        Z[j] += _product(G[j] * N[j], Z[j + 1])
    return -Z.reshape(J * n, J * n)


class _Level:
    """One level of the hierarchy: the five-point operator
    ``W u_w + E u_e + S u_s + N u_n - C u`` on nodes at (px*dx, py*dy) and
    either its dense inverse, for a direct level, or its zebra lines and,
    unless an axis has 3 nodes, the transfers to the next coarser level and
    that level."""

    def __init__(self, f: np.ndarray, px: np.ndarray, py: np.ndarray, dx: float, dy: float,
                 direct: bool = False):
        self.shape = f.shape
        w, e = _stencil(px, dx)
        s, n = _stencil(py, dy)
        fi = f[1:-1, 1:-1]
        W, E = np.broadcast_to(w, fi.shape), np.broadcast_to(e, fi.shape)
        S, N = fi * s[:, None], fi * n[:, None]
        C = W + E + S + N
        self.op = (W, E, S, N, C)
        self.coarse = self.inverse = None
        if direct:
            self.inverse = _dense_inverse(W, E, S, N, C)
            return
        # zebra colours: lines at odd full indices first, then at even ones
        self.y_lines = [_Lines(S, N, W, E, C, k) for k in (1, 2) if k < f.shape[1] - 1]
        self.x_lines = [_Lines(W.T, E.T, S.T, N.T, C.T, k) for k in (1, 2)
                        if k < f.shape[0] - 1]
        if min(f.shape) > 3:
            kx, ky = _coarse_nodes(len(px)), _coarse_nodes(len(py))
            self.prolong_x, self.restrict_x = (_terms(t, 1) for t in _transfers(px, kx))
            self.prolong_y, self.restrict_y = (_terms(t, 0) for t in _transfers(py, ky))
            self.keep = np.ix_(ky, kx)
            # a level with 3 nodes on an axis is already solved exactly by
            # one line solve, with nothing to build
            self.coarse = _Level(self.restrict(f), px[kx], py[ky], dx, dy,
                                 direct=3 < min(len(kx), len(ky))
                                 and max(len(kx), len(ky)) - 2 <= DIRECT_SIDE)

    def start(self, U: np.ndarray, g: np.ndarray) -> None:
        """Nested iteration (full multigrid): solve the coarser levels first,
        each with boundary values injected from the level above and the
        restricted g, interpolate the result into U's interior and run one
        V-cycle.  The coarsest level's cycle is already an exact solve."""
        if self.coarse is not None:
            Uc = U[self.keep]
            self.coarse.start(Uc, self.restrict(g))
            U[1:-1, 1:-1] = self.prolong(Uc)[1:-1, 1:-1]
        self.cycle(U, g)

    def levels(self) -> list:
        """This level and every coarser one."""
        return [self] + (self.coarse.levels() if self.coarse is not None else [])

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
        """One V(1,1)-cycle on U in place; the coarsest level relaxes once.  A
        direct level solves exactly instead: the inverse, which assumes zero
        boundary values, corrects U by its applied defect."""
        if self.inverse is not None:
            inner = U[1:-1, 1:-1]
            d = self.defect(U, g)[1:-1, 1:-1].ravel()
            inner += (self.inverse * d).sum(axis=1).reshape(inner.shape)
            return
        self.relax(U, g)
        if self.coarse is None:
            return
        ec = np.zeros(self.coarse.shape)
        self.coarse.cycle(ec, self.restrict(self.defect(U, g)))
        U += self.prolong(ec)
        self.relax(U, g)


def check_solve_limits(tol, max_iter) -> None:
    """Raise ValueError, naming the field, unless tol is None or a finite
    number >= 0 and max_iter is a whole number >= 1."""
    def finite(v):  # compared, not converted: an int too large for a double is refused too
        big = sys.float_info.max
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and -big <= v <= big
    if tol is not None and not (finite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not (finite(max_iter) and max_iter == int(max_iter) and max_iter >= 1):
        raise ValueError(f"max_iter must be a whole number >= 1, got {max_iter!r}")


def solve_dirichlet(problem: EllipticProblem, tol: Optional[float] = None,
                    max_iter: int = 200_000) -> tuple[Grid2, SolveReport]:
    """Solve the five-point scheme to a max-norm residual below tol.

    Starts by nested iteration (`_Level.start`): every coarser level is solved
    first and its solution interpolated up, and the finest level's V-cycle
    after that is the first of the `iterations` the report counts.  The
    default tol is FLOOR_FACTOR times the rounding floor of the current
    iterate; tol = 0 runs until the residual stalls.  Rejects any non-positive
    coefficient node (the Dirichlet problem is only well-posed for f > 0),
    and a tol or max_iter that `check_solve_limits` refuses.  Raises
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
    scale = float(np.finfo(np.float64).eps) * (2.0 / geom.dx ** 2 + 2.0 * float(np.max(f_int)) / geom.dy ** 2)

    U = np.zeros((geom.ny, geom.nx))
    U[:, 0] = problem.boundary.left
    U[:, -1] = problem.boundary.right
    U[0, :] = problem.boundary.bottom
    U[-1, :] = problem.boundary.top

    t0 = time.perf_counter()
    top = _Level(f, np.arange(geom.nx), np.arange(geom.ny), geom.dx, geom.dy)
    setup = time.perf_counter() - t0
    top.start(U, g)
    cycles, mark, since, residuals = 1, math.inf, 0, []
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
        top.cycle(U, g)
        cycles += 1
    levels = top.levels()
    report = SolveReport(iterations=cycles, residual=res, converged=res <= bound,
                         elapsed=time.perf_counter() - start, setup_seconds=setup, tol=bound,
                         residual_floor=floor, residuals=tuple(residuals),
                         levels=tuple(lev.shape[::-1] for lev in levels),
                         direct_unknowns=0 if levels[-1].inverse is None else len(levels[-1].inverse))
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
