"""Lift linear solutions to exact solutions of the nonlinear equation.

The parametric representation on the (X, Y) chart is primary: each source node
carries its image point (x, y), the full image jet, and the map jacobian.
Gridded u(x, y) is derived output, produced by inverting the cell images of
the structured source mesh: every (cell, target) pair whose padded cell
bounding box holds the target solves the bilinear cell map in closed form, as
array code over fixed-size chunks of pairs taken in row-major cell order, and
each target keeps its first hit in that order.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Union

import numpy as np

from .equations import (LinearizableClass, MAEquation, catalog_get, classify,
                        equation_from_class_function, linear_coefficient,
                        residual)
from .expressions import Expr, Rejection, _Value, to_text
from .grids import (_BLOCK_VALUES, Grid2, GridGeometry, JetArrays, MaskedGrid2,
                    geometry_from_domain, interior_jets, read_table, symbolic_jet,
                    write_table)
from .linsolve import BoundaryValues, problem_from_exprs, solve_dirichlet
from .transforms import DEGENERACY_EPS, push_jet_arrays

__all__ = [
    "LiftError", "EmptyLiftError", "PipelineError",
    "LiftedSurface", "VerificationReport",
    "lift_parametric", "verify_lift", "resample",
    "PipelineConfig", "PipelineResult", "pipeline",
    "write_lifted", "read_lifted",
]


class LiftError(Exception):
    pass


class EmptyLiftError(LiftError, Rejection):
    pass


class LiftedSurface(_Value):
    """Image of a structured (X, Y) mesh under the contact map.

    Arrays have the mesh shape (nY, nX); nodes where the map degenerates are
    NaN with valid=False.
    """

    X: np.ndarray
    Y: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uxy: np.ndarray
    uyy: np.ndarray
    jac: np.ndarray
    valid: np.ndarray
    source_kind: str  # "symbolic" or "grid"
    source_desc: str

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    @property
    def mask_fraction(self) -> float:
        return 1.0 - self.n_valid / self.valid.size

    def jets(self) -> JetArrays:
        """The image jets of u(x, y) at every node, masked where invalid."""
        return JetArrays(self.u, self.ux, self.uy, self.uxx, self.uxy, self.uyy,
                         valid=self.valid)


class VerificationReport(_Value):
    equation_id: str
    samples: int
    max_abs_residual: float
    mean_abs_residual: float
    path: str  # "symbolic" or "grid"
    mask_fraction: float


def lift_parametric(U: Union[Expr, Grid2],
                    domain: Optional[tuple[float, float, float, float]] = None,
                    n: Optional[int] = None,
                    eps: float = DEGENERACY_EPS) -> LiftedSurface:
    """Push every mesh node of U through the contact map.

    Expression sources are differentiated exactly on an n-by-n mesh over the
    domain; grid sources use centered differences, so only interior nodes
    appear.  Degenerate nodes (|U_X|, |U_YY| or the jacobian at or below eps)
    are masked and counted, never fabricated.
    """
    if isinstance(U, Expr):
        if domain is None or n is None:
            raise LiftError("expression sources need a domain and a sample count")
        X0, X1, Y0, Y1 = domain
        geom = geometry_from_domain(X0, X1, Y0, Y1, n, n)
        Xg, Yg = np.meshgrid(geom.xs(), geom.ys())
        jet = symbolic_jet(U, ("X", "Y"), Xg, Yg)
        kind, desc = "symbolic", to_text(U)
    elif isinstance(U, Grid2):
        # a stencil that touches a masked cell leaves a NaN in at least one
        # entry of the jet, and push_jet_arrays masks non-finite jets
        jet = interior_jets(U)
        Xg, Yg = np.meshgrid(U.xs()[1:-1], U.ys()[1:-1])
        kind, desc = "grid", f"{U.nx}x{U.ny} grid"
    else:
        raise TypeError(f"unsupported source type {type(U).__name__}")

    im = push_jet_arrays(jet, Xg, Yg, eps=eps)
    if not im.jet.valid.any():
        raise EmptyLiftError("every node is degenerate under the contact map")
    j = im.jet
    return LiftedSurface(X=Xg, Y=Yg, x=im.x, y=im.y, u=j.u, ux=j.ux, uy=j.uy,
                         uxx=j.uxx, uxy=j.uxy, uyy=j.uyy, jac=im.jacobian, valid=j.valid,
                         source_kind=kind, source_desc=desc)


def verify_lift(s: LiftedSurface, eq: MAEquation) -> VerificationReport:
    """Residual of the nonlinear equation over every valid lifted sample."""
    arr = np.abs(residual(eq, s.jets().compress(), s.x[s.valid], s.y[s.valid]))
    return VerificationReport(
        equation_id=eq.id,
        samples=arr.size,
        max_abs_residual=float(arr.max()) if arr.size else 0.0,
        mean_abs_residual=float(arr.mean()) if arr.size else 0.0,
        path=s.source_kind,
        mask_fraction=s.mask_fraction,
    )


# ---------------------------------------------------------------------------
# resampling the parametric surface onto a regular (x, y) grid

_BOX_PAD = 1e-12
_INSIDE_PAD = 1e-9
_PAIR_CHUNK = 4096  # (cell, target) pairs per batch: bounds the working set


def _invert_bilinear(cx, cy, tx, ty):
    """Solve bilinear cell maps for (s, t) in closed form, one cell-target
    pair per column.

    cx, cy have shape (4, m): the coefficients of P(s,t) = c0 + c1 s + c2 t +
    c3 s t per coordinate.  With d = c0 - T, eliminating s from P(s,t) = T
    leaves A t^2 + B t + C = 0, where A = c2 x c3, B = d x c3 + c2 x c1 and
    C = d x c1 are 2-D cross products.  With q = -(B + sign(B) sqrt(B^2 -
    4AC))/2 the roots are C/q and q/A, tried in that order, and s = -(d +
    c2 t)/(c1 + c3 t) comes from the coordinate with the larger divisor.  A
    parallelogram (A = 0) takes no branch of its own: q/A is infinite and C/q
    is the linear root.  Returns (s, t) of the first root within _INSIDE_PAD
    of the unit square, NaN where neither root is.

    Degenerate cells: a twisted (self-crossing) cell gives its first root in
    the square.  A cell collapsed to a point has no unique preimage and
    misses; one collapsed to a segment has none either, and what roots it
    gives come from rounding.  Near the collapsed corner of a triangle cell,
    where the map's jacobian vanishes, a root loses accuracy or misses.
    """
    dx, dy = cx[0] - tx, cy[0] - ty
    A = cx[2] * cy[3] - cy[2] * cx[3]
    B = dx * cy[3] - dy * cx[3] + cx[2] * cy[1] - cy[2] * cx[1]
    C = dx * cy[1] - dy * cx[1]
    s_out, t_out = np.full(tx.size, np.nan), np.full(tx.size, np.nan)
    with np.errstate(all="ignore"):
        q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C), B))
        for t in (C / q, q / A):
            ex, ey = cx[1] + cx[3] * t, cy[1] + cy[3] * t
            s = np.where(np.abs(ex) >= np.abs(ey), -(dx + cx[2] * t) / ex, -(dy + cy[2] * t) / ey)
            take = (np.isnan(s_out) & (-_INSIDE_PAD <= s) & (s <= 1.0 + _INSIDE_PAD)
                    & (-_INSIDE_PAD <= t) & (t <= 1.0 + _INSIDE_PAD))
            s_out[take], t_out[take] = s[take], t[take]
    return s_out, t_out


def resample(s: LiftedSurface, target: GridGeometry) -> MaskedGrid2:
    """Tabulate u on a regular (x, y) grid by inverting the lifted cell images.

    The candidates for a target are the cells with four valid corners whose
    bounding box, padded by 1e-12, holds it.  The target takes its value from
    the first candidate in row-major (cj, ci) cell order whose closed-form
    bilinear inverse lands inside the cell, so each target's value is
    independent of the other targets.  Targets outside the image, or landing
    only in fold cells (any masked corner), are masked rather than
    extrapolated.  The work is linear in the cells, the targets and the
    (cell, target) pairs; the pairs run in chunks of _PAIR_CHUNK in cell
    order, so memory does not grow with their number.
    """
    nY, nX = s.valid.shape
    if nX < 2 or nY < 2:
        raise LiftError("resampling needs a mesh of at least 2x2 nodes")

    def cell_corners(a):
        return a[:-1, :-1], a[:-1, 1:], a[1:, :-1], a[1:, 1:]

    def box_range(a, ts):
        """Index range [lo, hi) of the sorted coordinates ts in each padded box."""
        lo = np.minimum.reduce(cell_corners(a)) - _BOX_PAD
        hi = np.maximum.reduce(cell_corners(a)) + _BOX_PAD
        return np.searchsorted(ts, lo, "left"), np.searchsorted(ts, hi, "right")

    txs, tys = target.xs(), target.ys()
    i0, i1 = box_range(s.x, txs)
    j0, j1 = box_range(s.y, tys)
    cj, ci = np.nonzero(np.logical_and.reduce(cell_corners(s.valid))
                        & (i1 > i0) & (j1 > j0))
    i0, j0 = i0[cj, ci], j0[cj, ci]
    w = i1[cj, ci] - i0
    count = w * (j1[cj, ci] - j0)
    del i1, j1  # mesh-sized, and not needed from here on
    # (cell, target) pairs, grouped by cell in row-major cell order; cell c
    # holds pairs start[c] to start[c] + count[c] - 1
    start = np.cumsum(count) - count
    total = int(count.sum())

    out = np.full(target.ny * target.nx, np.nan)
    mask = np.zeros(target.ny * target.nx, dtype=bool)
    for first_pair in range(0, total, _PAIR_CHUNK):
        pair = np.arange(first_pair, min(first_pair + _PAIR_CHUNK, total))
        cell = np.searchsorted(start, pair, "right") - 1
        k = pair - start[cell]
        ti = i0[cell] + k % w[cell]
        tj = j0[cell] + k // w[cell]
        hj, hi = cj[cell], ci[cell]
        x00, x10, x01, x11 = (a[hj, hi] for a in cell_corners(s.x))
        y00, y10, y01, y11 = (a[hj, hi] for a in cell_corners(s.y))
        cx = np.stack((x00, x10 - x00, x01 - x00, x11 - x10 - x01 + x00))
        cy = np.stack((y00, y10 - y00, y01 - y00, y11 - y10 - y01 + y00))
        sv, tv = _invert_bilinear(cx, cy, txs[ti], tys[tj])
        hit = np.isfinite(sv)
        # return_index picks each target's first hit in pair order, i.e. cell
        # order; a target hit in an earlier chunk keeps that hit
        flat, first = np.unique((tj * target.nx + ti)[hit], return_index=True)
        new = ~mask[flat]
        flat, take = flat[new], np.flatnonzero(hit)[first[new]]
        sv, tv = np.clip(sv[take], 0.0, 1.0), np.clip(tv[take], 0.0, 1.0)
        u00, u10, u01, u11 = (a[hj[take], hi[take]] for a in cell_corners(s.u))
        out[flat] = ((1 - sv) * (1 - tv) * u00 + sv * (1 - tv) * u10
                     + (1 - sv) * tv * u01 + sv * tv * u11)
        mask[flat] = True
    shape = (target.ny, target.nx)
    return MaskedGrid2(Grid2(target, out.reshape(shape)), mask.reshape(shape))


# ---------------------------------------------------------------------------
# the whole program as one operation

class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception, stages: Optional[dict] = None):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.stages = stages or {}  # the seconds of each stage that completed


class PipelineConfig(_Value):
    geom: GridGeometry  # the linear grid
    boundary: Union[Expr, BoundaryValues]
    # the resampling grid, or the (nx, ny) node counts of one inferred from the image
    target: Union[GridGeometry, tuple[int, int]] = (33, 33)
    solve_tol: Optional[float] = None
    seed: int = 42


class PipelineResult(_Value):
    equation: MAEquation
    lin_class: LinearizableClass
    coefficient: Expr
    solution: Grid2
    solve_report: object
    surface: LiftedSurface
    resampled: MaskedGrid2
    verification: VerificationReport
    stages: dict  # stage name -> wall seconds, in run order


def _infer_target(surface: LiftedSurface, nx: int, ny: int) -> GridGeometry:
    xs = surface.x[surface.valid]
    ys = surface.y[surface.valid]
    x0, x1 = np.min(xs), np.max(xs)
    y0, y1 = np.min(ys), np.max(ys)
    # shrink a little so boundary cells do not dominate the mask
    mx, my = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    return geometry_from_domain(x0 + mx, x1 - mx, y0 + my, y1 - my, nx, ny)


@contextmanager
def _stage(name: str, seconds: dict):
    """Wrap any failure inside the block as PipelineError(name, cause, seconds),
    and record the wall time of a block that completes as seconds[name]."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as err:
        raise PipelineError(name, err, seconds) from err
    seconds[name] = time.perf_counter() - t0


def pipeline(f_or_id: Union[Expr, str], config: PipelineConfig) -> PipelineResult:
    """classify -> linear coefficient -> solve (with the problem build) ->
    lift -> resample -> verify; the result's `stages` holds each stage's wall
    seconds in that order, and a failing stage raises PipelineError naming it."""
    stages = {}
    with _stage("classify", stages):
        if isinstance(f_or_id, str):
            eq = catalog_get(f_or_id)
        else:
            eq = equation_from_class_function(f_or_id)
        cls = classify(eq, seed=config.seed)

    with _stage("coefficient", stages):
        coeff = linear_coefficient(cls)

    with _stage("solve", stages):
        problem = problem_from_exprs(config.geom, coeff, None, config.boundary)
        solution, report = solve_dirichlet(problem, tol=config.solve_tol)

    with _stage("lift", stages):
        surface = lift_parametric(solution)

    with _stage("resample", stages):
        target = (config.target if isinstance(config.target, GridGeometry)
                  else _infer_target(surface, *config.target))
        grid = resample(surface, target)
        if grid.n_valid == 0:
            x, y = surface.x[surface.valid], surface.y[surface.valid]
            tx, ty = target.xs(), target.ys()
            raise EmptyLiftError(
                f"no target node was resampled: target [{tx[0]:g}, {tx[-1]:g}] x "
                f"[{ty[0]:g}, {ty[-1]:g}], image [{x.min():g}, {x.max():g}] x "
                f"[{y.min():g}, {y.max():g}]")

    with _stage("verify", stages):
        verification = verify_lift(surface, eq)

    return PipelineResult(equation=eq, lin_class=cls, coefficient=coeff,
                          solution=solution, solve_report=report,
                          surface=surface, resampled=grid,
                          verification=verification, stages=stages)


# ---------------------------------------------------------------------------
# CSV export of the parametric surface (valid samples only)

def write_lifted(s: LiftedSurface, path) -> str:
    columns = (s.X, s.Y, s.x, s.y, s.u, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac)
    # a few mesh rows at a time, so the working set does not grow with the mesh
    step = max(1, _BLOCK_VALUES // (len(columns) * s.valid.shape[1]))
    return write_table(path, "# lifted", (
        np.column_stack([c[j:j + step][s.valid[j:j + step]] for c in columns])
        for j in range(0, s.valid.shape[0], step)))


def read_lifted(path) -> np.ndarray:
    """Rows of (X, Y, x, y, u, ux, uy, uxx, uxy, uyy, jac) as an (n, 11) array."""
    return read_table(path, {"# lifted": 11}.get)[1]
