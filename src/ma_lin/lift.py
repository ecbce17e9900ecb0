"""Lift linear solutions to exact solutions of the nonlinear equation.

The parametric representation on the (X, Y) chart is primary: each source node
carries its image point (x, y), the full image jet, and the map jacobian.
Gridded u(x, y) is derived output, produced by inverting the cell images of
the structured source mesh: every (cell, target) pair whose padded cell
bounding box holds the target runs a damped bilinear Newton iteration, as
array code over fixed-size chunks of pairs taken in row-major cell order, and
each target keeps its first hit in that order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .equations import (LinearizableClass, MAEquation, catalog_get, classify,
                        equation_from_class_function, linear_coefficient,
                        residual)
from .expressions import Expr, evaluate, to_text, variables
from .grids import (Grid2, GridGeometry, JetArrays, MaskedGrid2,
                    geometry_from_domain, interior_jets, jet_exprs)
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


class EmptyLiftError(LiftError):
    pass


@dataclass(frozen=True)
class LiftedSurface:
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


@dataclass(frozen=True)
class VerificationReport:
    equation_id: str
    samples: int
    max_abs_residual: float
    mean_abs_residual: float
    path: str  # "symbolic" or "grid"
    mask_fraction: float

    def to_dict(self) -> dict:
        return {"equation_id": self.equation_id, "samples": self.samples,
                "max_abs_residual": self.max_abs_residual,
                "mean_abs_residual": self.mean_abs_residual,
                "path": self.path, "mask_fraction": self.mask_fraction}


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
        fields = [evaluate(e, {"X": Xg, "Y": Yg}) for e in jet_exprs(U, ("X", "Y"))]
        kind, desc = "symbolic", to_text(U)
    elif isinstance(U, Grid2):
        jets = interior_jets(U)
        geomI = U.geom
        xs = geomI.xs()[1:-1]
        ys = geomI.ys()[1:-1]
        Xg, Yg = np.meshgrid(xs, ys)
        # a stencil that touches a masked cell leaves a NaN in at least one
        # entry of the jet, and push_jet_arrays masks non-finite jets
        fields = [jets.u, jets.ux, jets.uy, jets.uxx, jets.uxy, jets.uyy]
        kind, desc = "grid", f"{U.nx}x{U.ny} grid"
    else:
        raise TypeError(f"unsupported source type {type(U).__name__}")

    x, y, u, ux, uy, uxx, uxy, uyy, jac, valid = push_jet_arrays(
        *fields, Xg, Yg, eps=eps)
    if not valid.any():
        raise EmptyLiftError("every node is degenerate under the contact map")
    return LiftedSurface(X=Xg, Y=Yg, x=x, y=y, u=u, ux=ux, uy=uy,
                         uxx=uxx, uxy=uxy, uyy=uyy, jac=jac, valid=valid,
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

_NEWTON_TOL = 1e-12
_NEWTON_MAX = 20
_BOX_PAD = 1e-12
_INSIDE_PAD = 1e-9
_PAIR_CHUNK = 4096  # (cell, target) pairs per Newton batch: bounds the working set


def _larger(a, b):
    """Elementwise max(a, b) as Python's max takes it: b only where b > a."""
    return np.where(b > a, b, a)


def _bilinear_residual(cx, cy, s, t, tx, ty):
    return (cx[0] + cx[1] * s + cx[2] * t + cx[3] * s * t - tx,
            cy[0] + cy[1] * s + cy[2] * t + cy[3] * s * t - ty)


def _invert_bilinear(cx, cy, tx, ty):
    """Solve bilinear cell maps for (s, t), one cell-target pair per column.

    cx, cy have shape (4, m): the coefficients of P(s,t) = c0 + c1 s + c2 t +
    c3 s t per coordinate.  Damped Newton from the cell center: a step that
    does not shrink the residual is halved, up to 8 times, before the pair is
    given up.  Returns (s, t, ok), with s and t NaN where ok is False.  Each
    pair gets the arithmetic of the scalar iteration in the same order, so the
    bits do not depend on which other pairs share the call.
    """
    m = tx.size
    s_out, t_out = np.full(m, np.nan), np.full(m, np.nan)
    ok = np.zeros(m, dtype=bool)
    pair = np.arange(m)
    s, t = np.full(m, 0.5), np.full(m, 0.5)
    rx, ry = _bilinear_residual(cx, cy, s, t, tx, ty)
    bound = _NEWTON_TOL * (1.0 + _larger(np.abs(tx), np.abs(ty)))
    with np.errstate(all="ignore"):
        for step in range(_NEWTON_MAX + 1):
            res = _larger(np.abs(rx), np.abs(ry))
            done = res <= bound
            s_out[pair[done]], t_out[pair[done]], ok[pair[done]] = s[done], t[done], True
            if step == _NEWTON_MAX:
                break
            a11, a12 = cx[1] + cx[3] * t, cx[2] + cx[3] * s
            a21, a22 = cy[1] + cy[3] * t, cy[2] + cy[3] * s
            det = a11 * a22 - a12 * a21
            ds = (-rx * a22 + ry * a12) / det
            dt = (-ry * a11 + rx * a21) / det
            pending = ~done & (det != 0.0) & np.isfinite(det)
            live = pending.copy()
            lam = 1.0
            for _ in range(8):
                s2, t2 = s + lam * ds, t + lam * dt
                rx2, ry2 = _bilinear_residual(cx, cy, s2, t2, tx, ty)
                take = pending & (_larger(np.abs(rx2), np.abs(ry2)) < res)
                s, t = np.where(take, s2, s), np.where(take, t2, t)
                rx, ry = np.where(take, rx2, rx), np.where(take, ry2, ry)
                pending &= ~take
                if not pending.any():
                    break
                lam *= 0.5
            keep = live & ~pending
            cx, cy, tx, ty, bound = cx[:, keep], cy[:, keep], tx[keep], ty[keep], bound[keep]
            s, t, rx, ry, pair = s[keep], t[keep], rx[keep], ry[keep], pair[keep]
    return s_out, t_out, ok


def resample(s: LiftedSurface, target: GridGeometry) -> MaskedGrid2:
    """Tabulate u on a regular (x, y) grid by inverting the lifted cell images.

    The candidates for a target are the cells with four valid corners whose
    bounding box, padded by 1e-12, holds it.  The target takes its value from
    the first candidate in row-major (cj, ci) cell order whose bilinear
    inverse lands inside the cell, so each target's value is independent of
    the other targets.  Targets outside the image, or landing only in fold
    cells (any masked corner), are masked rather than extrapolated.  The work
    is linear in the cells, the targets and the (cell, target) pairs; the
    pairs run in chunks of _PAIR_CHUNK in cell order, so the memory the
    Newton iteration takes does not grow with their number.
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
        sv, tv, ok = _invert_bilinear(cx, cy, txs[ti], tys[tj])
        hit = (ok & (-_INSIDE_PAD <= sv) & (sv <= 1.0 + _INSIDE_PAD)
               & (-_INSIDE_PAD <= tv) & (tv <= 1.0 + _INSIDE_PAD))
        # return_index picks each target's first hit in pair order, i.e. cell
        # order; a target hit in an earlier chunk keeps that hit
        flat, first = np.unique((tj * target.nx + ti)[hit], return_index=True)
        new = ~mask[flat]
        flat, take = flat[new], np.flatnonzero(hit)[first[new]]
        # min(max(v, 0.0), 1.0) as Python takes it
        sv, tv = (np.where(1.0 < v, 1.0, _larger(v, 0.0)) for v in (sv[take], tv[take]))
        u00, u10, u01, u11 = (a[hj[take], hi[take]] for a in cell_corners(s.u))
        out[flat] = ((1 - sv) * (1 - tv) * u00 + sv * (1 - tv) * u10
                     + (1 - sv) * tv * u01 + sv * tv * u11)
        mask[flat] = True
    shape = (target.ny, target.nx)
    return MaskedGrid2(Grid2(target, out.reshape(shape)), mask.reshape(shape))


# ---------------------------------------------------------------------------
# the whole program as one operation

class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    lin_domain: tuple[float, float, float, float]  # (X0, X1, Y0, Y1)
    boundary: Union[Expr, BoundaryValues]
    lin_nx: int = 33
    lin_ny: int = 33
    target: Optional[GridGeometry] = None
    target_nx: int = 33
    target_ny: int = 33
    solve_tol: Optional[float] = None
    solve_max_iter: int = 200_000
    seed: int = 42


@dataclass(frozen=True)
class PipelineResult:
    equation: MAEquation
    lin_class: LinearizableClass
    coefficient: Expr
    solution: Grid2
    solve_report: object
    surface: LiftedSurface
    resampled: MaskedGrid2
    verification: VerificationReport


def _infer_target(surface: LiftedSurface, nx: int, ny: int) -> GridGeometry:
    xs = surface.x[surface.valid]
    ys = surface.y[surface.valid]
    x0, x1 = np.min(xs), np.max(xs)
    y0, y1 = np.min(ys), np.max(ys)
    # shrink a little so boundary cells do not dominate the mask
    mx, my = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    return geometry_from_domain(x0 + mx, x1 - mx, y0 + my, y1 - my, nx, ny)


@contextmanager
def _stage(name: str):
    """Wrap any failure inside the block as PipelineError(name, cause)."""
    try:
        yield
    except Exception as err:
        raise PipelineError(name, err) from err


def pipeline(f_or_id: Union[Expr, str], config: PipelineConfig) -> PipelineResult:
    """classify -> linear coefficient -> solve -> lift -> resample -> verify."""
    with _stage("classify"):
        if isinstance(f_or_id, str):
            eq = catalog_get(f_or_id)
        else:
            extra = variables(f_or_id) - {"u", "s"}
            if extra:
                raise LiftError(f"class function must use only (u, s), found {sorted(extra)}")
            eq = equation_from_class_function(f_or_id)
        cls = classify(eq, seed=config.seed)

    with _stage("coefficient"):
        coeff = linear_coefficient(cls)

    with _stage("solve"):
        X0, X1, Y0, Y1 = config.lin_domain
        geom = geometry_from_domain(X0, X1, Y0, Y1, config.lin_nx, config.lin_ny)
        problem = problem_from_exprs(geom, coeff, None, config.boundary)
        solution, report = solve_dirichlet(problem, tol=config.solve_tol,
                                           max_iter=config.solve_max_iter)

    with _stage("lift"):
        surface = lift_parametric(solution)

    with _stage("resample"):
        target = config.target or _infer_target(surface, config.target_nx, config.target_ny)
        grid = resample(surface, target)

    with _stage("verify"):
        verification = verify_lift(surface, eq)

    return PipelineResult(equation=eq, lin_class=cls, coefficient=coeff,
                          solution=solution, solve_report=report,
                          surface=surface, resampled=grid,
                          verification=verification)


# ---------------------------------------------------------------------------
# CSV export of the parametric surface (valid samples only)

def write_lifted(s: LiftedSurface, path) -> None:
    # X, Y and u = X + 0.0*U come from the mesh axes, so their columns hold a
    # few hundred distinct values: each is formatted once, keyed by its bits
    # so that -0.0 keeps its sign
    texts: dict = {}

    def axis_texts(c: np.ndarray) -> list:
        c = np.asarray(c, dtype=np.float64)
        return [texts[b] if b in texts else texts.setdefault(b, "%.17g" % v)
                for b, v in zip(c.view(np.int64).tolist(), c.tolist())]

    values = (s.x, s.y, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac)
    row = "%s,%s,%.17g,%.17g,%s" + ",%.17g" * 6 + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# lifted\n")
        for j, keep in enumerate(s.valid):
            X, Y, u = (axis_texts(c[j, keep]) for c in (s.X, s.Y, s.u))
            x, y, *rest = (c[j, keep].tolist() for c in values)
            fh.writelines(row % r for r in zip(X, Y, x, y, u, *rest))


def read_lifted(path) -> np.ndarray:
    """Rows of (X, Y, x, y, u, ux, uy, uxx, uxy, uyy, jac) as an (n, 11) array."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "# lifted":
        raise LiftError("missing '# lifted' header")
    rows = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:] if ln.strip()]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 11)
