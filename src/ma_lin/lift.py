"""Lift linear solutions to exact solutions of the nonlinear equation.

The parametric representation on the (X, Y) chart is primary: each source node
carries its image point (x, y), the full image jet, and the map jacobian.
Gridded u(x, y) is derived output, produced by inverting the cell images of
the structured source mesh with a damped Newton iteration per bilinear cell.
"""

from __future__ import annotations

import math
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


def _invert_bilinear(cx, cy, tx, ty):
    """Solve the bilinear cell map for (s, t); returns None on failure.

    cx, cy are the 4 coefficients of P(s,t) = c0 + c1 s + c2 t + c3 s t per
    coordinate.  Damped Newton from the cell center: a step that grows the
    residual is halved (factor 0.5) before giving up on that iteration.
    """
    s, t = 0.5, 0.5
    rx = cx[0] + cx[1] * s + cx[2] * t + cx[3] * s * t - tx
    ry = cy[0] + cy[1] * s + cy[2] * t + cy[3] * s * t - ty
    scale = 1.0 + max(abs(tx), abs(ty))
    for _ in range(_NEWTON_MAX):
        if max(abs(rx), abs(ry)) <= _NEWTON_TOL * scale:
            return s, t
        a11 = cx[1] + cx[3] * t
        a12 = cx[2] + cx[3] * s
        a21 = cy[1] + cy[3] * t
        a22 = cy[2] + cy[3] * s
        det = a11 * a22 - a12 * a21
        if det == 0.0 or not math.isfinite(det):
            return None
        ds = (-rx * a22 + ry * a12) / det
        dt = (-ry * a11 + rx * a21) / det
        best = max(abs(rx), abs(ry))
        lam = 1.0
        for _ in range(8):
            s2, t2 = s + lam * ds, t + lam * dt
            rx2 = cx[0] + cx[1] * s2 + cx[2] * t2 + cx[3] * s2 * t2 - tx
            ry2 = cy[0] + cy[1] * s2 + cy[2] * t2 + cy[3] * s2 * t2 - ty
            if max(abs(rx2), abs(ry2)) < best:
                break
            lam *= 0.5
        else:
            return None
        s, t, rx, ry = s2, t2, rx2, ry2
    if max(abs(rx), abs(ry)) <= _NEWTON_TOL * scale:
        return s, t
    return None


_INSIDE_PAD = 1e-9


def resample(s: LiftedSurface, target: GridGeometry) -> MaskedGrid2:
    """Tabulate u on a regular (x, y) grid by inverting the lifted cell images.

    Targets outside the image, or landing in fold cells (any masked corner),
    are masked rather than extrapolated.
    """
    nY, nX = s.valid.shape
    nci, ncj = nX - 1, nY - 1
    if nci < 1 or ncj < 1:
        raise LiftError("resampling needs a mesh of at least 2x2 nodes")

    cell_ok = (s.valid[:-1, :-1] & s.valid[:-1, 1:]
               & s.valid[1:, :-1] & s.valid[1:, 1:])
    p00x, p10x = s.x[:-1, :-1], s.x[:-1, 1:]
    p01x, p11x = s.x[1:, :-1], s.x[1:, 1:]
    p00y, p10y = s.y[:-1, :-1], s.y[:-1, 1:]
    p01y, p11y = s.y[1:, :-1], s.y[1:, 1:]
    with np.errstate(invalid="ignore"):
        bxmin = np.fmin(np.fmin(p00x, p10x), np.fmin(p01x, p11x))
        bxmax = np.fmax(np.fmax(p00x, p10x), np.fmax(p01x, p11x))
        bymin = np.fmin(np.fmin(p00y, p10y), np.fmin(p01y, p11y))
        bymax = np.fmax(np.fmax(p00y, p10y), np.fmax(p01y, p11y))

    def corners(ci, cj):
        xs = (s.x[cj, ci], s.x[cj, ci + 1], s.x[cj + 1, ci], s.x[cj + 1, ci + 1])
        ys = (s.y[cj, ci], s.y[cj, ci + 1], s.y[cj + 1, ci], s.y[cj + 1, ci + 1])
        us = (s.u[cj, ci], s.u[cj, ci + 1], s.u[cj + 1, ci], s.u[cj + 1, ci + 1])
        return xs, ys, us

    def try_cell(ci, cj, tx, ty):
        """Returns (u, None) on a hit, (None, walk step) on a miss."""
        xs, ys, us = corners(ci, cj)
        cx = (xs[0], xs[1] - xs[0], xs[2] - xs[0], xs[3] - xs[1] - xs[2] + xs[0])
        cy = (ys[0], ys[1] - ys[0], ys[2] - ys[0], ys[3] - ys[1] - ys[2] + ys[0])
        st = _invert_bilinear(cx, cy, tx, ty)
        if st is None:
            return None, None
        sv, tv = st
        if -_INSIDE_PAD <= sv <= 1.0 + _INSIDE_PAD and -_INSIDE_PAD <= tv <= 1.0 + _INSIDE_PAD:
            sv = min(max(sv, 0.0), 1.0)
            tv = min(max(tv, 0.0), 1.0)
            u = ((1 - sv) * (1 - tv) * us[0] + sv * (1 - tv) * us[1]
                 + (1 - sv) * tv * us[2] + sv * tv * us[3])
            return float(u), None
        di = -1 if sv < 0 else (1 if sv > 1 else 0)
        dj = -1 if tv < 0 else (1 if tv > 1 else 0)
        return None, (di, dj)

    def locate(tx, ty, hint):
        # walk from the hint cell, steering by the out-of-range parameters
        ci, cj = hint
        seen = set()
        for _ in range(2 * (nci + ncj)):
            if not (0 <= ci < nci and 0 <= cj < ncj) or (ci, cj) in seen:
                break
            seen.add((ci, cj))
            if not cell_ok[cj, ci]:
                break
            u, step = try_cell(ci, cj, tx, ty)
            if u is not None:
                return u, (ci, cj)
            if step is None or step == (0, 0):
                break
            ci, cj = ci + step[0], cj + step[1]
        # fall back to scanning every cell whose bounding box contains the point
        cand = np.nonzero(cell_ok & (bxmin - 1e-12 <= tx) & (tx <= bxmax + 1e-12)
                          & (bymin - 1e-12 <= ty) & (ty <= bymax + 1e-12))
        for cj2, ci2 in zip(*cand):
            if (ci2, cj2) in seen:
                continue
            u, _step = try_cell(int(ci2), int(cj2), tx, ty)
            if u is not None:
                return u, (int(ci2), int(cj2))
        return None, hint

    out = np.full((target.ny, target.nx), np.nan)
    mask = np.zeros((target.ny, target.nx), dtype=bool)
    txs, tys = target.xs(), target.ys()
    hint = (nci // 2, ncj // 2)
    for j in range(target.ny):
        row_hint = hint
        for i in range(target.nx):
            u, row_hint = locate(float(txs[i]), float(tys[j]), row_hint)
            if u is not None:
                out[j, i] = u
                mask[j, i] = True
            if i == 0:
                hint = row_hint
    return MaskedGrid2(Grid2(target, out), mask)


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
    cols = (s.X, s.Y, s.x, s.y, s.u, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# lifted\n")
        for j, i in zip(*np.nonzero(s.valid)):
            fh.write(",".join(f"{c[j, i]:.17g}" for c in cols))
            fh.write("\n")


def read_lifted(path) -> np.ndarray:
    """Rows of (X, Y, x, y, u, ux, uy, uxx, uxy, uyy, jac) as an (n, 11) array."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "# lifted":
        raise LiftError("missing '# lifted' header")
    rows = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:] if ln.strip()]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 11)
