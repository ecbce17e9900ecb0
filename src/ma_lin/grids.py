"""Uniform grids, second-order jets, central finite differences, grid CSV I/O.

Layout convention used everywhere: values are stored row-major with x fastest,
i.e. as an array of shape (ny, nx) indexed [j, i] for the node
(x0 + i*dx, y0 + j*dy).  NaN marks a masked cell; masking is contagious
through any stencil that touches it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .expressions import BinOp, Const, Expr, EvalError, Neg, Var, diff, evaluate

__all__ = [
    "GridError", "GridFormatError",
    "GridGeometry", "geometry_from_domain", "Grid2", "MaskedGrid2", "Jet2",
    "JetArrays", "sample", "interior_jets",
    "jet_exprs", "symbolic_jet", "write_grid", "read_grid",
]


class GridError(Exception):
    pass


class GridFormatError(GridError):
    pass


def _fmt(v: float) -> str:
    return f"{v:.17g}"


@dataclass(frozen=True)
class GridGeometry:
    nx: int
    ny: int
    x0: float
    y0: float
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise GridError(f"grid needs at least one node per axis, got {self.nx}x{self.ny}")
        if not (self.dx > 0 and self.dy > 0 and math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise GridError(f"spacings must be positive and finite, got dx={self.dx}, dy={self.dy}")
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise GridError("grid origin must be finite")

    def x(self, i: int) -> float:
        return self.x0 + i * self.dx

    def y(self, j: int) -> float:
        return self.y0 + j * self.dy

    def xs(self) -> np.ndarray:
        return self.x0 + np.arange(self.nx) * self.dx

    def ys(self) -> np.ndarray:
        return self.y0 + np.arange(self.ny) * self.dy

    @property
    def x1(self) -> float:
        return self.x(self.nx - 1)

    @property
    def y1(self) -> float:
        return self.y(self.ny - 1)


def geometry_from_domain(x0: float, x1: float, y0: float, y1: float,
                         nx: int, ny: int) -> GridGeometry:
    if nx < 2 or ny < 2:
        raise GridError("a domain needs at least two nodes per axis")
    return GridGeometry(nx, ny, x0, y0, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1))


@dataclass(frozen=True)
class Jet2:
    """Value and derivatives through second order of a function of two variables."""

    u: float
    ux: float
    uy: float
    uxx: float
    uxy: float
    uyy: float

    def __post_init__(self):
        for f in (self.u, self.ux, self.uy, self.uxx, self.uxy, self.uyy):
            if not math.isfinite(f):
                raise ValueError(f"jet entries must be finite, got {self!r}")

    def hessian_det(self) -> float:
        return self.uxx * self.uyy - self.uxy * self.uxy


@dataclass(frozen=True)
class Grid2:
    geom: GridGeometry
    values: np.ndarray  # (ny, nx), NaN = masked

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.geom.ny, self.geom.nx):
            raise GridError(
                f"value array shape {v.shape} does not match geometry "
                f"({self.geom.ny}, {self.geom.nx})")
        if np.isinf(v).any():
            raise GridError("grid values must be finite or NaN (masked)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    # geometry passthroughs
    @property
    def nx(self):
        return self.geom.nx

    @property
    def ny(self):
        return self.geom.ny

    @property
    def dx(self):
        return self.geom.dx

    @property
    def dy(self):
        return self.geom.dy

    def xs(self):
        return self.geom.xs()

    def ys(self):
        return self.geom.ys()

    def value(self, i: int, j: int) -> float:
        return float(self.values[j, i])

    def point(self, i: int, j: int) -> tuple[float, float]:
        return self.geom.x(i), self.geom.y(j)

    def is_masked(self, i: int, j: int) -> bool:
        return bool(np.isnan(self.values[j, i]))


@dataclass(frozen=True)
class MaskedGrid2:
    """A grid plus an explicit validity mask (True = valid).

    Invalid cells are normalized to NaN; norms and statistics skip them.
    """

    grid: Grid2
    mask: np.ndarray

    def __post_init__(self):
        m = np.array(self.mask, dtype=bool)
        if m.shape != self.grid.values.shape:
            raise GridError("mask shape does not match grid shape")
        v = np.array(self.grid.values)
        v[~m] = np.nan
        m = m & np.isfinite(v)
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "grid", Grid2(self.grid.geom, v))

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())

    @property
    def mask_fraction(self) -> float:
        return 1.0 - self.n_valid / self.mask.size

    def max_abs(self) -> float:
        if self.n_valid == 0:
            return 0.0
        return float(np.max(np.abs(self.grid.values[self.mask])))

    def mean_abs(self) -> float:
        if self.n_valid == 0:
            return 0.0
        return float(np.mean(np.abs(self.grid.values[self.mask])))


def sample(e: Expr, names: tuple[str, str], geom: GridGeometry) -> Grid2:
    """Evaluate an expression at every node: values[j, i] = e(x0+i*dx, y0+j*dy)."""
    n1, n2 = names
    try:
        values = evaluate(e, {n1: geom.xs()[None, :], n2: geom.ys()[:, None]})
    except EvalError as err:
        j, i = divmod(err.index, geom.nx)
        raise GridError(f"evaluation failed at cell (i={i}, j={j}): {err}") from err
    return Grid2(geom, values)


@dataclass(frozen=True)
class JetArrays:
    """Second-order jets at many nodes at once, one array per entry."""

    u: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uxy: np.ndarray
    uyy: np.ndarray
    valid: np.ndarray  # False where the jet is masked

    def hessian_det(self) -> np.ndarray:
        return self.uxx * self.uyy - self.uxy * self.uxy

    def compress(self) -> "JetArrays":
        """The valid jets only, as flat arrays in row-major node order."""
        v = self.valid
        return JetArrays(self.u[v], self.ux[v], self.uy[v], self.uxx[v],
                         self.uxy[v], self.uyy[v], valid=v[v])


def interior_jets(g: Grid2) -> JetArrays:
    """Central-difference jets at the interior nodes; entry [j-1, i-1] is node (i, j).

    A jet is invalid where its 3x3 stencil touches a masked cell.
    """
    if g.nx < 3 or g.ny < 3:
        raise GridError("interior jets need at least a 3x3 grid")
    v = g.values
    dx, dy = g.dx, g.dy
    c = v[1:-1, 1:-1]
    e, w = v[1:-1, 2:], v[1:-1, :-2]
    n, s = v[2:, 1:-1], v[:-2, 1:-1]
    ne, nw = v[2:, 2:], v[2:, :-2]
    se, sw = v[:-2, 2:], v[:-2, :-2]
    fin = np.isfinite
    valid = (fin(c) & fin(e) & fin(w) & fin(n) & fin(s)
             & fin(ne) & fin(nw) & fin(se) & fin(sw))
    with np.errstate(invalid="ignore"):
        return JetArrays(
            u=c.copy(),
            ux=(e - w) / (2 * dx),
            uy=(n - s) / (2 * dy),
            uxx=(e - 2 * c + w) / dx ** 2,
            uxy=(ne - nw - se + sw) / (4 * dx * dy),
            uyy=(n - 2 * c + s) / dy ** 2,
            valid=valid,
        )


_DERIVATIVES: dict = {}  # (tree key, names) -> (e_x, e_y, e_xx, e_xy, e_yy)
_DERIVATIVES_MAX = 256


def _tree_key(e: Expr):
    """A hashable key equal only for trees with the same shape and constant bits.

    Dataclass equality would let Const(0.0) and Const(-0.0) alias, and their
    derivatives can differ in sign."""
    if isinstance(e, Const):
        return (float(e.value).hex(),)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return ("-", _tree_key(e.arg))
    if isinstance(e, BinOp):
        return (e.op, _tree_key(e.left), _tree_key(e.right))
    return (e.func, _tree_key(e.arg))


def jet_exprs(e: Expr, names: tuple[str, str]) -> tuple[Expr, Expr, Expr, Expr, Expr, Expr]:
    """The six expressions (e, e_x, e_y, e_xx, e_xy, e_yy).

    The five derivative trees are differentiated once per tree and pair of
    names and then reused; the first entry is always the caller's own tree."""
    n1, n2 = names
    key = (_tree_key(e), n1, n2)
    derived = _DERIVATIVES.get(key)
    if derived is None:
        ex = diff(e, n1)
        ey = diff(e, n2)
        derived = (ex, ey, diff(ex, n1), diff(ex, n2), diff(ey, n2))
        if len(_DERIVATIVES) >= _DERIVATIVES_MAX:
            del _DERIVATIVES[next(iter(_DERIVATIVES))]
        _DERIVATIVES[key] = derived
    return (e, *derived)


def symbolic_jet(e: Expr, names: tuple[str, str], x: float, y: float) -> Jet2:
    """Exact jet of an expression at a point, by symbolic differentiation."""
    n1, n2 = names
    b = {n1: x, n2: y}
    j = jet_exprs(e, names)
    return Jet2(*(evaluate(t, b) for t in j))


# ---------------------------------------------------------------------------
# CSV I/O
#
# First line:  # nx=<int>,ny=<int>,x0=<real>,y0=<real>,dx=<real>,dy=<real>
# then ny lines of nx comma-separated reals (row j fixed, i varying).
# Reals carry 17 significant digits so doubles round-trip losslessly; masked
# cells are written as the literal token "nan".

_HEADER = re.compile(
    r"^#\s*nx=([^,]+),ny=([^,]+),x0=([^,]+),y0=([^,]+),dx=([^,]+),dy=([^,]+)\s*$"
)


def write_grid(g: Grid2, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# nx={g.nx},ny={g.ny},x0={_fmt(g.geom.x0)},y0={_fmt(g.geom.y0)},"
                 f"dx={_fmt(g.dx)},dy={_fmt(g.dy)}\n")
        for j in range(g.ny):
            fh.write(",".join(_fmt(v) for v in g.values[j, :]))
            fh.write("\n")


def _parse_real(token: str, line_no: int, col: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise GridFormatError(
            f"line {line_no}: value {col} is not a number: {token.strip()!r}") from None
    if math.isinf(v):
        raise GridFormatError(f"line {line_no}: value {col} is not finite")
    return v


def read_grid(path) -> Grid2:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GridFormatError("line 1: empty file")
    m = _HEADER.match(lines[0])
    if m is None:
        raise GridFormatError(f"line 1: malformed header: {lines[0]!r}")
    try:
        nx, ny = int(m.group(1)), int(m.group(2))
        x0, y0, dx, dy = (float(m.group(k)) for k in range(3, 7))
    except ValueError as err:
        raise GridFormatError(f"line 1: malformed header field: {err}") from None
    try:
        geom = GridGeometry(nx, ny, x0, y0, dx, dy)
    except GridError as err:
        raise GridFormatError(f"line 1: {err}") from None
    rows = [ln for ln in lines[1:] if ln.strip() != ""]
    if len(rows) != ny:
        raise GridFormatError(f"line {len(lines)}: expected {ny} data rows, found {len(rows)}")
    values = np.empty((ny, nx))
    for j, row in enumerate(rows):
        tokens = row.split(",")
        if len(tokens) != nx:
            raise GridFormatError(f"line {j + 2}: expected {nx} values, found {len(tokens)}")
        for i, tok in enumerate(tokens):
            values[j, i] = _parse_real(tok, j + 2, i + 1)
    return Grid2(geom, values)
