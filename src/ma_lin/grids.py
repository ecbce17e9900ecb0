"""Uniform grids, second-order jets, central finite differences, the CSV table codec.

Layout convention used everywhere: values are stored row-major with x fastest,
i.e. as an array of shape (ny, nx) indexed [j, i] for the node
(x0 + i*dx, y0 + j*dy).  NaN marks a masked cell; masking is contagious
through any stencil that touches it.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .expressions import Expr, EvalError, _Value, compile_trees, diff, evaluate

__all__ = [
    "GridError", "GridFormatError",
    "GridGeometry", "geometry_from_domain", "Grid2", "MaskedGrid2",
    "JetArrays", "sample", "interior_jets",
    "jet_exprs", "symbolic_jet", "write_table", "read_table",
    "write_grid", "read_grid",
]


class GridError(Exception):
    pass


class GridFormatError(GridError):
    pass


class GridGeometry(_Value):
    nx: int
    ny: int
    x0: float
    y0: float
    dx: float
    dy: float

    def __init__(self, nx, ny, x0, y0, dx, dy):
        if nx < 1 or ny < 1:
            raise GridError(f"grid needs at least one node per axis, got nx={nx}, ny={ny}")
        if not (dx > 0 and dy > 0 and math.isfinite(dx) and math.isfinite(dy)):
            raise GridError(f"spacings must be positive and finite, got dx={dx}, dy={dy}")
        if not (math.isfinite(x0) and math.isfinite(y0)):
            raise GridError("grid origin must be finite")
        vars(self).update(nx=nx, ny=ny, x0=x0, y0=y0, dx=dx, dy=dy)

    def xs(self) -> np.ndarray:
        return self.x0 + np.arange(self.nx) * self.dx

    def ys(self) -> np.ndarray:
        return self.y0 + np.arange(self.ny) * self.dy


def geometry_from_domain(x0: float, x1: float, y0: float, y1: float,
                         nx: int, ny: int) -> GridGeometry:
    if nx < 2 or ny < 2:
        raise GridError(f"a domain needs at least two nodes per axis, got nx={nx}, ny={ny}")
    return GridGeometry(nx, ny, x0, y0, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1))


class Grid2(_Value):
    geom: GridGeometry
    values: np.ndarray  # (ny, nx), NaN = masked

    def __init__(self, geom, values):
        v = np.array(values, dtype=np.float64)
        if v.shape != (geom.ny, geom.nx):
            raise GridError(
                f"value array shape {v.shape} does not match geometry ({geom.ny}, {geom.nx})")
        if np.isinf(v).any():
            raise GridError("grid values must be finite or NaN (masked)")
        v.setflags(write=False)
        vars(self).update(geom=geom, values=v)

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


class MaskedGrid2(_Value):
    """A grid plus an explicit validity mask (True = valid).

    Invalid cells are normalized to NaN; norms and statistics skip them.
    """

    grid: Grid2
    mask: np.ndarray

    def __init__(self, grid, mask):
        m = np.array(mask, dtype=bool)
        if m.shape != grid.values.shape:
            raise GridError("mask shape does not match grid shape")
        v = np.array(grid.values)
        v[~m] = np.nan
        m = m & np.isfinite(v)
        m.setflags(write=False)
        vars(self).update(grid=Grid2(grid.geom, v), mask=m)

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())


def sample(e: Expr, names: tuple[str, str], geom: GridGeometry) -> Grid2:
    """Evaluate an expression at every node: values[j, i] = e(x0+i*dx, y0+j*dy)."""
    n1, n2 = names
    try:
        values = evaluate(e, {n1: geom.xs()[None, :], n2: geom.ys()[:, None]})
    except EvalError as err:
        j, i = divmod(err.index, geom.nx)
        raise GridError(f"evaluation failed at cell (i={i}, j={j}): {err}") from err
    return Grid2(geom, values)


class JetArrays(_Value):
    """Value and derivatives through second order of a function of two
    variables: floats for one point, or arrays of one shape for many."""

    u: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uxy: np.ndarray
    uyy: np.ndarray
    valid: np.ndarray  # False where the jet is masked

    def __init__(self, u, ux, uy, uxx, uxy, uyy, valid):
        vars(self).update(u=u, ux=ux, uy=uy, uxx=uxx, uxy=uxy, uyy=uyy, valid=valid)

    def entries(self) -> tuple:
        return self.u, self.ux, self.uy, self.uxx, self.uxy, self.uyy

    def finite(self) -> np.ndarray:
        """True where all six entries are finite."""
        return _finite(self.entries())

    def hessian_det(self) -> np.ndarray:
        return self.uxx * self.uyy - self.uxy * self.uxy

    def compress(self) -> "JetArrays":
        """The valid jets of an array jet only, as flat arrays in row-major node order."""
        v = self.valid
        return JetArrays(self.u[v], self.ux[v], self.uy[v], self.uxx[v],
                         self.uxy[v], self.uyy[v], valid=v[v])


def _finite(values) -> np.ndarray:
    """True where every value is finite; a numpy bool when no value is an
    array, found by math.isfinite without numpy's per-call cost."""
    if any(isinstance(a, np.ndarray) for a in values):
        return functools.reduce(np.logical_and, map(np.isfinite, values))
    return np.bool_(all(map(math.isfinite, values)))


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


def _jet_entry(e: Expr, names: tuple[str, str]) -> tuple:
    """The five derivative trees of e and one program for e and them, made
    once per pair of names and kept on the tree, as the tree's own program
    is.  The program holds a copy of e's root, so the tree and its entry
    form no reference cycle."""
    n1, n2 = names
    entries = vars(e).setdefault("_jet_entries", {})
    entry = entries.get((n1, n2))
    if entry is None:
        ex = diff(e, n1)
        ey = diff(e, n2)
        derived = (ex, ey, diff(ex, n1), diff(ex, n2), diff(ey, n2))
        entry = entries[n1, n2] = derived, compile_trees((e._copy(), *derived))
    return entry


def jet_exprs(e: Expr, names: tuple[str, str]) -> tuple[Expr, Expr, Expr, Expr, Expr, Expr]:
    """The six expressions (e, e_x, e_y, e_xx, e_xy, e_yy); the first entry
    is always the caller's own tree."""
    return (e, *_jet_entry(e, names)[0])


def symbolic_jet(e: Expr, names: tuple[str, str], x, y) -> JetArrays:
    """Exact jet of an expression at a point, or at arrays of points that
    broadcast together, by symbolic differentiation; valid where finite.

    Each array entry equals the single-point jet at that point bit for bit;
    a point's entries are Python floats and its `valid` a numpy bool."""
    n1, n2 = names
    values = _jet_entry(e, names)[1]({n1: x, n2: y})
    return JetArrays(*values, valid=_finite(values))


# ---------------------------------------------------------------------------
# CSV I/O
#
# A table is a header line, then rows of comma-separated reals of one width;
# blank lines are skipped.  Reals carry 17 significant digits so doubles
# round-trip losslessly; masked cells are written as the literal token "nan".
# A grid's header: # nx=<int>,ny=<int>,x0=<real>,y0=<real>,dx=<real>,dy=<real>
# then ny rows of nx values (row j fixed, i varying).

_HEADER = re.compile(
    r"^#\s*nx=([^,]+),ny=([^,]+),x0=([^,]+),y0=([^,]+),dx=([^,]+),dy=([^,]+)\s*$"
)


@functools.lru_cache(maxsize=None)  # p is bounded by the fast path's range
def _pow10(p: int) -> tuple[float, float]:
    """10**p as a double-double: hi the nearest double, lo the rest rounded."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into a high half of 26 significant bits and
    the exact rest, so that products of halves are exact."""
    c = 134217729.0 * a
    h = c - (c - a)
    return h, a - h


def _scaled(a: np.ndarray, p: np.ndarray):
    """a * 10**p as P + L: P the rounded product, L the rest to about 1e-14.

    Returns (P, L, exact), exact where 10**p is a double and P + L is exact."""
    first = int(p.min())
    hi, lo = np.array([_pow10(q) for q in range(first, int(p.max()) + 1)]).T
    h = hi.take(p - first)
    P = a * h
    ah, al = _split(a)
    hh, hl = _split(h)
    # L = (((ah*hh - P) + ah*hl) + al*hh) + al*hl + a*lo, in place
    L = ah * hh
    L -= P
    ah *= hl
    L += ah
    hh *= al
    L += hh
    hl *= al
    L += hl
    l = lo.take(p - first)
    exact = l == 0.0
    l *= a
    L += l
    return P, L, exact


_FAST_RANGE = (1e-280, 1e280)  # the products and splits stay normal and finite
_NEAR_TIE = 1e-6  # far above the error of L: closer to a half, Python decides


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|v| rounded half to even to 17 significant digits, as D * 10**(X-16).

    Returns (D, X, fast): D in [1e16, 1e17) (0 for zeros), the decimal
    exponent X, and fast, False where v is non-finite, |v| lies outside
    _FAST_RANGE, or the product lies within _NEAR_TIE of a rounding tie that
    is not exact, so that D and X cannot be trusted.
    """
    a = np.abs(v)
    zero = a == 0.0
    inrange = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(inrange, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    P, L, exact = _scaled(a, 16 - k)
    # next to a power of ten log10 can miss floor(log10 a) by one, and the
    # product then falls outside [1e16, 1e17); P - 1e16 and P - 1e17 are
    # exact wherever the sign of the sum with L is in doubt
    shift = (((P - 1e17) + L >= 0).view(np.int8)
             - ((P - 1e16) + L < 0).view(np.int8))
    fix = np.flatnonzero(shift)
    if fix.size:
        k[fix] += shift[fix]
        P[fix], L[fix], exact[fix] = _scaled(a[fix], 16 - k[fix])
    # P is an even integer, so P + L rounds half to even where L does
    r = np.rint(L)
    fast = zero | (inrange & (exact | (np.abs(L - r) <= 0.5 - _NEAR_TIE)))
    D = P.astype(np.int64) + r.astype(np.int64)
    carry = D == 10 ** 17
    D = np.where(carry, 10 ** 16, D)
    D *= ~zero  # zeros were scaled as 1.0, so their X is already 0
    return D, k + carry, fast


def _digit_rows(D: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each D in ASCII, row c holding the c-th.

    Each level splits every part by a power of ten into a high and a low
    part, in the narrowest integer type the low parts fit."""
    digits = np.empty((17, D.size), np.uint8)
    lead = D // 10 ** 16
    digits[0] = lead + 48
    parts = (D - lead * 10 ** 16)[None]
    for size, dtype in ((10 ** 8, np.uint32), (10 ** 4, np.uint16), (100, np.uint8), (10, np.uint8)):
        high = parts // size
        split = np.empty((2 * len(parts), D.size), dtype)
        split[0::2] = high
        split[1::2] = parts - high * size
        parts = split
    np.add(parts, 48, out=digits[1:])
    return digits


_BLOCK_VALUES = 8192  # values per block of a blocked pass: bounds the working set
# rows of the field matrix, one column per value: the sign, "0.000" before
# the digits of 1e-4 <= |v| < 1, 17 digits with a point after the integer
# part, "e+XXX", the separator
_SIGN, _LEAD, _BODY, _EXP, _SEP = 0, 1, 6, 24, 29
_WIDTH = 30


def _format_rows(rows: np.ndarray) -> tuple[bytes, int]:
    """CSV lines of a 2-D float block, each byte-identical to
    ",".join("%.17g" % v for v in row) + "\n".

    Returns the bytes and the number of values that Python's own % formats:
    those where _decimal is not fast, apart from NaN, which is always "nan".
    Each value gets a fixed-width field of NUL-padded ASCII in the layout
    %.17g takes for its exponent, and the NULs are dropped.
    """
    rows = np.asarray(rows, dtype=np.float64)
    ncols = rows.shape[1]
    v = rows.ravel()
    n = v.size
    if n == 0:
        return b"", 0
    D, X, fast = _decimal(v)
    digits = _digit_rows(D)
    del D
    # later[c]: a digit other than 0 sits at c or after it
    later = np.zeros((18, n), bool)
    np.not_equal(digits, 48, out=later[:17])
    for c in range(15, -1, -1):
        later[c] |= later[c + 1]
    expo = (X < -4) | (X >= 17)
    small = (X < 0) & ~expo
    last_int = np.where(expo, 0, np.where(small, -1, X))  # last integer digit
    integer = np.arange(17, dtype=np.int8)[:, None] <= last_int.astype(np.int8)

    m = np.zeros((_WIDTH, n), np.uint8)
    m[_SIGN] = np.signbit(v) * np.uint8(45)
    lead = np.frombuffer(b"0.000", np.uint8)[:, None]
    m[_LEAD:_BODY] = lead * (np.arange(5)[:, None] < np.where(small, 1 - X, 0))
    # the digits one row down, trailing zeros dropped, then the integer
    # digits one row up over them; the point goes between the two
    np.multiply(digits, later[:17], out=m[_BODY + 1:_BODY + 18])
    np.copyto(m[_BODY:_BODY + 17], digits, where=integer)
    del digits, integer
    at = np.arange(n)
    m.reshape(-1)[(_BODY + 1 + last_int) * n + at] = (
        later.reshape(-1)[(last_int + 1) * n + at] & ~small) * np.uint8(46)
    del later
    if expo.any():
        i = np.flatnonzero(expo)
        e = np.abs(X[i])
        m[_EXP, i] = 101
        m[_EXP + 1, i] = np.where(X[i] < 0, 45, 43)
        m[_EXP + 2, i] = (e >= 100) * (e // 100 + 48)
        m[_EXP + 3, i] = e // 10 % 10 + 48
        m[_EXP + 4, i] = e % 10 + 48
    slow = np.flatnonzero(~fast)
    if slow.size:
        m[:_SEP, slow] = 0
        nan = np.isnan(v[slow])  # masked cells: "nan" whatever the sign bit
        m[_BODY:_BODY + 3, slow[nan]] = np.frombuffer(b"nan", np.uint8)[:, None]
        slow = slow[~nan]
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S24")
        m[:24, slow] = text.view(np.uint8).reshape(-1, 24).T
    m[_SEP] = 44
    m[_SEP, ncols - 1::ncols] = 10
    return m.T.tobytes().translate(None, b"\0"), slow.size


def write_table(path, header: str, blocks) -> None:
    """Write a CSV table: the header line, then the rows of each 2-D float
    block in `blocks`, formatted _BLOCK_VALUES values (or one row) at a time."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for rows in blocks:
            step = max(1, _BLOCK_VALUES // rows.shape[1])
            for first in range(0, len(rows), step):
                fh.write(_format_rows(rows[first:first + step])[0])


def _parse_real(token: str, line_no: int, col: int, finite: bool) -> float:
    try:
        v = float(token)
    except ValueError:
        raise GridFormatError(
            f"line {line_no}: value {col} is not a number: {token.strip()!r}") from None
    if finite and math.isinf(v):
        raise GridFormatError(f"line {line_no}: value {col} is not finite: {token.strip()!r}")
    return v


def read_table(path, width, finite: bool = False) -> tuple[str, np.ndarray]:
    """The first line of a CSV table and its other non-blank lines as an
    (n, w) float array, where w = width(first line), None refusing it.

    A row of another width, a token that is not a real, or an infinity when
    `finite` is set, raises GridFormatError naming the file's line and the value."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GridFormatError("line 1: empty file")
    w = width(lines[0])
    if w is None:
        raise GridFormatError(f"line 1: unexpected header: {lines[0]!r}")
    rows = []
    for line_no, line in enumerate(lines[1:], 2):
        if line.strip():
            tokens = line.split(",")
            if len(tokens) != w:
                raise GridFormatError(
                    f"line {line_no}: expected {w} values, found {len(tokens)}")
            rows.append([_parse_real(t, line_no, col, finite)
                         for col, t in enumerate(tokens, 1)])
    return lines[0], np.array(rows, dtype=np.float64).reshape(-1, w)


def write_grid(g: Grid2, path) -> None:
    write_table(path, f"# nx={g.nx},ny={g.ny},x0={g.geom.x0:.17g},y0={g.geom.y0:.17g},"
                      f"dx={g.dx:.17g},dy={g.dy:.17g}", [g.values])


def _grid_geometry(header: str) -> GridGeometry:
    m = _HEADER.match(header)
    if m is None:
        raise GridFormatError(f"line 1: malformed header: {header!r}")
    try:
        nx, ny = int(m.group(1)), int(m.group(2))
        x0, y0, dx, dy = (float(m.group(k)) for k in range(3, 7))
    except ValueError as err:
        raise GridFormatError(f"line 1: malformed header field: {err}") from None
    try:
        return GridGeometry(nx, ny, x0, y0, dx, dy)
    except GridError as err:
        raise GridFormatError(f"line 1: {err}") from None


def read_grid(path) -> Grid2:
    header, values = read_table(path, lambda first: _grid_geometry(first).nx, finite=True)
    geom = _grid_geometry(header)
    if len(values) != geom.ny:
        raise GridFormatError(f"line 1: ny={geom.ny}, but the file has {len(values)} data rows")
    return Grid2(geom, values)
