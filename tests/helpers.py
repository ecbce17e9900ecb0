"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths under test:
brute-force maxima, finite differences, Newton inversion of the parametric
map, a recursive expression evaluator, and seeded closed-form families.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from ma_lin.expressions import (BinOp, Call, Const, EvalError, Expr, Neg, Var, _call,
                                _guard, _power, evaluate, parse)
from ma_lin.grids import JetArrays, jet_exprs


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env(**extra) -> dict:
    """The environment for a subprocess that imports ma_lin from this
    checkout's src/, installed or not."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def percent_g_rows(rows) -> bytes:
    """CSV lines of a 2-D block, every value formatted on its own by %.17g."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(rows, dtype=np.float64).tolist()).encode()


def brute_conjugate(xs, vs, slopes) -> np.ndarray:
    """O(n*m) reference for the discrete convex conjugate."""
    out = np.empty(len(slopes))
    for k, s in enumerate(slopes):
        out[k] = max(s * x - v for x, v in zip(xs, vs))
    return out


def brute_conjugate_2d(xs, ys, Z, xi, eta) -> np.ndarray:
    """Joint 2-D maximum of xi*x + eta*y - Z over all nodes."""
    out = np.empty((len(eta), len(xi)))
    for l, e in enumerate(eta):
        for k, s in enumerate(xi):
            out[l, k] = np.max(np.subtract.outer(e * np.asarray(ys), -s * np.asarray(xs)) - Z)
    return out


def point_jet(u, ux, uy, uxx, uxy, uyy) -> JetArrays:
    """The jet of one point, six floats."""
    return JetArrays(u, ux, uy, uxx, uxy, uyy, valid=True)


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def jacobian_reference(kind: str, jet: tuple, material_point=None) -> float:
    """Total map jacobian of one potential jet (u, ux, uy, uxx, uxy, uyy) of
    floats: the Hessian determinant, divided by |grad W|^4 for from-W and by
    (X^2+Y^2)^2 for the inversion-chart kinds."""
    _, ux, uy, uxx, uxy, uyy = jet
    det = uxx * uyy - uxy * uxy
    if kind in ("from-U", "axisym-U"):
        return det
    if kind == "from-W":
        g2 = ux * ux + uy * uy
        return det / (g2 * g2)
    X, Y = material_point
    r2 = X * X + Y * Y
    return det / (r2 * r2)


def ma_residual_reference(kind: str, jet: tuple, point: tuple) -> float:
    """Balance residual det - F of one potential jet of floats at its own
    chart point (a, b), F as the kind's balance equation states it."""
    u, ux, uy, uxx, uxy, uyy = jet
    a, b = point
    det = uxx * uyy - uxy * uxy
    r2 = a * a + b * b
    F = {"from-U": lambda: 1.0,
         "from-W": lambda: (ux * ux + uy * uy) * (ux * ux + uy * uy),
         "from-V": lambda: 1.0 / (r2 * r2),
         "membrane": lambda: 1.0 / (r2 * r2) / (a * ux + b * uy - u),
         "axisym-U": lambda: a / ux,
         "axisym-V": lambda: a / (r2 * r2 * ux)}[kind]()
    return det - F


def measured_order(err_coarse: float, err_fine: float) -> float:
    return math.log2(err_coarse / err_fine)


def stencil_jet(v, i: int, j: int, dx: float, dy: float) -> dict:
    """Scalar second-order central-difference jet at interior node (i, j) of values v[j, i]."""
    c = float(v[j, i])
    e, w, n, s = float(v[j, i + 1]), float(v[j, i - 1]), float(v[j + 1, i]), float(v[j - 1, i])
    ne, nw = float(v[j + 1, i + 1]), float(v[j + 1, i - 1])
    se, sw = float(v[j - 1, i + 1]), float(v[j - 1, i - 1])
    return {"u": c, "ux": (e - w) / (2 * dx), "uy": (n - s) / (2 * dy),
            "uxx": (e - 2 * c + w) / dx ** 2, "uxy": (ne - nw - se + sw) / (4 * dx * dy),
            "uyy": (n - 2 * c + s) / dy ** 2}


def dense_dirichlet(problem) -> np.ndarray:
    """Reference Dirichlet solve: the five-point matrix assembled row by row
    and handed to np.linalg.solve.  Small grids only (n <= 21 per axis)."""
    geom = problem.geom
    nx, ny = geom.nx, geom.ny
    if max(nx, ny) > 21:
        raise ValueError("dense reference is for grids of at most 21 nodes per axis")
    U = np.zeros((ny, nx))
    U[:, 0], U[:, -1] = problem.boundary.left, problem.boundary.right
    U[0, :], U[-1, :] = problem.boundary.bottom, problem.boundary.top
    cx = 1.0 / geom.dx ** 2
    unknown = {(j, i): k for k, (j, i) in
               enumerate((j, i) for j in range(1, ny - 1) for i in range(1, nx - 1))}
    A = np.zeros((len(unknown), len(unknown)))
    b = np.zeros(len(unknown))
    for (j, i), k in unknown.items():
        cy = problem.fcoeff.values[j, i] / geom.dy ** 2
        A[k, k] = -2.0 * cx - 2.0 * cy
        b[k] = problem.source.values[j, i]
        for (jj, ii), c in (((j, i - 1), cx), ((j, i + 1), cx), ((j - 1, i), cy), ((j + 1, i), cy)):
            if (jj, ii) in unknown:
                A[k, unknown[(jj, ii)]] = c
            else:
                b[k] -= c * U[jj, ii]
    x = np.linalg.solve(A, b)
    for (j, i), k in unknown.items():
        U[j, i] = x[k]
    return U


def dense_line_solve(diag, lo, hi, rhs) -> np.ndarray:
    """Reference for one tridiagonal line: diag u - lo u_prev - hi u_next = rhs,
    assembled as a dense matrix and handed to np.linalg.solve (lo[0] and hi[-1]
    are ignored)."""
    A = np.diag(np.asarray(diag, dtype=np.float64))
    for m in range(1, len(diag)):
        A[m, m - 1] = -lo[m]
        A[m - 1, m] = -hi[m - 1]
    return np.linalg.solve(A, rhs)


def dense_level_operator(op) -> np.ndarray:
    """A multigrid level's operator W u_w + E u_e + S u_s + N u_n - C u on its
    interior nodes in row-major order, zero boundary values, assembled entry
    by entry from the stencil arrays (W, E, S, N, C)."""
    W, E, S, N, C = (np.asarray(a, dtype=np.float64) for a in op)
    ny, nx = C.shape
    A = np.zeros((ny * nx, ny * nx))
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            A[k, k] = -C[j, i]
            if i > 0:
                A[k, k - 1] = W[j, i]
            if i < nx - 1:
                A[k, k + 1] = E[j, i]
            if j > 0:
                A[k, k - nx] = S[j, i]
            if j < ny - 1:
                A[k, k + nx] = N[j, i]
    return A


def transfers_reference(pos, keep):
    """Node-by-node reference for ma_lin.linsolve._transfers: linear
    interpolation from pos[keep] to pos, and its transpose weighted by
    control-volume widths, each as zero-padded (index, weight) arrays."""
    def ell(rows):
        width = max(len(r) for r in rows)
        idx = np.zeros((len(rows), width), dtype=np.intp)
        w = np.zeros((len(rows), width))
        for k, r in enumerate(rows):
            for m, (i, v) in enumerate(r):
                idx[k, m], w[k, m] = i, v
        return idx, w

    def widths(p):
        half = np.diff(p) / 2
        return np.r_[half, 0.0] + np.r_[0.0, half]

    coarse = pos[keep]
    left = np.clip(np.searchsorted(coarse, pos, side="right") - 1, 0, len(coarse) - 2)
    t = (pos - coarse[left]) / (coarse[left + 1] - coarse[left])
    prolong = [[(int(m), 1.0 - float(s)), (int(m) + 1, float(s))] for m, s in zip(left, t)]
    wf, wc = widths(pos), widths(coarse)
    restrict = [[] for _ in coarse]
    for i, row in enumerate(prolong):
        for m, v in row:
            if v != 0.0 and 0 < m < len(coarse) - 1:
                restrict[m].append((i, v * wf[i] / wc[m]))
    restrict[0] = restrict[-1] = [(0, 0.0)]
    return ell(prolong), ell(restrict)


def product_reference(A, B) -> np.ndarray:
    """Reference for ma_lin.linsolve._product: the matrix product as one
    multiply over a broadcast (n, n, m) array and a sum over its leading
    axis, which adds the terms of each entry in order."""
    return (A.T[:, :, None] * B[:, None, :]).sum(axis=0)


def apply_reference(ell, A, axis: int) -> np.ndarray:
    """Reference for ma_lin.linsolve._apply: a zero-padded (index, weight)
    transfer applied along one axis of A, slicing each term's columns as it
    goes, term by term in a fixed order."""
    idx, w = ell
    shape = (-1, 1) if axis == 0 else (1, -1)
    out = w[:, 0].reshape(shape) * np.take(A, idx[:, 0], axis=axis)
    for m in range(1, idx.shape[1]):
        out += w[:, m].reshape(shape) * np.take(A, idx[:, m], axis=axis)
    return out


def zero_start_solve(problem, max_iter: int = 100_000):
    """Reference for ma_lin.linsolve.solve_dirichlet without its nested start:
    V-cycles of `_Level.cycle` from a zero interior under the same default
    stopping rule (FLOOR_FACTOR rounding floors, or STALL_CYCLES cycles in a
    row that fail to halve the residual, or max_iter).  Returns the iterate,
    the V-cycles run, the final max-norm residual and whether it met the
    bound."""
    from ma_lin.linsolve import FLOOR_FACTOR, STALL_CYCLES, _Level, discrete_residual
    geom, f, g = problem.geom, problem.fcoeff.values, problem.source.values
    U = np.zeros((geom.ny, geom.nx))
    U[:, 0], U[:, -1] = problem.boundary.left, problem.boundary.right
    U[0, :], U[-1, :] = problem.boundary.bottom, problem.boundary.top
    top = _Level(f, np.arange(geom.nx), np.arange(geom.ny), geom.dx, geom.dy)
    scale = np.finfo(np.float64).eps * (2 / geom.dx ** 2 + 2 * np.max(f[1:-1, 1:-1]) / geom.dy ** 2)
    cycles, mark, since = 0, math.inf, 0
    while True:
        res = np.max(np.abs(discrete_residual(U, f[1:-1, 1:-1], g[1:-1, 1:-1], geom.dx, geom.dy)))
        bound = FLOOR_FACTOR * scale * np.max(np.abs(U))
        mark, since = (res, 0) if res < 0.5 * mark else (mark, since + 1)
        if res <= bound or cycles >= max_iter or since >= STALL_CYCLES:
            return U, cycles, float(res), bool(res <= bound)
        top.cycle(U, g)
        cycles += 1


def invert_bilinear(cx, cy, tx, ty):
    """Scalar reference for the array Newton of ma_lin.lift.resample.

    Solves P(s,t) = c0 + c1 s + c2 t + c3 s t = (tx, ty) for one cell, where
    cx, cy hold the 4 coefficients per coordinate; returns (s, t) or None.
    Damped Newton from the cell center: a step that does not shrink the
    residual is halved, up to 8 times, before giving up.
    """
    s, t = 0.5, 0.5
    rx = cx[0] + cx[1] * s + cx[2] * t + cx[3] * s * t - tx
    ry = cy[0] + cy[1] * s + cy[2] * t + cy[3] * s * t - ty
    scale = 1.0 + max(abs(tx), abs(ty))
    for _ in range(20):
        if max(abs(rx), abs(ry)) <= 1e-12 * scale:
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
    if max(abs(rx), abs(ry)) <= 1e-12 * scale:
        return s, t
    return None


def first_hit_resample(surface, target):
    """Brute-force reference for ma_lin.lift.resample: (values, mask).

    For each target, every cell with four valid corners whose bounding box,
    padded by 1e-12, holds the target is tried in row-major (cj, ci) order with
    the scalar invert_bilinear; the first inverse within 1e-9 of the unit
    square gives the bilinear interpolant of u at the clamped (s, t).
    """
    x, y, u, valid = surface.x, surface.y, surface.u, surface.valid
    ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    box = [np.stack((a[:-1, :-1], a[:-1, 1:], a[1:, :-1], a[1:, 1:])) for a in (x, y)]
    xlo, xhi = box[0].min(axis=0) - 1e-12, box[0].max(axis=0) + 1e-12
    ylo, yhi = box[1].min(axis=0) - 1e-12, box[1].max(axis=0) + 1e-12
    values = np.full((target.ny, target.nx), np.nan)
    mask = np.zeros((target.ny, target.nx), dtype=bool)
    for j, ty in enumerate(target.ys().tolist()):
        for i, tx in enumerate(target.xs().tolist()):
            cand = ok & (xlo <= tx) & (tx <= xhi) & (ylo <= ty) & (ty <= yhi)
            for cj, ci in zip(*np.nonzero(cand)):
                corners = [(cj, ci), (cj, ci + 1), (cj + 1, ci), (cj + 1, ci + 1)]
                xs = [float(x[c]) for c in corners]
                ys = [float(y[c]) for c in corners]
                us = [float(u[c]) for c in corners]
                cx = (xs[0], xs[1] - xs[0], xs[2] - xs[0], xs[3] - xs[1] - xs[2] + xs[0])
                cy = (ys[0], ys[1] - ys[0], ys[2] - ys[0], ys[3] - ys[1] - ys[2] + ys[0])
                st = invert_bilinear(cx, cy, tx, ty)
                if st is None or not all(-1e-9 <= v <= 1.0 + 1e-9 for v in st):
                    continue
                sv, tv = (min(max(v, 0.0), 1.0) for v in st)
                values[j, i] = ((1 - sv) * (1 - tv) * us[0] + sv * (1 - tv) * us[1]
                                + (1 - sv) * tv * us[2] + sv * tv * us[3])
                mask[j, i] = True
                break
    return values, mask


def reference_evaluate(e: Expr, bindings):
    """`evaluate` by a recursive walk of the tree, node by node, that
    evaluates a shared subtree again at each of its uses.  It uses the
    package's operation helpers (`_guard`, `_call`, `_power`), so it checks
    how compiled programs order and share steps, not the arithmetic."""
    env = {name: np.asarray(v, dtype=np.float64) if isinstance(v, np.ndarray) and v.ndim
           else float(v) for name, v in bindings.items()}
    shapes = [v.shape for v in env.values() if isinstance(v, np.ndarray)]
    shape = np.broadcast_shapes(*shapes) if shapes else ()
    with np.errstate(all="ignore"):
        r = _walk(e, env, shape)
    if not shape:
        return float(r)
    return np.array(np.broadcast_to(r, shape), dtype=np.float64)


def _walk(e: Expr, env: dict, shape: tuple):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            _guard(True, f"unbound variable {e.name!r}", 0.0, e, shape)
        return env[e.name]
    if isinstance(e, Neg):
        return -_walk(e.arg, env, shape)
    if isinstance(e, BinOp):
        a = _walk(e.left, env, shape)
        b = _walk(e.right, env, shape)
        op = e.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            _guard(b == 0.0, "division by zero", b, e, shape)
            return a / b
        if op == "^":
            return _power(a, b, e, shape)
        raise EvalError(f"unknown operator {op!r}", e)
    if isinstance(e, Call):
        return _call(e.func, _walk(e.arg, env, shape), e, shape)
    raise TypeError(f"not an Expr node: {e!r}")


def central_second(fn, x, h):
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / h ** 2


# ---------------------------------------------------------------------------
# seeded closed-form source family for the contact map

_PERTURB = [
    "sin(X-{c})", "cosh(Y-{c})", "arctan(Y-{c})*Y", "X^2*Y", "exp(0.4*X)",
    "sin(X)*cos(Y)",
]


def seeded_closed_forms(seed: int, count: int,
                        rect=(0.8, 1.2, 0.8, 1.2),
                        min_ux=0.1, min_uyy=0.1) -> list[Expr]:
    """Closed-form U(X, Y) with |U_X| and |U_YY| above thresholds on the rectangle.

    A well-conditioned quadratic backbone plus a small transcendental
    perturbation; each accepted form is checked on a 13x13 scan of the
    rectangle.
    """
    rng = np.random.default_rng(seed)
    X0, X1, Y0, Y1 = rect
    xs = np.linspace(X0, X1, 13)
    ys = np.linspace(Y0, Y1, 13)
    out: list[Expr] = []
    attempts = 0
    while len(out) < count and attempts < 4000:
        attempts += 1
        a = rng.uniform(0.5, 1.2)
        b = rng.uniform(0.5, 1.2) * rng.choice((-1.0, 1.0))
        cx = rng.uniform(-0.2, 0.4)
        cy = rng.uniform(-0.3, 0.3)
        g = rng.uniform(-0.3, 0.3)
        p = _PERTURB[int(rng.integers(len(_PERTURB)))].format(c=f"{rng.uniform(-0.5, 0.5):.6f}")
        eps = rng.uniform(0.05, 0.25)
        expr = parse(f"{a:.6f}*(X+{cx:.6f})^2 + {b:.6f}*(Y+{cy:.6f})^2 "
                     f"+ {g:.6f}*X*Y + {eps:.6f}*({p})")
        ok = True
        _, ex, _, _, _, eyy = jet_exprs(expr, ("X", "Y"))
        for x in xs:
            for y in ys:
                ux = evaluate(ex, {"X": x, "Y": y})
                uyy = evaluate(eyy, {"X": x, "Y": y})
                if abs(ux) < min_ux or abs(uyy) < min_uyy:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(expr)
    if len(out) < count:
        raise RuntimeError(f"only found {len(out)} usable closed forms")
    return out


def invert_contact_point(U: Expr, x: float, y: float,
                         X_init: float, Y_init: float,
                         tol: float = 1e-14, max_iter: int = 60):
    """Solve U_Y = x, U - Y*U_Y = y for (X, Y) by Newton with exact derivatives.

    Returns (X, Y) or None.  This inverts the parametric surface directly, so
    u(x, y) = X can be tabulated without any push-forward formulas.
    """
    _, ex, ey, exx, exy, eyy = jet_exprs(U, ("X", "Y"))
    X, Y = X_init, Y_init
    for _ in range(max_iter):
        b = {"X": X, "Y": Y}
        UY = evaluate(ey, b)
        Uv = evaluate(U, b)
        r1 = UY - x
        r2 = Uv - Y * UY - y
        if max(abs(r1), abs(r2)) <= tol * (1.0 + abs(x) + abs(y)):
            return X, Y
        UX = evaluate(ex, b)
        UXY = evaluate(exy, b)
        UYY = evaluate(eyy, b)
        # d(U_Y)/d(X,Y) = (U_XY, U_YY); d(U - Y U_Y)/d(X,Y) = (U_X - Y U_XY, -Y U_YY)
        a11, a12 = UXY, UYY
        a21, a22 = UX - Y * UXY, -Y * UYY
        det = a11 * a22 - a12 * a21
        if det == 0.0 or not math.isfinite(det):
            return None
        dX = (-r1 * a22 + r2 * a12) / det
        dY = (-r2 * a11 + r1 * a21) / det
        X, Y = X + dX, Y + dY
    return None


def surface_value_oracle(U: Expr, x: float, y: float, X_init: float, Y_init: float):
    """u(x, y) on the lifted surface of U, via Newton inversion; u = X."""
    sol = invert_contact_point(U, x, y, X_init, Y_init)
    if sol is None:
        return None
    return sol[0]
