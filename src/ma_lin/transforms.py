"""Contact, Ampere, point, Legendre and rotation transformations.

`push_jet_arrays` is the combined map sending jets of U(X, Y) to jets of u(x, y)
with x = U_Y, y = U - Y*U_Y, u = X; `contact_map` is its one-jet form.
`compose_chain` rebuilds the same image by running the four elementary steps
one after another, each with its own small jet push-forward; it exists so the
equivalence of the two routes is testable.

Discrete counterparts: a convex-conjugate sweep on sampled 1-D/2-D data and a
column-wise discrete Ampere transform producing scattered (x, y, u) samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .expressions import Expr
from .grids import Grid2, GridGeometry, Jet2, symbolic_jet

__all__ = [
    "DEGENERACY_EPS", "TransformError", "DegenerateJetError", "FoldError",
    "ContactImage", "contact_map", "push_jet_arrays",
    "AmpereImage", "ampere_step", "point_step", "rotation_step",
    "legendre_point_map", "compose_chain",
    "DualGrid1", "discrete_legendre_1d", "discrete_legendre_2d",
    "ScatteredSamples", "ampere_discrete", "write_scattered", "read_scattered",
]

# Absolute threshold below which an inversion is numerically meaningless.
DEGENERACY_EPS = 1e-8


class TransformError(Exception):
    pass


class DegenerateJetError(TransformError):
    def __init__(self, quantity: str, value: float):
        super().__init__(f"degenerate jet: |{quantity}| = {abs(value):.3e} <= {DEGENERACY_EPS}")
        self.quantity = quantity
        self.value = value


class FoldError(TransformError):
    pass


@dataclass(frozen=True)
class ContactImage:
    x: float
    y: float
    jet: Jet2  # jet of u at (x, y)
    jacobian: float  # det of the (X,Y) -> (x,y) map, equals -U_X * U_YY


def contact_map(jet_U: Jet2, X: float, Y: float, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Push a jet of U at (X, Y) through x=U_Y, y=U-Y*U_Y, u=X.

    A single-node call of push_jet_arrays.  Where that call masks the node,
    raises DegenerateJetError for the first of |U_X|, |U_YY| and the
    jacobian at or below the threshold; those are the fold lines of the map.
    """
    x, y, u, ux, uy, uxx, uxy, uyy, jac, valid = push_jet_arrays(
        jet_U.u, jet_U.ux, jet_U.uy, jet_U.uxx, jet_U.uxy, jet_U.uyy, X, Y, eps=eps)
    if not valid:
        for quantity, value in (("U_X", jet_U.ux), ("U_YY", jet_U.uyy),
                                ("jacobian", -jet_U.ux * jet_U.uyy)):
            if abs(value) <= eps:
                raise DegenerateJetError(quantity, value)
    jet = Jet2(*(float(a) for a in (u, ux, uy, uxx, uxy, uyy)))
    return ContactImage(x=float(x), y=float(y), jet=jet, jacobian=float(jac))


def push_jet_arrays(U, UX, UY, UXX, UXY, UYY, X, Y, eps: float = DEGENERACY_EPS):
    """Push arrays of jets of U at (X, Y) through the contact map, node by node.

    Returns (x, y, u, ux, uy, uxx, uxy, uyy, jac, valid); entries where the
    map degenerates (or inputs are non-finite) are NaN with valid=False.
    """
    arrs = [np.asarray(a, dtype=np.float64) for a in (U, UX, UY, UXX, UXY, UYY, X, Y)]
    U, UX, UY, UXX, UXY, UYY, X, Y = arrs
    fin = np.isfinite(U)
    for a in arrs[1:6]:
        fin = fin & np.isfinite(a)
    jac = -UX * UYY
    valid = fin & (np.abs(UX) > eps) & (np.abs(UYY) > eps) & (np.abs(jac) > eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 1.0 / (UX * UX * UX * UYY)
        x = UY + 0.0 * U
        y = U - Y * UY
        u = X + 0.0 * U
        ux = Y / UX
        uy = 1.0 / UX
        uxx = (Y * Y * UXY * UXY - Y * Y * UXX * UYY - 2 * Y * UX * UXY + UX * UX) * c
        uxy = (Y * UXY * UXY - Y * UXX * UYY - UX * UXY) * c
        uyy = (UXY * UXY - UXX * UYY) * c
    out = (x, y, u, ux, uy, uxx, uxy, uyy, jac)
    return (*(np.where(valid, a, np.nan) for a in out), valid)


@dataclass(frozen=True)
class AmpereImage:
    x: float
    y: float
    u: float
    dy_dbeta: float  # V_beta_beta; local invertibility indicator


def ampere_step(V: Union[Jet2, Expr], alpha: float, beta: float,
                eps: float = DEGENERACY_EPS) -> AmpereImage:
    """The one-variable Legendre-type step x=alpha, y=V_beta, u=V-beta*V_beta."""
    if isinstance(V, Expr):
        V = symbolic_jet(V, ("alpha", "beta"), alpha, beta)
    if abs(V.uyy) <= eps:
        raise DegenerateJetError("V_beta_beta", V.uyy)
    return AmpereImage(x=alpha, y=V.uy, u=V.u - beta * V.uy, dy_dbeta=V.uyy)


def point_step(xi: float, eta: float, W: float,
               eps: float = DEGENERACY_EPS) -> tuple[float, float, float]:
    """alpha = xi, beta = 1/eta, V = W/eta."""
    if abs(eta) <= eps:
        raise DegenerateJetError("eta", eta)
    return xi, 1.0 / eta, W / eta


def rotation_step(tau: float, sigma: float, Z: float) -> tuple[float, float, float]:
    """Invert tau = -Y, sigma = X, Z = -U: returns (X, Y, U)."""
    return sigma, -tau, -Z


def legendre_point_map(jet: Jet2, X: float, Y: float,
                       eps: float = DEGENERACY_EPS) -> tuple[float, float, Jet2]:
    """Full Legendre map x=U_X, y=U_Y, u=X*U_X+Y*U_Y-U on a nondegenerate jet.

    The image second derivatives are the inverse Hessian, so applying the map
    twice is the identity.
    """
    det = jet.hessian_det()
    if abs(det) <= eps:
        raise DegenerateJetError("U_XX*U_YY - U_XY^2", det)
    image = Jet2(
        u=X * jet.ux + Y * jet.uy - jet.u,
        ux=X,
        uy=Y,
        uxx=jet.uyy / det,
        uxy=-jet.uxy / det,
        uyy=jet.uxx / det,
    )
    return jet.ux, jet.uy, image


def compose_chain(U: Expr, X: float, Y: float, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Run the four elementary steps in sequence starting from U(X, Y).

    Each step pushes the full second-order jet with the chain rule for that
    step alone; nothing here reuses the combined contact_map formulas, so
    agreement between the two is a real consistency check.  Every intermediate
    nondegeneracy condition must hold at the point.
    """
    jU = symbolic_jet(U, ("X", "Y"), X, Y)

    # rotation/scaling, inverted: tau=-Y, sigma=X, Z=-U
    tau, sigma = -Y, X
    zjet = Jet2(u=-jU.u, ux=jU.uy, uy=-jU.ux,
                uxx=-jU.uyy, uxy=jU.uxy, uyy=-jU.uxx)
    det_z = zjet.hessian_det()

    # Legendre: (tau, sigma, Z) -> (xi, eta, W)
    xi, eta, wjet = legendre_point_map(zjet, tau, sigma, eps=eps)

    # point step, inverted: alpha=xi, beta=1/eta, V=beta*W
    if abs(eta) <= eps:
        raise DegenerateJetError("eta", eta)
    alpha, beta = xi, 1.0 / eta
    vjet = Jet2(
        u=beta * wjet.u,
        ux=beta * wjet.ux,
        uy=wjet.u - eta * wjet.uy,
        uxx=beta * wjet.uxx,
        uxy=wjet.ux - eta * wjet.uxy,
        uyy=eta ** 3 * wjet.uyy,
    )

    # Ampere step: x=alpha, y=V_beta, u=V-beta*V_beta
    am = ampere_step(vjet, alpha, beta, eps=eps)
    ujet = Jet2(
        u=am.u,
        ux=vjet.ux,
        uy=-beta,
        uxx=vjet.uxx - vjet.uxy ** 2 / vjet.uyy,
        uxy=vjet.uxy / vjet.uyy,
        uyy=-1.0 / vjet.uyy,
    )
    jac = vjet.uyy * (-1.0 / eta ** 2) * det_z
    return ContactImage(x=am.x, y=am.y, jet=ujet, jacobian=jac)


# ---------------------------------------------------------------------------
# discrete convex conjugate

@dataclass(frozen=True)
class DualGrid1:
    slopes: np.ndarray
    values: np.ndarray


def _check_increasing(a: np.ndarray, what: str) -> None:
    if a.ndim != 1:
        raise TransformError(f"{what} must be one-dimensional")
    if not np.isfinite(a).all():
        raise TransformError(f"{what} must be finite")
    if a.size >= 2 and not np.all(np.diff(a) > 0):
        raise TransformError(f"{what} must be strictly increasing")


def _lower_hull(xs: Sequence[float], vs: Sequence[float]) -> list[int]:
    """Indices of the lower convex envelope of (xs, vs), collinear points kept.

    Turn tests run in exact rational arithmetic so the hull never depends on
    rounding.
    """
    fx = [Fraction(float(x)) for x in xs]
    fv = [Fraction(float(v)) for v in vs]
    hull: list[int] = []
    for k in range(len(fx)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (fx[b] - fx[a]) * (fv[k] - fv[a]) - (fv[b] - fv[a]) * (fx[k] - fx[a])
            if cross < 0:  # b lies strictly above segment a-k
                hull.pop()
            else:
                break
        hull.append(k)
    return hull


def discrete_legendre_1d(xs, vs, slopes) -> DualGrid1:
    """Conjugate of sampled data: values[k] = max_i (slopes[k]*xs[i] - vs[i]).

    Computed by a monotone sweep over the lower convex envelope; both the
    query slopes and the envelope breakpoints increase, so the argmax pointer
    only moves forward.  Exact-tie plateaus are resolved by taking the largest
    floating-point candidate, which makes the result identical to the brute
    force maximum over all nodes.
    """
    xs = np.asarray(xs, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    if xs.shape != vs.shape or xs.size < 2:
        raise TransformError("xs and vs must have equal length >= 2")
    _check_increasing(xs, "xs")
    _check_increasing(slopes, "slopes")
    if not np.isfinite(vs).all():
        raise TransformError("vs must be finite")

    hull = _lower_hull(xs, vs)
    hx = [Fraction(float(xs[i])) for i in hull]
    hv = [Fraction(float(vs[i])) for i in hull]
    out = np.empty(slopes.size)
    e = 0
    for k in range(slopes.size):
        s = Fraction(float(slopes[k]))
        # advance past edges with slope strictly below s
        while e + 1 < len(hull) and (hv[e + 1] - hv[e]) < s * (hx[e + 1] - hx[e]):
            e += 1
        # the exact-argmax plateau: vertex e plus any following edges of slope s
        best = float(slopes[k]) * xs[hull[e]] - vs[hull[e]]
        t = e
        while t + 1 < len(hull) and (hv[t + 1] - hv[t]) == s * (hx[t + 1] - hx[t]):
            t += 1
            cand = float(slopes[k]) * xs[hull[t]] - vs[hull[t]]
            if cand > best:
                best = cand
        out[k] = best
    return DualGrid1(slopes=slopes.copy(), values=out)


def discrete_legendre_2d(g: Grid2, slope_geom: GridGeometry) -> Grid2:
    """Two-dimensional conjugate W(xi, eta) = max_{x,y} (xi*x + eta*y - Z(x, y)).

    Computed as two sequential 1-D conjugations (along x per row, then along y
    per column of the intermediate), which equals the joint maximum.
    """
    if not np.isfinite(g.values).all():
        raise TransformError("2-D conjugate requires a fully unmasked grid")
    xs, ys = g.xs(), g.ys()
    xi, eta = slope_geom.xs(), slope_geom.ys()
    inner = np.empty((g.ny, slope_geom.nx))
    for j in range(g.ny):
        inner[j, :] = discrete_legendre_1d(xs, g.values[j, :], xi).values
    out = np.empty((slope_geom.ny, slope_geom.nx))
    for k in range(slope_geom.nx):
        out[:, k] = discrete_legendre_1d(ys, -inner[:, k], eta).values
    return Grid2(slope_geom, out)


# ---------------------------------------------------------------------------
# discrete Ampere transform

@dataclass(frozen=True)
class ScatteredSamples:
    """Scattered (x, y, u) triples with one branch label per source column."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    column_branch: tuple[str, ...]  # "convex" or "concave" per alpha-column

    def __len__(self):
        return self.x.size


def ampere_discrete(V: Grid2) -> ScatteredSamples:
    """Column-wise discrete Ampere transform of V(alpha, beta).

    For each alpha-column the image ordinates are the centered differences
    y = V_beta at interior nodes and u = V - beta*V_beta.  Each column must
    have a strictly monotone discrete slope (V_beta_beta of one sign);
    otherwise the column contains a fold.  The values are computed through the
    convex-conjugate kernel: a convex column is conjugated directly and
    negated, a concave column is handled by conjugating -V.
    """
    if not np.isfinite(V.values).all():
        raise TransformError("discrete Ampere transform requires an unmasked grid")
    if V.ny < 3:
        raise TransformError("need at least 3 beta-nodes for centered differences")
    alphas, betas = V.xs(), V.ys()
    xs_out, ys_out, us_out, branches = [], [], [], []
    for i in range(V.nx):
        col = V.values[:, i]
        slope = (col[2:] - col[:-2]) / (2 * V.dy)
        # one-signed second difference = strictly monotone edge slopes; this is
        # what makes the conjugate at each centered slope land on its own node
        d2 = col[2:] - 2 * col[1:-1] + col[:-2]
        if np.all(d2 > 0):
            branch = "convex"
            dual = discrete_legendre_1d(betas, col, slope)
            u = -dual.values
        elif np.all(d2 < 0):
            branch = "concave"
            dual = discrete_legendre_1d(betas, -col, -slope)
            u = dual.values
        else:
            raise FoldError(
                f"column alpha={alphas[i]:.6g} has a non-monotone discrete slope (fold)")
        branches.append(branch)
        xs_out.append(np.full(slope.size, alphas[i]))
        ys_out.append(slope)
        us_out.append(u)
    return ScatteredSamples(
        x=np.concatenate(xs_out),
        y=np.concatenate(ys_out),
        u=np.concatenate(us_out),
        column_branch=tuple(branches),
    )


def write_scattered(s: ScatteredSamples, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# scattered\n")
        for x, y, u in zip(s.x, s.y, s.u):
            fh.write(f"{x:.17g},{y:.17g},{u:.17g}\n")


def read_scattered(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "# scattered":
        raise TransformError("missing '# scattered' header")
    rows = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:] if ln.strip()]
    arr = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]
