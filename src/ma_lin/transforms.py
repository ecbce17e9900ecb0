"""Contact, Ampere, point, Legendre and rotation transformations.

Jets are `JetArrays`: float fields for one point or arrays for many, with the
same bits for a point either way. `push_jet_arrays` sends jets of U(X, Y) to
jets of u(x, y) with x = U_Y, y = U - Y*U_Y, u = X, masking where it folds;
`contact_map` raises there instead. `compose_chain` rebuilds the same image by
running the four elementary steps one after another, each with its own small
jet push-forward; it exists so the equivalence of the two routes is testable.

Discrete counterparts: the convex conjugate of sampled 1-D/2-D data, taken as
the maximum over all (slope, node) pairs, and a column-wise discrete Ampere
transform producing scattered (x, y, u) samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .expressions import Expr
from .grids import Grid2, GridGeometry, JetArrays, _write_rows, symbolic_jet

__all__ = [
    "DEGENERACY_EPS", "TransformError", "DegenerateJetError", "FoldError",
    "ContactImage", "contact_map", "push_jet_arrays",
    "ampere_step", "point_step", "rotation_step",
    "legendre_point_map", "compose_chain",
    "DualGrid1", "discrete_legendre_1d", "discrete_legendre_2d",
    "ScatteredSamples", "ampere_discrete", "write_scattered", "read_scattered",
]

# Absolute threshold below which an inversion is numerically meaningless.
DEGENERACY_EPS = 1e-8


class TransformError(Exception):
    pass


class DegenerateJetError(TransformError):
    """`quantity` is at most `eps` in absolute value at flat index `index`,
    or, for the quantity "non-finite", `value` is a non-finite jet entry."""

    def __init__(self, quantity: str, value: float, eps: float, index: int):
        super().__init__(f"degenerate jet at flat index {index}: " + (
            f"non-finite entry {value}" if quantity == "non-finite"
            else f"|{quantity}| = {abs(value):.3e} <= {eps}"))
        self.quantity = quantity
        self.value = value
        self.eps = eps
        self.index = index


class FoldError(TransformError):
    pass


def _raise_first(quantity: str, value, eps: float, bad=None) -> None:
    """Raise DegenerateJetError at the first flat index where `bad` holds,
    by default where |value| <= eps."""
    bad = abs(value) <= eps if bad is None else bad
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise DegenerateJetError(quantity, float(np.ravel(value)[k]), eps, k)


def _require_finite(jet: JetArrays, eps: float) -> None:
    """Raise for the first non-finite entry, u first and u_yy last."""
    if not jet.finite().all():
        for a in jet.entries():
            _raise_first("non-finite", a, eps, ~np.isfinite(a))


@dataclass(frozen=True)
class ContactImage:
    x: np.ndarray
    y: np.ndarray
    jet: JetArrays  # jet of u at (x, y)
    jacobian: np.ndarray  # det of the (X,Y) -> (x,y) map, equals -U_X * U_YY


def contact_map(jet_U: JetArrays, X, Y, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Push jets of U at (X, Y) through x=U_Y, y=U-Y*U_Y, u=X.

    push_jet_arrays, except that where it would mask a point this raises
    DegenerateJetError for the first of a non-finite entry, a non-finite base
    point, |U_X|, |U_YY| and the jacobian at or below eps; the last three are
    the fold lines of the map.
    """
    im = push_jet_arrays(jet_U, X, Y, eps=eps)
    if not im.jet.valid.all():
        _require_finite(jet_U, eps)
        for base in (X, Y):
            base = np.broadcast_to(np.asarray(base, dtype=np.float64), np.shape(im.x))
            _raise_first("non-finite", base, eps, ~np.isfinite(base))
        for quantity, value in (("U_X", jet_U.ux), ("U_YY", jet_U.uyy),
                                ("jacobian", -jet_U.ux * jet_U.uyy)):
            _raise_first(quantity, value, eps)
    return im


def push_jet_arrays(jet_U: JetArrays, X, Y, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Push jets of U at (X, Y) through the contact map, point by point.

    The image jet is valid where the source entries and the base point are
    finite and |U_X|, |U_YY| and the jacobian exceed eps; elsewhere every image
    field is NaN.  Every field takes the shape the jet and the points
    broadcast to.
    """
    U, UX, UY, UXX, UXY, UYY, X, Y = (np.asarray(a, dtype=np.float64)
                                      for a in (*jet_U.entries(), X, Y))
    jac = -UX * UYY
    # valid draws on all eight inputs, so it has their broadcast shape, and
    # np.where gives every field that shape
    valid = (jet_U.finite() & np.isfinite(X) & np.isfinite(Y)
             & (np.abs(UX) > eps) & (np.abs(UYY) > eps) & (np.abs(jac) > eps))
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
    x, y, u, ux, uy, uxx, uxy, uyy, jac = (
        np.where(valid, a, np.nan)[()] for a in (x, y, u, ux, uy, uxx, uxy, uyy, jac))
    return ContactImage(x=x, y=y, jet=JetArrays(u, ux, uy, uxx, uxy, uyy, valid=valid),
                        jacobian=jac)


def ampere_step(V: Union[JetArrays, Expr], alpha, beta, eps: float = DEGENERACY_EPS):
    """The one-variable Legendre-type step x=alpha, y=V_beta, u=V-beta*V_beta.

    Returns (x, y, u); V_beta_beta at or below eps makes the step a fold.
    """
    if isinstance(V, Expr):
        V = symbolic_jet(V, ("alpha", "beta"), alpha, beta)
    _raise_first("V_beta_beta", V.uyy, eps)
    return alpha, V.uy, V.u - beta * V.uy


def point_step(xi, eta, W, eps: float = DEGENERACY_EPS):
    """alpha = xi, beta = 1/eta, V = W/eta."""
    _raise_first("eta", eta, eps)
    return xi, 1.0 / eta, W / eta


def rotation_step(tau, sigma, Z):
    """Invert tau = -Y, sigma = X, Z = -U: returns (X, Y, U)."""
    return sigma, -tau, -Z


def legendre_point_map(jet: JetArrays, X, Y, eps: float = DEGENERACY_EPS):
    """Full Legendre map x=U_X, y=U_Y, u=X*U_X+Y*U_Y-U on nondegenerate jets.

    Returns (x, y, image jet). The image second derivatives are the inverse
    Hessian, so applying the map twice is the identity.
    """
    _require_finite(jet, eps)
    det = jet.hessian_det()
    _raise_first("U_XX*U_YY - U_XY^2", det, eps)
    image = JetArrays(
        u=X * jet.ux + Y * jet.uy - jet.u,
        ux=X,
        uy=Y,
        uxx=jet.uyy / det,
        uxy=-jet.uxy / det,
        uyy=jet.uxx / det,
        valid=jet.valid,
    )
    return jet.ux, jet.uy, image


def compose_chain(U: Expr, X, Y, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Run the four elementary steps in sequence starting from U(X, Y).

    Each step pushes the full second-order jet with the chain rule for that
    step alone; nothing here reuses the combined contact_map formulas, so
    agreement between the two is a real consistency check.  Every intermediate
    nondegeneracy condition must hold at every point.
    """
    jU = symbolic_jet(U, ("X", "Y"), X, Y)

    # rotation/scaling, inverted: tau=-Y, sigma=X, Z=-U
    tau, sigma = -Y, X
    zjet = JetArrays(u=-jU.u, ux=jU.uy, uy=-jU.ux,
                     uxx=-jU.uyy, uxy=jU.uxy, uyy=-jU.uxx, valid=jU.valid)
    det_z = zjet.hessian_det()

    # Legendre: (tau, sigma, Z) -> (xi, eta, W)
    xi, eta, wjet = legendre_point_map(zjet, tau, sigma, eps=eps)

    # point step, inverted: alpha=xi, beta=1/eta, V=beta*W
    _raise_first("eta", eta, eps)
    alpha, beta = xi, 1.0 / eta
    vjet = JetArrays(
        u=beta * wjet.u,
        ux=beta * wjet.ux,
        uy=wjet.u - eta * wjet.uy,
        uxx=beta * wjet.uxx,
        uxy=wjet.ux - eta * wjet.uxy,
        uyy=eta * eta * eta * wjet.uyy,
        valid=wjet.valid,
    )

    # Ampere step: x=alpha, y=V_beta, u=V-beta*V_beta
    x, y, u = ampere_step(vjet, alpha, beta, eps=eps)
    ujet = JetArrays(
        u=u,
        ux=vjet.ux,
        uy=-beta,
        uxx=vjet.uxx - vjet.uxy * vjet.uxy / vjet.uyy,
        uxy=vjet.uxy / vjet.uyy,
        uyy=-1.0 / vjet.uyy,
        valid=vjet.valid,
    )
    jac = vjet.uyy * (-1.0 / (eta * eta)) * det_z
    return ContactImage(x=x, y=y, jet=ujet, jacobian=jac)


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


def discrete_legendre_1d(xs, vs, slopes) -> DualGrid1:
    """Conjugate of sampled data: values[k] = max_i (slopes[k]*xs[i] - vs[i]).

    Evaluated as written, over every (slope, node) pair at once, so the
    result is the brute-force maximum bit for bit.  Time and memory are
    O(len(slopes) * len(xs)): one temporary of that shape per call.
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

    values = (slopes[:, None] * xs[None, :] - vs[None, :]).max(axis=1)
    return DualGrid1(slopes=slopes.copy(), values=values)


def discrete_legendre_2d(g: Grid2, slope_geom: GridGeometry) -> Grid2:
    """Two-dimensional conjugate W(xi, eta) = max_{x,y} (xi*x + eta*y - Z(x, y)).

    Computed as two sequential 1-D conjugations (along x per row, then along y
    per column of the intermediate), which equals the joint maximum.  One
    call per row and per slope column keeps each temporary two-dimensional;
    a single broadcast over all of them would need cubic memory.
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
    y = V_beta at interior nodes and u = V - beta*V_beta, evaluated as
    written.  Each column must have a strictly monotone discrete slope
    (V_beta_beta of one sign); otherwise the column contains a fold.  The
    column is labelled "convex" or "concave" by that sign.
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
        # one-signed second difference = strictly monotone edge slopes, so
        # beta -> V_beta is one-to-one; monotone centered slopes alone can
        # still hide a wiggle
        d2 = col[2:] - 2 * col[1:-1] + col[:-2]
        if np.all(d2 > 0):
            branch = "convex"
        elif np.all(d2 < 0):
            branch = "concave"
        else:
            raise FoldError(
                f"column alpha={alphas[i]:.6g} has a non-monotone discrete slope (fold)")
        branches.append(branch)
        xs_out.append(np.full(slope.size, alphas[i]))
        ys_out.append(slope)
        us_out.append(col[1:-1] - betas[1:-1] * slope)
    return ScatteredSamples(
        x=np.concatenate(xs_out),
        y=np.concatenate(ys_out),
        u=np.concatenate(us_out),
        column_branch=tuple(branches),
    )


def write_scattered(s: ScatteredSamples, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"# scattered\n")
        _write_rows(fh, np.column_stack((s.x, s.y, s.u)))


def read_scattered(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "# scattered":
        raise TransformError("missing '# scattered' header")
    rows = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:] if ln.strip()]
    arr = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]
