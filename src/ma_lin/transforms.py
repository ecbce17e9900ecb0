"""Contact, Ampere, point, Legendre and rotation transformations.

Jets are `JetArrays`: float fields for one point or arrays for many, with the
same bits for a point either way.  The rule is the evaluator's: arrays stay
arrays, and a point's inputs become Python floats once, at entry, so a point
runs plain float arithmetic through one set of jet formulas.  A point stays
in Python floats and bools from entry to result: its validity is decided by
short-circuit comparisons, and only the `valid` it returns is a numpy bool,
np.True_ or np.False_.  Only masking differs by kind (np.where for arrays,
the fields or NaNs for a point), and a point's zero divisor gives numpy's
±inf or NaN, never ZeroDivisionError.

`push_jet_arrays` sends jets of U(X, Y) to jets of u(x, y) with x = U_Y,
y = U - Y*U_Y, u = X, masking where it folds; `contact_map` raises there
instead.  The paper's four elementary steps, `rotation_step`,
`legendre_point_map`, `point_step` and `ampere_step`, each push a jet at a
point to its image, in the order the linearization runs them, through a
core on plain jet entries; `compose_chain` runs the symbolic jet's values
through the four cores into one record, so the two routes test each other.

Discrete counterparts: the convex conjugate of sampled 1-D/2-D data, taken as
the maximum over all (slope, node) pairs in blocks of bounded size, and a
column-wise discrete Ampere transform producing scattered (x, y, u) samples.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .expressions import Expr, Rejection, _Value, _plain
from .grids import (Grid2, GridGeometry, JetArrays, _finite, _hessian_det, _jet_entry,
                    read_table, symbolic_jet, write_table)

__all__ = [
    "DEGENERACY_EPS", "TransformError", "DegenerateJetError", "FoldError",
    "ContactImage", "contact_map", "push_jet_arrays",
    "rotation_step", "legendre_point_map", "point_step", "ampere_step",
    "compose_chain",
    "DualGrid1", "discrete_legendre_1d", "discrete_legendre_2d",
    "ScatteredSamples", "ampere_discrete", "write_scattered", "read_scattered",
]

# Absolute threshold below which an inversion is numerically meaningless.
DEGENERACY_EPS = 1e-8


class TransformError(Rejection):
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


def _plain_all(*values) -> list:
    """The evaluator's rule at entry: arrays stay (float64) arrays, and
    anything else becomes a Python float once, so a point runs plain float
    arithmetic."""
    return [v if type(v) is float else float(v) if isinstance(v, float)
            else _plain(np.asarray(v, dtype=np.float64)) for v in values]


def _div(a, b):
    """a / b as numpy divides: a point's zero divisor gives numpy's ±inf or
    NaN, where Python float division would raise ZeroDivisionError."""
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(a) / b)


def _raise_first(quantity: str, value, eps: float, bad=None) -> None:
    """Raise DegenerateJetError at the first flat index where `bad` holds,
    by default where |value| <= eps."""
    bad = abs(value) <= eps if bad is None else bad
    if bad is False:  # a point that passes, decided in Python floats
        return
    if not isinstance(bad, np.ndarray):
        if bad:
            raise DegenerateJetError(quantity, float(value), eps, 0)
    elif bad.any():
        k = int(np.argmax(bad))
        raise DegenerateJetError(quantity, float(np.ravel(value)[k]), eps, k)


def _require_finite(entries, eps: float) -> None:
    """Raise for the first non-finite entry, u first and u_yy last."""
    valid = _finite(entries)
    if valid is not np.True_ and not valid.all():
        for a in entries:
            _raise_first("non-finite", a, eps, ~np.isfinite(a))


class ContactImage(_Value):
    x: np.ndarray
    y: np.ndarray
    jet: JetArrays  # jet of u at (x, y)
    jacobian: np.ndarray  # det of the (X,Y) -> (x,y) map, equals -U_X * U_YY

    def __init__(self, x, y, jet, jacobian):
        vars(self).update(x=x, y=y, jet=jet, jacobian=jacobian)


def contact_map(jet_U: JetArrays, X, Y, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Push jets of U at (X, Y) through x=U_Y, y=U-Y*U_Y, u=X.

    push_jet_arrays, except that where it would mask a point this raises
    DegenerateJetError for the first of a non-finite entry, a non-finite base
    point, |U_X|, |U_YY| and the jacobian at or below eps; the last three are
    the fold lines of the map.
    """
    im = push_jet_arrays(jet_U, X, Y, eps=eps)
    if im.jet.valid is not np.True_ and not im.jet.valid.all():
        _require_finite(jet_U.entries(), eps)
        for base in (X, Y):
            base = np.broadcast_to(np.asarray(base, dtype=np.float64), np.shape(im.x))
            _raise_first("non-finite", base, eps, ~np.isfinite(base))
        for quantity, value in (("U_X", jet_U.ux), ("U_YY", jet_U.uyy),
                                ("jacobian", -jet_U.ux * jet_U.uyy)):
            _raise_first(quantity, value, eps)
    return im


def _pushed(U, UX, UY, UXX, UXY, UYY, X, Y) -> tuple:
    """The contact map's image fields x, y, u, u_x, u_y, u_xx, u_xy, u_yy."""
    c = _div(1.0, UX * UX * UX * UYY)
    return (UY + 0.0 * U, U - Y * UY, X + 0.0 * U, _div(Y, UX), _div(1.0, UX),
            (Y * Y * UXY * UXY - Y * Y * UXX * UYY - 2 * Y * UX * UXY + UX * UX) * c,
            (Y * UXY * UXY - Y * UXX * UYY - UX * UXY) * c,
            (UXY * UXY - UXX * UYY) * c)


def push_jet_arrays(jet_U: JetArrays, X, Y, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Push jets of U at (X, Y) through the contact map, point by point.

    The image jet is valid where the source entries and the base point are
    finite and |U_X|, |U_YY| and the jacobian exceed eps; elsewhere every image
    field is NaN.  Every field takes the shape the jet and the points
    broadcast to.  A point (no input an array of one or more dimensions)
    gives Python floats with the same bits, and a numpy bool `valid`.
    """
    entries = _plain_all(*jet_U.entries(), X, Y)
    U, UX, UY, UXX, UXY, UYY, X, Y = entries
    jac = -UX * UYY
    valid = _finite(entries)
    if isinstance(valid, np.ndarray):
        # valid draws on all eight inputs, so it has their broadcast shape,
        # and np.where gives every field that shape; the fields are new, so
        # where no node is masked and each has that shape they are kept
        valid = valid & (abs(UX) > eps) & (abs(UYY) > eps) & (abs(jac) > eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            fields = (*_pushed(*entries), jac)
        if not valid.all() or any(np.shape(a) != valid.shape for a in fields):
            fields = [np.where(valid, a, np.nan) for a in fields]
    elif valid and abs(UX) > eps and abs(UYY) > eps and abs(jac) > eps:
        fields = (*_pushed(*entries), jac)
    else:
        valid, fields = np.False_, (math.nan,) * 9
    x, y, u, ux, uy, uxx, uxy, uyy, jac = fields
    return ContactImage(x, y, JetArrays(u, ux, uy, uxx, uxy, uyy, valid), jac)


# Each step is written once, as a core: the six jet entries and the point, as one
# sequence, go to the image's in the same layout, after the step's checks.

def _rotation(values, eps):
    u, ux, uy, uxx, uxy, uyy, X, Y = values
    return -u, uy, -ux, -uyy, uxy, -uxx, -Y, X


def _legendre(values, eps):
    u, ux, uy, uxx, uxy, uyy, X, Y = values
    _require_finite((u, ux, uy, uxx, uxy, uyy), eps)
    det = _hessian_det(uxx, uxy, uyy)
    _raise_first("U_XX*U_YY - U_XY^2", det, eps)
    return X * ux + Y * uy - u, X, Y, _div(uyy, det), _div(-uxy, det), _div(uxx, det), ux, uy


def _point(values, eps):
    u, ux, uy, uxx, uxy, uyy, xi, eta = values
    _raise_first("eta", eta, eps)
    beta = _div(1.0, eta)
    return (beta * u, beta * ux, u - eta * uy, beta * uxx, ux - eta * uxy,
            eta * eta * eta * uyy, xi, beta)


def _ampere(values, eps):
    u, ux, uy, uxx, uxy, uyy, alpha, beta = values
    _raise_first("V_beta_beta", uyy, eps)
    return (u - beta * uy, ux, -beta, uxx - _div(uxy * uxy, uyy), _div(uxy, uyy),
            _div(-1.0, uyy), alpha, uy)


def rotation_step(jet: JetArrays, X, Y):
    """The rotation tau = -Y, sigma = X, Z = -U: returns (tau, sigma, jet of Z)."""
    *image, tau, sigma = _rotation((*jet.entries(), X, Y), None)
    return tau, sigma, JetArrays(*image, jet.valid)


def legendre_point_map(jet: JetArrays, X, Y, eps: float = DEGENERACY_EPS):
    """Full Legendre map x=U_X, y=U_Y, u=X*U_X+Y*U_Y-U on nondegenerate jets.

    Returns (x, y, image jet). The image second derivatives are the inverse
    Hessian, so applying the map twice is the identity.
    """
    *image, x, y = _legendre(_plain_all(*jet.entries(), X, Y), eps)
    return x, y, JetArrays(*image, jet.valid)


def point_step(jet: JetArrays, xi, eta, eps: float = DEGENERACY_EPS):
    """The point step alpha = xi, beta = 1/eta, V = beta*W: returns (alpha,
    beta, jet of V).  |eta| at or below eps has no image."""
    *image, alpha, beta = _point((*jet.entries(), xi, eta), eps)
    return alpha, beta, JetArrays(*image, jet.valid)


def ampere_step(V: Union[JetArrays, Expr], alpha, beta, eps: float = DEGENERACY_EPS):
    """The one-variable Legendre-type step x=alpha, y=V_beta, u=V-beta*V_beta.

    Returns (x, y, jet of u); V is a jet at (alpha, beta) or an expression in
    alpha and beta.  V_beta_beta at or below eps makes the step a fold.
    """
    if isinstance(V, Expr):
        alpha, beta = _plain_all(alpha, beta)
        V = symbolic_jet(V, ("alpha", "beta"), alpha, beta)
    *image, x, y = _ampere((*V.entries(), alpha, beta), eps)
    return x, y, JetArrays(*image, V.valid)


def compose_chain(U: Expr, X, Y, eps: float = DEGENERACY_EPS) -> ContactImage:
    """Run the four elementary steps' cores in sequence starting from U(X, Y).

    Each step pushes the full second-order jet with the chain rule for that
    step alone; nothing here reuses the combined contact_map formulas, so
    agreement between the two is a real consistency check.  Every intermediate
    nondegeneracy condition must hold at every point, so every image is valid.
    """
    X, Y = _plain_all(X, Y)
    values = _jet_entry(U, ("X", "Y"))[1]({"X": X, "Y": Y})  # symbolic_jet's entries
    z = _rotation((*values, X, Y), eps)
    w = _legendre(z, eps)
    v = _point(w, eps)
    *image, x, y = _ampere(v, eps)
    valid = np.True_ if type(image[0]) is float else np.ones(np.shape(image[0]), bool)
    return ContactImage(x, y, JetArrays(*image, valid),
                        v[5] * _div(-1.0, w[7] * w[7]) * _hessian_det(z[3], z[4], z[5]))


# ---------------------------------------------------------------------------
# discrete convex conjugate

class DualGrid1(_Value):
    slopes: np.ndarray
    values: np.ndarray


def _check_increasing(a: np.ndarray, what: str) -> None:
    if a.ndim != 1:
        raise TransformError(f"{what} must be one-dimensional")
    if not np.isfinite(a).all():
        raise TransformError(f"{what} must be finite")
    if a.size >= 2 and not np.all(np.diff(a) > 0):
        raise TransformError(f"{what} must be strictly increasing")


def _check_conjugate(xs: np.ndarray, vs: np.ndarray, slopes: np.ndarray) -> None:
    """The conjugate's input checks; vs holds data on the nodes xs, one row
    per conjugate taken."""
    if vs.shape[-xs.ndim:] != xs.shape or xs.size < 2:
        raise TransformError("xs and vs must have equal length >= 2")
    _check_increasing(xs, "xs")
    _check_increasing(slopes, "slopes")
    if not np.isfinite(vs).all():
        raise TransformError("vs must be finite")


def _max_affine(slopes: np.ndarray, xs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """out[r, k] = max_i (slopes[k]*xs[i] + offsets[r, i]), evaluated as written
    over every (row, slope, node) triple; with offsets = -v this is the
    maximum of slopes[k]*xs[i] - v[r, i], since a - b and a + (-b) are the
    same IEEE operation.  Rows go in blocks whose temporary holds at most
    16,384 doubles (7 rows of 33 slopes by 65 nodes), or one row if more."""
    products = slopes[:, None] * xs[None, :]
    out = np.empty((offsets.shape[0], slopes.size))
    step = max(1, 16384 // products.size)
    for r in range(0, offsets.shape[0], step):
        np.max(products + offsets[r:r + step, None, :], axis=2, out=out[r:r + step])
    return out


def discrete_legendre_1d(xs, vs, slopes) -> DualGrid1:
    """Conjugate of sampled data: values[k] = max_i (slopes[k]*xs[i] - vs[i]).

    Evaluated as written, over every (slope, node) pair at once, so the
    result is the brute-force maximum bit for bit.  Time and memory are
    O(len(slopes) * len(xs)): one temporary of that shape per call.
    """
    xs = np.asarray(xs, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    _check_conjugate(xs, vs, slopes)
    return DualGrid1(slopes=slopes.copy(), values=_max_affine(slopes, xs, -vs[None, :])[0])


def discrete_legendre_2d(g: Grid2, slope_geom: GridGeometry) -> Grid2:
    """Two-dimensional conjugate W(xi, eta) = max_{x,y} (xi*x + eta*y - Z(x, y)).

    Computed as two sequential 1-D conjugations, which equals the joint
    maximum: inner(y, xi) = max_x (xi*x - Z) along every row, then
    W = max_y (eta*y + inner) along every slope column, each with the 1-D
    conjugate's checks and arithmetic.  Each pass broadcasts over blocks of
    rows, so no temporary grows with the cube of the grid size.
    """
    if not np.isfinite(g.values).all():
        raise TransformError("2-D conjugate requires a fully unmasked grid")
    xs, ys = g.xs(), g.ys()
    xi, eta = slope_geom.xs(), slope_geom.ys()
    _check_conjugate(xs, g.values, xi)
    inner = _max_affine(xi, xs, -g.values)
    _check_conjugate(ys, inner.T, eta)
    out = _max_affine(eta, ys, np.ascontiguousarray(inner.T))
    return Grid2(slope_geom, np.ascontiguousarray(out.T))


# ---------------------------------------------------------------------------
# discrete Ampere transform

class ScatteredSamples(_Value):
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
    written over the whole grid at once; the samples come column by column.
    Each column must have a strictly monotone discrete slope (V_beta_beta of
    one sign); otherwise the column contains a fold, and the first such
    column is named.  The column is labelled "convex" or "concave" by that
    sign.
    """
    if not np.isfinite(V.values).all():
        raise TransformError("discrete Ampere transform requires an unmasked grid")
    if V.ny < 3:
        raise TransformError("need at least 3 beta-nodes for centered differences")
    alphas, betas = V.xs(), V.ys()
    v = V.values
    slope = (v[2:] - v[:-2]) / (2 * V.dy)
    # one-signed second difference = strictly monotone edge slopes, so
    # beta -> V_beta is one-to-one; monotone centered slopes alone can
    # still hide a wiggle
    d2 = v[2:] - 2 * v[1:-1] + v[:-2]
    convex, concave = np.all(d2 > 0, axis=0), np.all(d2 < 0, axis=0)
    folded = ~(convex | concave)
    if folded.any():
        i = int(np.argmax(folded))
        raise FoldError(
            f"column alpha={alphas[i]:.6g} has a non-monotone discrete slope (fold)")
    u = v[1:-1] - betas[1:-1, None] * slope
    return ScatteredSamples(
        x=np.repeat(alphas, slope.shape[0]),
        y=slope.T.ravel(),
        u=u.T.ravel(),
        column_branch=tuple("convex" if c else "concave" for c in convex.tolist()),
    )


def write_scattered(s: ScatteredSamples, path) -> str:
    return write_table(path, "# scattered", [np.column_stack((s.x, s.y, s.u))])


def read_scattered(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = read_table(path, {"# scattered": 3}.get)[1]
    return rows[:, 0], rows[:, 1], rows[:, 2]
