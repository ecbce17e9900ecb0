"""Deformation constructors from scalar potentials, with area-preservation checks.

Plane kinds map a material point (X, Y) to a spatial point (x, y) through the
gradient of a potential, optionally composed with the conformal inversion
(X, Y) -> (X, -Y)/(X^2+Y^2).  Axisymmetric kinds do the same in the (R, Z)
half-plane.  Each kind has a matching balance equation for its potential,
the catalog's where the catalog has it; the incompressibility report
re-checks that residual next to |J - 1| instead of assuming it.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .equations import MAEquation, catalog_get, residual
from .expressions import Expr, Rejection, _Value, diff, evaluate, subst, parse, variables
from .grids import Grid2, JetArrays, interior_jets, symbolic_jet, write_table
from .lift import LiftedSurface

__all__ = [
    "ElasticityError", "PlaneDeformation", "AxisymDeformation",
    "MembraneDeformation", "Deformation", "IncompressibilityReport",
    "inversion_coords", "deform", "jacobian", "jacobian_from_jet",
    "ma_residual_from_jet", "incompressibility_check", "deformation_from_dict",
    "KIND_VARIABLES",
]

_GRAD_EPS = 1e-12

# What each kind means: its potential's variables; the material variables of
# its inversion chart, or None (from-W inverts the gradient instead); and the
# balance equation of its potential, with x, y the potential's own variables.
_KINDS = {
    "from-U": (("X", "Y"), None, MAEquation("plane-strain-raw", parse("1"))),
    "from-V": (("alpha", "beta"), ("X", "Y"), catalog_get("inverted-plane-strain")),
    "from-W": (("X", "Y"), None, catalog_get("grad-inversion")),
    "axisym-U": (("R", "Z"), None, catalog_get("axisym")),
    "axisym-V": (("alpha", "beta"), ("R", "Z"), catalog_get("axisym-inverted")),
    "membrane": (("alpha", "beta"), ("X", "Y"), catalog_get("membrane")),
}

KIND_VARIABLES = {kind: names for kind, (names, _, _) in _KINDS.items()}


class ElasticityError(Rejection):
    pass


def _meaning(kind: str) -> tuple:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ElasticityError(f"unknown kind {kind!r}") from None


class PlaneDeformation(_Value):
    kind: str  # "from-U" | "from-V" | "from-W"
    potential: Union[Expr, Grid2, LiftedSurface]
    note: str

    def __init__(self, kind, potential, note=""):
        if not (kind in _KINDS and kind.startswith("from-")):
            raise ElasticityError(f"unknown plane kind {kind!r}")
        vars(self).update(kind=kind, potential=potential, note=note)


class AxisymDeformation(_Value):
    kind: str  # "axisym-U" | "axisym-V"
    potential: Expr

    def __init__(self, kind, potential):
        if not (kind in _KINDS and kind.startswith("axisym-")):
            raise ElasticityError(f"unknown axisymmetric kind {kind!r}")
        vars(self).update(kind=kind, potential=potential)


class MembraneDeformation(_Value):
    kind = "membrane"  # not a field: the class is the kind
    potential: Expr  # V(alpha, beta); only the in-plane map is exposed

    def __init__(self, potential):
        vars(self).update(potential=potential)


# The deformation classes, which annotations name as `Deformation`.  A
# tuple, not a typing.Union: typing caches every Union it builds for the
# life of the process, and through these classes that cache kept each
# earlier import of the package alive after a re-import.
Deformation = (PlaneDeformation, AxisymDeformation, MembraneDeformation)


def _chart_r2(X, Y):
    """X^2 + Y^2, refused where it vanishes: the inversion's singular point."""
    r2 = X * X + Y * Y
    if np.any(r2 == 0.0):
        raise ElasticityError("inversion is singular at the origin")
    return r2


def inversion_coords(X, Y):
    """The involutive intermediate chart (X, Y) -> (X, -Y)/(X^2 + Y^2), pointwise."""
    r2 = _chart_r2(X, Y)
    return X / r2, -Y / r2


def _expression(d: Deformation) -> Expr:
    """The potential of a deformation, which must be an expression in its kind's variables."""
    pot = d.potential
    if not isinstance(pot, Expr):
        raise ElasticityError(f"{d.kind} with a {type(pot).__name__} potential has no "
                              "symbolic map; use the jet-based operations")
    v1, v2 = KIND_VARIABLES[d.kind]
    extra = variables(pot) - {v1, v2}
    if extra:
        raise ElasticityError(
            f"{d.kind} potential must be a function of ({v1}, {v2}), found {sorted(extra)}")
    return pot


def _chart_jet(d: Deformation, material: tuple) -> tuple[JetArrays, tuple]:
    """The expression potential's jet at the chart image of material points, and that image."""
    names, chart, _ = _KINDS[d.kind]
    pot = _expression(d)
    at = inversion_coords(*material) if chart else material
    return symbolic_jet(pot, names, *at), at


def deform(d: Deformation, point: tuple) -> tuple:
    """Image of a material point, or of arrays of points, under the deformation map."""
    jet = _chart_jet(d, point)[0]
    g1, g2 = jet.ux, jet.uy
    if d.kind != "from-W":
        return g1, g2
    den = g1 * g1 + g2 * g2
    if np.any(den <= _GRAD_EPS):
        raise ElasticityError(f"zero potential gradient at {point}")
    return g1 / den, (-g2) / den


def jacobian(d: Deformation, point: tuple):
    """Determinant of the total map derivative, by symbolic differentiation,
    at a material point or at arrays of them.

    For the gradient kinds this is the potential's Hessian determinant, with
    the same arithmetic the balance residual uses; the others differentiate
    the composed map, independently of `deform` and `jacobian_from_jet`.
    """
    (v1, v2), chart, _ = _KINDS[d.kind]
    if chart is None and d.kind != "from-W":
        return _chart_jet(d, point)[0].hessian_det()
    pot = _expression(d)
    g1, g2 = diff(pot, v1), diff(pot, v2)
    if chart is None:  # from-W: the gradient, inverted
        den = g1 * g1 + g2 * g2
        xe, ye, (m1, m2) = g1 / den, (-g2) / den, (v1, v2)
    else:  # the gradient, composed with the intermediate chart
        m1, m2 = chart
        r2 = parse(f"{m1}^2+{m2}^2")
        at = {v1: parse(m1) / r2, v2: -(parse(m2) / r2)}
        xe, ye = subst(g1, at), subst(g2, at)
    b = {m1: point[0], m2: point[1]}
    j11, j12, j21, j22 = (evaluate(diff(e, m), b) for e in (xe, ye) for m in (m1, m2))
    return j11 * j22 - j12 * j21


def jacobian_from_jet(kind: str, jet: JetArrays,
                      material_point: Optional[tuple] = None):
    """Total map jacobian from a potential jet, via the chain rule.

    The inversion factor is (X^2+Y^2)^-2 for intermediate-chart kinds and
    |grad W|^-4 for the gradient-inversion kind.  With an array jet and
    arrays of material points, the jacobian at every node at once.
    """
    chart = _meaning(kind)[1]
    det = jet.hessian_det()
    if kind == "from-W":
        g2 = jet.ux * jet.ux + jet.uy * jet.uy
        if np.any(g2 <= _GRAD_EPS):
            raise ElasticityError("zero potential gradient")
        return det / (g2 * g2)
    if chart is None:
        return det
    if material_point is None:
        raise ElasticityError(f"{kind} needs the material point for the inversion factor")
    r2 = _chart_r2(*material_point)
    return det / (r2 * r2)


def ma_residual_from_jet(kind: str, jet: JetArrays, point: tuple):
    """Residual of the kind's balance equation at a potential jet: the
    catalog equation's `residual`, so a zero divisor raises EvalError.

    `point` is the potential's own chart: (X, Y) for from-U/from-W,
    (alpha, beta) for the inversion kinds, (R, Z) for axisym-U.  Like
    jacobian_from_jet, it takes a jet and a point or arrays of both.
    """
    return residual(_meaning(kind)[2], jet, *point)


class IncompressibilityReport(_Value):
    kind: str
    samples: int
    max_jac_dev: float   # max |J - 1|
    mean_jac_dev: float
    max_ma_residual: float

    def __init__(self, kind, samples, max_jac_dev, mean_jac_dev, max_ma_residual):
        vars(self).update(kind=kind, samples=samples, max_jac_dev=max_jac_dev,
                          mean_jac_dev=mean_jac_dev, max_ma_residual=max_ma_residual)


def _material_mesh(domain: tuple[float, float, float, float], n: int):
    """The n-by-n material points of a domain, flattened X-major."""
    X0, X1, Y0, Y1 = domain
    Xm, Ym = np.meshgrid(np.linspace(X0, X1, n), np.linspace(Y0, Y1, n), indexing="ij")
    return Xm.ravel(), Ym.ravel()


def incompressibility_check(d: Deformation,
                            domain: Optional[tuple[float, float, float, float]] = None,
                            n: int = 20) -> IncompressibilityReport:
    """Sample |J - 1| and the potential's own balance residual.

    Expression potentials are sampled on an n-by-n mesh over the material
    domain.  Grid potentials use their own interior nodes; lifted-surface
    potentials use their stored jets at every valid sample.
    """
    pot = d.potential
    if isinstance(pot, Expr):
        if domain is None:
            raise ElasticityError("expression potentials need a material domain")
        material = _material_mesh(domain, n)
        jet, chart = _chart_jet(d, material)
    elif isinstance(pot, LiftedSurface):
        jet = pot.jets().compress()
        material = chart = (pot.x[pot.valid], pot.y[pot.valid])
    elif isinstance(pot, Grid2):
        jets = interior_jets(pot)
        Xg, Yg = np.meshgrid(pot.xs()[1:-1], pot.ys()[1:-1])
        jet = jets.compress()
        material = chart = (Xg[jets.valid], Yg[jets.valid])
    else:
        raise ElasticityError(f"unsupported potential type {type(pot).__name__}")

    devs = np.abs(jacobian_from_jet(d.kind, jet, material_point=material) - 1.0)
    if devs.size == 0:
        raise ElasticityError("no usable sample points")
    residuals = np.abs(ma_residual_from_jet(d.kind, jet, chart))
    return IncompressibilityReport(
        kind=d.kind, samples=devs.size,
        max_jac_dev=float(devs.max()), mean_jac_dev=float(devs.mean()),
        max_ma_residual=float(np.max(residuals)))


def deformation_from_dict(data: dict) -> Deformation:
    """Build a deformation from {"kind": ..., "potential": "expr"}."""
    kind = str(data["kind"])
    if kind not in _KINDS:
        raise ValueError(f"unknown deformation kind {kind!r}; "
                         f"known kinds: {', '.join(_KINDS)}")
    pot = parse(str(data["potential"]))
    if kind == MembraneDeformation.kind:
        return MembraneDeformation(pot)
    return (AxisymDeformation if kind.startswith("axisym-") else PlaneDeformation)(kind, pot)


def write_deformed_points(d: Deformation, domain: tuple[float, float, float, float],
                          n: int, path) -> str:
    """Material/spatial pairs over an n-by-n mesh, as CSV rows X,Y,x,y."""
    Xm, Ym = _material_mesh(domain, n)
    x, y = deform(d, (Xm, Ym))
    return write_table(path, "# deformed", [np.column_stack((Xm, Ym, x, y))])
