"""Deformation constructors from scalar potentials, with area-preservation checks.

Plane kinds map a material point (X, Y) to a spatial point (x, y) through the
gradient of a potential, optionally composed with the conformal inversion
(X, Y) -> (X, -Y)/(X^2+Y^2).  Axisymmetric kinds do the same in the (R, Z)
half-plane.  Each kind has a matching balance equation for its potential; the
incompressibility report re-checks that residual next to |J - 1| instead of
assuming it.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

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


class ElasticityError(Rejection):
    pass


class PlaneDeformation(_Value):
    kind: str  # "from-U" | "from-V" | "from-W"
    potential: Union[Expr, Grid2, LiftedSurface]
    note: str

    def __init__(self, kind, potential, note=""):
        if kind not in ("from-U", "from-V", "from-W"):
            raise ElasticityError(f"unknown plane kind {kind!r}")
        vars(self).update(kind=kind, potential=potential, note=note)


class AxisymDeformation(_Value):
    kind: str  # "axisym-U" | "axisym-V"
    potential: Expr

    def __init__(self, kind, potential):
        if kind not in ("axisym-U", "axisym-V"):
            raise ElasticityError(f"unknown axisymmetric kind {kind!r}")
        vars(self).update(kind=kind, potential=potential)


class MembraneDeformation(_Value):
    potential: Expr  # V(alpha, beta); only the in-plane map is exposed

    def __init__(self, potential):
        vars(self).update(potential=potential)


# The deformation classes, which annotations name as `Deformation`.  A
# tuple, not a typing.Union: typing caches every Union it builds for the
# life of the process, and through these classes that cache kept each
# earlier import of the package alive after a re-import.
Deformation = (PlaneDeformation, AxisymDeformation, MembraneDeformation)

# potential variables per kind
KIND_VARIABLES = {
    "from-U": ("X", "Y"),
    "from-V": ("alpha", "beta"),
    "from-W": ("X", "Y"),
    "axisym-U": ("R", "Z"),
    "axisym-V": ("alpha", "beta"),
    "membrane": ("alpha", "beta"),
}


def _kind(d: Deformation) -> str:
    if isinstance(d, MembraneDeformation):
        return "membrane"
    return d.kind


def _uses_inversion(kind: str) -> bool:
    return kind in ("from-V", "axisym-V", "membrane")


def inversion_coords(X, Y):
    """The involutive intermediate chart (X, Y) -> (X, -Y)/(X^2 + Y^2), pointwise."""
    r2 = X * X + Y * Y
    if np.any(r2 == 0.0):
        raise ElasticityError("inversion is singular at the origin")
    return X / r2, -Y / r2


def _potential_variables(kind: str, pot: Expr) -> tuple[str, str]:
    v1, v2 = KIND_VARIABLES[kind]
    extra = variables(pot) - {v1, v2}
    if extra:
        raise ElasticityError(
            f"{kind} potential must be a function of ({v1}, {v2}), found {sorted(extra)}")
    return v1, v2


def _component_exprs(d: Deformation) -> tuple[Expr, Expr, tuple[str, str]]:
    """Spatial coordinates as expressions in the material variables."""
    kind = _kind(d)
    pot = d.potential
    if not isinstance(pot, Expr):
        raise ElasticityError(f"{kind} with a {type(pot).__name__} potential has no "
                              "symbolic map; use the jet-based operations")
    v1, v2 = _potential_variables(kind, pot)
    g1, g2 = diff(pot, v1), diff(pot, v2)
    if kind in ("from-U", "axisym-U"):
        return g1, g2, (v1, v2)
    if kind == "from-W":
        den = g1 * g1 + g2 * g2
        return g1 / den, (-g2) / den, (v1, v2)
    # inversion kinds: compose the gradient map with the intermediate chart
    mat = ("X", "Y") if kind in ("from-V", "membrane") else ("R", "Z")
    m1, m2 = mat
    r2 = parse(f"{m1}^2+{m2}^2")
    chart = {v1: parse(m1) / r2, v2: -(parse(m2) / r2)}
    return subst(g1, chart), subst(g2, chart), mat


def deform(d: Deformation, point: tuple) -> tuple:
    """Image of a material point, or of arrays of points, under the deformation map."""
    kind = _kind(d)
    X, Y = point
    if _uses_inversion(kind) and np.any(X * X + Y * Y == 0.0):
        raise ElasticityError("inversion is singular at the origin")
    xe, ye, mat = _component_exprs(d)
    b = {mat[0]: X, mat[1]: Y}
    if kind == "from-W":
        pot = d.potential
        g1 = evaluate(diff(pot, "X"), b)
        g2 = evaluate(diff(pot, "Y"), b)
        if np.any(g1 * g1 + g2 * g2 <= _GRAD_EPS):
            raise ElasticityError(f"zero potential gradient at {point}")
    return evaluate(xe, b), evaluate(ye, b)


def jacobian(d: Deformation, point: tuple):
    """Determinant of the total map derivative, by symbolic differentiation,
    at a material point or at arrays of them.

    For the gradient kinds this is the potential's Hessian determinant, with
    the same arithmetic the balance residual uses.
    """
    kind = _kind(d)
    if isinstance(d.potential, Expr) and kind in ("from-U", "axisym-U"):
        v1, v2 = KIND_VARIABLES[kind]
        return symbolic_jet(d.potential, (v1, v2), *point).hessian_det()
    xe, ye, mat = _component_exprs(d)
    m1, m2 = mat
    b = {m1: point[0], m2: point[1]}
    j11 = evaluate(diff(xe, m1), b)
    j12 = evaluate(diff(xe, m2), b)
    j21 = evaluate(diff(ye, m1), b)
    j22 = evaluate(diff(ye, m2), b)
    return j11 * j22 - j12 * j21


def jacobian_from_jet(kind: str, jet: JetArrays,
                      material_point: Optional[tuple] = None):
    """Total map jacobian from a potential jet, via the chain rule.

    The inversion factor is (X^2+Y^2)^-2 for intermediate-chart kinds and
    |grad W|^-4 for the gradient-inversion kind.  With an array jet and
    arrays of material points, the jacobian at every node at once.
    """
    det = jet.hessian_det()
    if kind in ("from-U", "axisym-U"):
        return det
    if kind == "from-W":
        g2 = jet.ux * jet.ux + jet.uy * jet.uy
        if np.any(g2 <= _GRAD_EPS):
            raise ElasticityError("zero potential gradient")
        return det / (g2 * g2)
    if kind in ("from-V", "axisym-V", "membrane"):
        if material_point is None:
            raise ElasticityError(f"{kind} needs the material point for the inversion factor")
        X, Y = material_point
        r2 = X * X + Y * Y
        if np.any(r2 == 0.0):
            raise ElasticityError("inversion is singular at the origin")
        return det / (r2 * r2)
    raise ElasticityError(f"unknown kind {kind!r}")


def ma_residual_from_jet(kind: str, jet: JetArrays, point: tuple):
    """Residual of the balance equation matching the kind, at a potential jet.

    `point` is the potential's own chart: (X, Y) for from-U/from-W,
    (alpha, beta) for the inversion kinds, (R, Z) for axisym-U.  Like
    jacobian_from_jet, it takes a jet and a point or arrays of both.
    """
    det = jet.hessian_det()
    a, b = point
    if kind == "from-U":
        return det - 1.0
    if kind == "from-W":
        g2 = jet.ux * jet.ux + jet.uy * jet.uy
        return det - g2 * g2
    r2 = a * a + b * b
    if kind in ("from-V",):
        return det - 1.0 / (r2 * r2)
    if kind == "membrane":
        combo = a * jet.ux + b * jet.uy - jet.u
        return det - 1.0 / (r2 * r2) / combo
    if kind == "axisym-U":
        return det - a / jet.ux
    if kind == "axisym-V":
        return det - a / (r2 * r2 * jet.ux)
    raise ElasticityError(f"unknown kind {kind!r}")


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
    kind = _kind(d)
    pot = d.potential

    if isinstance(pot, Expr):
        if domain is None:
            raise ElasticityError("expression potentials need a material domain")
        names = _potential_variables(kind, pot)
        material = _material_mesh(domain, n)
        chart = inversion_coords(*material) if _uses_inversion(kind) else material
        jet = symbolic_jet(pot, names, *chart)
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

    devs = np.abs(jacobian_from_jet(kind, jet, material_point=material) - 1.0)
    if devs.size == 0:
        raise ElasticityError("no usable sample points")
    residuals = np.abs(ma_residual_from_jet(kind, jet, chart))
    return IncompressibilityReport(
        kind=kind, samples=devs.size,
        max_jac_dev=float(devs.max()), mean_jac_dev=float(devs.mean()),
        max_ma_residual=float(np.max(residuals)))


def deformation_from_dict(data: dict) -> Deformation:
    """Build a deformation from {"kind": ..., "potential": "expr"}."""
    kind = str(data["kind"])
    if kind not in KIND_VARIABLES:
        raise ValueError(f"unknown deformation kind {kind!r}; "
                         f"known kinds: {', '.join(KIND_VARIABLES)}")
    pot = parse(str(data["potential"]))
    if kind == "membrane":
        return MembraneDeformation(potential=pot)
    if kind.startswith("axisym"):
        return AxisymDeformation(kind=kind, potential=pot)
    return PlaneDeformation(kind=kind, potential=pot)


def write_deformed_points(d: Deformation, domain: tuple[float, float, float, float],
                          n: int, path) -> str:
    """Material/spatial pairs over an n-by-n mesh, as CSV rows X,Y,x,y."""
    Xm, Ym = _material_mesh(domain, n)
    x, y = deform(d, (Xm, Ym))
    return write_table(path, "# deformed", [np.column_stack((Xm, Ym, x, y))])
