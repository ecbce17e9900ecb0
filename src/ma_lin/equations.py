"""Hessian-determinant equation models, classification, and the built-in catalog.

An equation is u_xx*u_yy - u_xy^2 = F(x, y, u, p, q) with p = u_x, q = u_y.
`classify` decides numerically whether F has the linearizable shape
q^4 * f(u, p/q); `linear_coefficient` renames the extracted f(u, s) into the
coefficient f(X, Y) of the linear target U_XX + f(X, Y)*U_YY = 0.
"""

from __future__ import annotations

import numpy as np

from .expressions import (Const, Expr, Var, _Value, evaluate, parse, subst, to_text,
                          variables)
from .grids import JetArrays
from .transforms import legendre_point_map

__all__ = [
    "MAEquation", "LinearizableClass", "NotInClassError", "KhabirovError",
    "KhabirovCase", "residual", "classify", "classification_report",
    "linear_coefficient", "khabirov_push", "catalog", "catalog_map",
    "catalog_get", "equation_from_class_function", "equation_to_dict",
    "equation_from_dict",
]

EQ_VARS = ("x", "y", "u", "p", "q")

# Sample boxes for the numerical classification tests.  q stays away from 0
# because the slope s = p/q is singular there; x, y stay positive so catalog
# right-hand sides with inverse powers of x, y remain evaluable.
_U_BOX = (-2.0, 2.0)
_P_BOX = (-2.0, 2.0)
_Q_BOX = (0.2, 2.0)
_XY_BOX = (0.5, 2.0)
_SAMPLES = 64  # seeded samples per classification test
_CLASS_TOL = 1e-9  # relative tolerance of the classification tests
_KHABIROV_TOL = 1e-10  # how far (det Hessian)*F may stray from 1 on khabirov_push's jets


class MAEquation(_Value):
    id: str
    F: Expr  # right-hand side in (x, y, u, p, q)
    note: str

    def __init__(self, id, F, note=""):
        extra = variables(F) - set(EQ_VARS)
        if extra:
            raise ValueError(f"equation {id!r} uses unknown variables {sorted(extra)}")
        vars(self).update(id=id, F=F, note=note)


def residual(eq: MAEquation, jet: JetArrays, x, y):
    """Signed residual u_xx*u_yy - u_xy^2 - F at a jet and its point, or at
    array jets and arrays of points; zero on solutions."""
    F = evaluate(eq.F, {"x": x, "y": y, "u": jet.u, "p": jet.ux, "q": jet.uy})
    return jet.hessian_det() - F


class LinearizableClass(_Value):
    f: Expr  # class function in (u, s), s = p/q
    even: bool  # whether F(u,-p,-q) = F(u,p,q) held on the samples
    seed: int

    def __init__(self, f, even, seed):
        vars(self).update(f=f, even=even, seed=seed)


class NotInClassError(Exception):
    def __init__(self, reason: str, witness: dict):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


def _eval_F(F: Expr, x, y, u, p, q) -> np.ndarray:
    return evaluate(F, {"x": x, "y": y, "u": u, "p": p, "q": q})


def _differs(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(a - b) > tol * (1.0 + np.abs(b))


def _first_failure(bad: list[np.ndarray]):
    """(test, sample) of the first failure by sample, then by test; None if none."""
    bad = np.stack(bad)
    if not bad.any():
        return None
    k = int(np.argmax(bad.any(axis=0)))
    return int(np.argmax(bad[:, k])), k


def classify(eq: MAEquation, seed: int = 42) -> LinearizableClass:
    """Decide membership in the class F = q^4 * f(u, p/q) by seeded sampling.

    Tests, in order: independence of x and y, then positive homogeneity of
    degree 4 in (p, q).  Evenness in (p, q) is recorded but not required; f is
    extracted on the chart q > 0 only.  Raises NotInClassError carrying the
    first failed test and a witness sample, and EvalError when F cannot be
    evaluated at some sample.
    """
    rng = np.random.default_rng(seed)
    F = eq.F
    us = rng.uniform(*_U_BOX, _SAMPLES)
    ps = rng.uniform(*_P_BOX, _SAMPLES)
    qs = rng.uniform(*_Q_BOX, _SAMPLES)
    xs1 = rng.uniform(*_XY_BOX, _SAMPLES)
    ys1 = rng.uniform(*_XY_BOX, _SAMPLES)
    xs2 = rng.uniform(*_XY_BOX, _SAMPLES)
    ys2 = rng.uniform(*_XY_BOX, _SAMPLES)
    base = _eval_F(F, xs1, ys1, us, ps, qs)

    moved = (("x", xs2, _eval_F(F, xs2, ys1, us, ps, qs)),
             ("y", ys2, _eval_F(F, xs1, ys2, us, ps, qs)))
    first = _first_failure([_differs(other, base, _CLASS_TOL) for _, _, other in moved])
    if first is not None:
        (name, v2, other), k = moved[first[0]], first[1]
        raise NotInClassError(
            f"{name}-dependence",
            {"test": f"{name}-independence",
             "sample": {"x": xs1[k], "y": ys1[k], "u": us[k],
                        "p": ps[k], "q": qs[k], name + "2": float(v2[k])},
             "values": [float(base[k]), float(other[k])]})

    lams = (0.5, 2.0, 3.0)
    scaled = [_eval_F(F, xs1, ys1, us, lam * ps, lam * qs) for lam in lams]
    wants = [lam ** 4 * base for lam in lams]
    first = _first_failure([_differs(sc, want, _CLASS_TOL) for sc, want in zip(scaled, wants)])
    if first is not None:
        m, k = first
        raise NotInClassError(
            "not positively homogeneous of degree 4 in (p, q)",
            {"test": "homogeneity-degree-4",
             "sample": {"u": us[k], "p": ps[k], "q": qs[k], "lambda": lams[m]},
             "values": [float(scaled[m][k]), float(wants[m][k])]})

    flipped = _eval_F(F, xs1, ys1, us, -ps, -qs)
    even = not _differs(flipped, base, _CLASS_TOL).any()

    f = subst(F, {"p": Var("s"), "q": 1.0, "x": 1.0, "y": 1.0})
    return LinearizableClass(f=f, even=even, seed=seed)


def classification_report(eq: MAEquation, seed: int = 42) -> dict:
    """The classification outcome as a JSON-ready dictionary."""
    try:
        cls = classify(eq, seed=seed)
        return {"in_class": True, "f": to_text(cls.f), "even": cls.even,
                "seed": seed, "witness": None}
    except NotInClassError as err:
        return {"in_class": False, "f": None, "even": False,
                "seed": seed, "witness": {"reason": err.reason, **err.witness}}


def linear_coefficient(cls: LinearizableClass) -> Expr:
    """Coefficient f(X, Y) of the linear equation: f(u, s) with u->X, s->Y."""
    return subst(cls.f, {"u": Var("X"), "s": Var("Y")})


def equation_from_class_function(f: Expr, id: str = "", note: str = "") -> MAEquation:
    """Build the member equation F = q^4 * f(u, p/q) from a class function."""
    extra = variables(f) - {"u", "s"}
    if extra:
        raise ValueError(f"class function must use only (u, s), found {sorted(extra)}")
    F = subst(parse("q^4") * f, {"s": parse("p/q")})
    return MAEquation(id=id or f"class[{to_text(f)}]", F=F, note=note)


# ---------------------------------------------------------------------------
# the Legendre push of Hessian-determinant equations with RHS x^-4 * g(y/x)

class KhabirovError(Exception):
    pass


class KhabirovCase(_Value):
    g: Expr        # in s = y/x
    gstar: Expr    # s^4 * g(s)
    Gstar: Expr    # 1/gstar
    equation: MAEquation  # transformed RHS q^4 * Gstar(q/p) in jet variables

    def __init__(self, g, gstar, Gstar, equation):
        vars(self).update(g=g, gstar=gstar, Gstar=Gstar, equation=equation)


def khabirov_push(g: Expr, seed: int = 42, checks: int = 50) -> KhabirovCase:
    """Push the equation with RHS x^-4 * g(y/x) through the full Legendre map.

    Builds g*(s) = s^4 g(s) and G* = 1/g*, returns the transformed equation
    with right-hand side U_Y^4 * G*(U_Y/U_X), and self-checks at seeded jets:
    the identity x^-4 g(y/x) = y^-4 g*(y/x), the relation
    (U_XX U_YY - U_XY^2) * F(U_X, U_Y) = 1 on jets built to satisfy the
    original equation at the gradient point, and the vanishing of both
    residuals across the map.
    """
    extra = variables(g) - {"s"}
    if extra:
        raise KhabirovError(f"g must be a function of s only, found {sorted(extra)}")
    s = Var("s")
    gstar = (s ** 4) * g
    Gstar = Const(1.0) / gstar
    rhs = subst(parse("q^4") * Gstar, {"s": parse("q/p")})
    transformed = MAEquation(
        id=f"legendre-push[{to_text(g)}]", F=rhs,
        note=f"Legendre image of RHS x^-4*({to_text(g)} at s=y/x)")
    original = MAEquation(
        id=f"khabirov[{to_text(g)}]",
        F=subst(parse("x^(-4)") * g, {"s": parse("y/x")}),
        note="RHS depends on x and y only")

    rng = np.random.default_rng(seed)
    UX, UY, UXX = rng.uniform(0.5, 2.0, (3, checks)) * rng.choice((-1.0, 1.0), (3, checks))
    UXY = rng.uniform(-2.0, 2.0, checks)
    X, Y, U0 = rng.uniform(-2.0, 2.0, (3, checks))
    s_val = UY / UX
    gval = evaluate(g, {"s": s_val})
    if np.any(gval == 0.0):
        k = int(np.argmax(gval == 0.0))
        raise KhabirovError(f"g vanishes at verification sample s={float(s_val[k])!r}")
    F0 = gval / (UX * UX * UX * UX)
    UYY = (UXY * UXY + 1.0 / F0) / UXX
    det = UXX * UYY - UXY * UXY
    if np.any(np.abs(det * F0 - 1.0) > _KHABIROV_TOL):
        raise KhabirovError("constructed jet fails (det Hessian)*F = 1")
    # identity between the two ways of writing the original RHS
    lhs = evaluate(original.F, {"x": UX, "y": UY, "u": 0.0, "p": 0.0, "q": 0.0})
    rhs_v = evaluate(gstar, {"s": s_val}) / (UY * UY * UY * UY)
    if np.any(np.abs(lhs - rhs_v) > 1e-9 * (1.0 + np.abs(lhs))):
        raise KhabirovError("identity x^-4 g(y/x) = y^-4 g*(y/x) fails")
    ujet = JetArrays(U0, UX, UY, UXX, UXY, UYY, valid=np.ones(checks, dtype=bool))
    # transformed equation holds at the source jets ...
    r_t = residual(transformed, ujet, X, Y)
    scale_t = 1.0 + np.abs(evaluate(transformed.F, {"x": X, "y": Y, "u": U0, "p": UX, "q": UY}))
    if np.any(np.abs(r_t) > 1e-9 * scale_t):
        raise KhabirovError("transformed equation residual nonzero at constructed jet")
    # ... and the original one at their Legendre images
    ix, iy, ijet = legendre_point_map(ujet, X, Y)
    r_o = residual(original, ijet, ix, iy)
    if np.any(np.abs(r_o) > 1e-9 * (1.0 + np.abs(F0))):
        raise KhabirovError("original equation residual nonzero at Legendre image")
    return KhabirovCase(g=g, gstar=gstar, Gstar=Gstar, equation=transformed)


# ---------------------------------------------------------------------------
# built-in catalog

def _entry(id: str, F: str, note: str) -> MAEquation:
    return MAEquation(id=id, F=parse(F), note=note)


_CATALOG: tuple[MAEquation, ...] = (
    _entry("plane-strain", "q^4",
           "Plane-strain class form with unit class function (linear target is "
           "the Laplace equation).  The raw plane-strain balance has constant "
           "right-hand side 1 and is linearizable by the Ampere step alone."),
    _entry("plane-strain-class", "q^4",
           "Alias of plane-strain for pipeline configuration files."),
    _entry("inverted-plane-strain", "(x^2+y^2)^(-2)",
           "Plane strain in inverted intermediate coordinates; depends on the "
           "independent variables, so it is outside the linearizable class."),
    _entry("grad-inversion", "(p^2+q^2)^2",
           "Potential composed with gradient inversion; class function (1+s^2)^2."),
    _entry("axisym", "x/p",
           "Axially symmetric deformation potential, R renamed to x and U_R to p; "
           "depends on x, so outside the class.  Catalog and residual use only."),
    _entry("axisym-inverted", "x/((x^2+y^2)^2*p)",
           "Axially symmetric form in inverted coordinates; outside the class."),
    _entry("membrane", "(x^2+y^2)^(-2)*(x*p+y*q-u)^(-1)",
           "Plane-stress membrane potential equation; outside the class as "
           "stated.  Its full Legendre image is the u*(grad)^4 member."),
    _entry("general-A1", "(p^2+q^2)^2",
           "General gradient-quartic family with constant multiplier 1."),
    _entry("general-Au", "u*(p^2+q^2)^2",
           "General gradient-quartic family with multiplier u."),
)


def catalog() -> tuple[MAEquation, ...]:
    return _CATALOG


def catalog_map() -> dict[str, MAEquation]:
    return {eq.id: eq for eq in _CATALOG}


def catalog_get(id: str) -> MAEquation:
    try:
        return catalog_map()[id]
    except KeyError:
        known = ", ".join(eq.id for eq in _CATALOG)
        raise KeyError(f"no catalog equation {id!r}; known ids: {known}") from None


# ---------------------------------------------------------------------------
# JSON forms

def equation_to_dict(eq: MAEquation) -> dict:
    return {"id": eq.id, "F": to_text(eq.F), "note": eq.note}


def equation_from_dict(d: dict) -> MAEquation:
    return MAEquation(id=str(d["id"]), F=parse(str(d["F"])), note=str(d.get("note", "")))
