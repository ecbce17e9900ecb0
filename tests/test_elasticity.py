import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ma_lin.elasticity import (AxisymDeformation, ElasticityError,
                               MembraneDeformation, PlaneDeformation, deform,
                               deformation_from_dict, incompressibility_check,
                               inversion_coords, jacobian, jacobian_from_jet,
                               ma_residual_from_jet)
from helpers import (deform_reference, jacobian_reference, ma_residual_reference, point_jet,
                     same_bits)
from ma_lin.expressions import parse
from ma_lin.grids import JetArrays, geometry_from_domain, sample, symbolic_jet
from ma_lin.lift import LiftedSurface, PipelineConfig, pipeline


# ---------------------------------------------------------------------------
# inversion chart

def test_inversion_examples():
    assert inversion_coords(1.0, 0.0) == (1.0, 0.0)
    assert inversion_coords(0.0, 1.0) == (0.0, -1.0)
    assert inversion_coords(3.0, 4.0) == (0.12, -0.16)


def test_inversion_rejects_origin():
    with pytest.raises(ElasticityError, match=r"origin: sample 0, point \(0\.0, 0\.0\)$"):
        inversion_coords(0.0, 0.0)
    # arrays name the first flat sample, and the point as plain floats
    with pytest.raises(ElasticityError, match=r"origin: sample 3, point \(0\.0, -0\.0\)$"):
        inversion_coords(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([1.0, -0.0]))


@settings(max_examples=100, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_inversion_is_an_involution(X, Y):
    if X * X + Y * Y < 1e-6:
        return
    a, b = inversion_coords(X, Y)
    X2, Y2 = inversion_coords(a, b)
    assert abs(X2 - X) <= 1e-14 * (1 + abs(X))
    assert abs(Y2 - Y) <= 1e-14 * (1 + abs(Y))


# ---------------------------------------------------------------------------
# deformation maps

def test_gradient_of_half_paraboloid_is_identity():
    d = PlaneDeformation("from-U", parse("(X^2+Y^2)/2"))
    for p in ((0.3, -1.2), (2.0, 0.5)):
        assert deform(d, p) == p
        assert jacobian(d, p) == 1.0


def test_gradient_of_quadratic():
    d = PlaneDeformation("from-U", parse("X^2+X*Y+Y^2/2"))
    assert deform(d, (1.0, 1.0)) == (3.0, 2.0)
    # constant Hessian det 2*1 - 1 = 1 everywhere
    for p in ((0.0, 0.0), (1.0, 1.0), (-2.0, 3.0)):
        assert jacobian(d, p) == 1.0


def test_gradient_inversion_unit_gradient_fixed_point():
    d = PlaneDeformation("from-W", parse("X"))
    assert deform(d, (0.7, -0.4)) == (1.0, 0.0)


def test_gradient_inversion_rejects_zero_gradient():
    d = PlaneDeformation("from-W", parse("X^2+Y^2"))
    with pytest.raises(ElasticityError, match=r"gradient at sample 0, point \(0\.0, 0\.0\)$"):
        deform(d, (0.0, 0.0))
    X, Y = np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])
    with pytest.raises(ElasticityError, match=r"gradient at sample 1, point \(0\.0, 0\.0\)$"):
        deform(d, (X, Y))
    with pytest.raises(ElasticityError, match=r"gradient at sample 1, point \(0\.0, 0\.0\)$"):
        jacobian_from_jet("from-W", symbolic_jet(d.potential, ("X", "Y"), X, Y), (X, Y))
    with pytest.raises(ElasticityError, match=r"gradient at sample 1$"):
        jacobian_from_jet("from-W", symbolic_jet(d.potential, ("X", "Y"), X, Y))


def test_intermediate_chart_map_composes_inversion():
    # V(alpha, beta) = (alpha^2+beta^2)/2 makes (x, y) = (alpha, beta)
    d = PlaneDeformation("from-V", parse("(alpha^2+beta^2)/2"))
    X, Y = 3.0, 4.0
    assert deform(d, (X, Y)) == inversion_coords(X, Y)


def test_axisym_map():
    d = AxisymDeformation("axisym-U", parse("R^2/2 + R*Z"))
    r, z = deform(d, (2.0, 1.0))
    assert (r, z) == (3.0, 2.0)


def test_membrane_map_matches_plane_from_v():
    v = "(alpha^2+beta^2)/2 + alpha*beta"
    m = MembraneDeformation(parse(v))
    p = PlaneDeformation("from-V", parse(v))
    assert deform(m, (1.0, 2.0)) == deform(p, (1.0, 2.0))


# one potential per kind, each in its kind's variables
_POTENTIALS = {
    "from-U": "X^2+X*Y+Y^2/2+0.1*X^3",
    "from-V": "(alpha^2+beta^2)/2+alpha^3/3",
    "from-W": "X^2-Y*arctan(Y)+0.2*X*Y",
    "axisym-U": "R^2/2+R*Z+Z^3/7",
    "axisym-V": "alpha^2/2+alpha*beta+beta^2+3*alpha",
    "membrane": "alpha*beta+alpha^2+exp(beta)",
}


@pytest.mark.parametrize("kind", list(_POTENTIALS))
def test_deform_equals_the_substituted_gradient_bit_for_bit(kind):
    rng = np.random.default_rng(33)
    X, Y = rng.uniform(0.3, 1.7, (2, 200)) * rng.choice((-1.0, 1.0), (2, 200))
    d = deformation_from_dict({"kind": kind, "potential": _POTENTIALS[kind]})
    x, y = deform(d, (X, Y))
    want = deform_reference(kind, d.potential, (X, Y))
    assert same_bits(x, want[0]) and same_bits(y, want[1])
    for k in range(0, 200, 40):  # a single point gives floats with the same bits
        p = (float(X[k]), float(Y[k]))
        got = deform(d, p)
        assert all(type(v) is float for v in got)
        assert same_bits(got, deform_reference(kind, d.potential, p))
        assert same_bits(got, (x[k], y[k]))


def test_deformation_from_dict():
    d = deformation_from_dict({"kind": "from-W", "potential": "X^2-Y^2"})
    assert isinstance(d, PlaneDeformation) and d.kind == "from-W"
    m = deformation_from_dict({"kind": "membrane", "potential": "alpha*beta"})
    assert isinstance(m, MembraneDeformation) and m.kind == "membrane"
    assert m.to_dict() == {"potential": m.potential}  # the kind is the class's, not a field


# ---------------------------------------------------------------------------
# jacobians

def test_from_u_jacobian_is_hessian_det_same_arithmetic():
    U = parse("sin(X)*cosh(Y) + X^2*Y")
    d = PlaneDeformation("from-U", U)
    for pt in ((0.4, -0.9), (1.3, 0.2)):
        jet = symbolic_jet(U, ("X", "Y"), *pt)
        assert jacobian(d, pt) == jet.hessian_det()


def test_symbolic_total_jacobian_matches_jet_chain_rule_from_w():
    W = parse("X^2 - Y*arctan(Y) + 0.2*X*Y")
    d = PlaneDeformation("from-W", W)
    for pt in ((0.8, 0.4), (1.2, -0.7)):
        full = jacobian(d, pt)
        jet = symbolic_jet(W, ("X", "Y"), *pt)
        chained = jacobian_from_jet("from-W", jet)
        assert abs(full - chained) <= 1e-12 * (1 + abs(full))


def test_symbolic_total_jacobian_matches_jet_chain_rule_from_v():
    V = parse("(alpha^2+beta^2)/2 + alpha^3/3")
    d = PlaneDeformation("from-V", V)
    for pt in ((1.0, 0.5), (0.4, -1.1)):
        full = jacobian(d, pt)
        ab = inversion_coords(*pt)
        jet = symbolic_jet(V, ("alpha", "beta"), *ab)
        chained = jacobian_from_jet("from-V", jet, material_point=pt)
        assert abs(full - chained) <= 1e-10 * (1 + abs(full))


def test_constructed_jets_satisfying_gradient_quartic_give_unit_jacobian():
    rng = np.random.default_rng(21)
    for _ in range(50):
        WX, WY = rng.uniform(0.3, 2, 2) * rng.choice((-1, 1), 2)
        WXY = rng.uniform(-2, 2)
        WXX = rng.uniform(0.3, 2) * rng.choice((-1, 1))
        g2 = WX * WX + WY * WY
        WYY = (WXY ** 2 + g2 ** 2) / WXX
        jet = point_jet(0.0, WX, WY, WXX, WXY, WYY)
        assert abs(jacobian_from_jet("from-W", jet) - 1.0) <= 1e-10
        assert abs(ma_residual_from_jet("from-W", jet, (0.0, 0.0))) <= 1e-9


def test_constructed_jets_satisfying_inverted_plane_strain_give_unit_jacobian():
    rng = np.random.default_rng(22)
    for _ in range(50):
        X, Y = rng.uniform(0.3, 2, 2)
        a, b = inversion_coords(X, Y)
        Vaa = rng.uniform(0.3, 2) * rng.choice((-1, 1))
        Vab = rng.uniform(-2, 2)
        rhs = (a * a + b * b) ** -2
        Vbb = (Vab ** 2 + rhs) / Vaa
        jet = point_jet(0.0, rng.uniform(-1, 1), rng.uniform(-1, 1), Vaa, Vab, Vbb)
        J = jacobian_from_jet("from-V", jet, material_point=(X, Y))
        assert abs(J - 1.0) <= 1e-10


def test_axisym_residual_reporters():
    # a jet built to satisfy det = R/U_R exactly
    R, Z = 1.5, 0.3
    UR = 2.0
    UXX, UXY = 1.0, 0.5
    UYY = (UXY ** 2 + R / UR) / UXX
    jet = point_jet(0.0, UR, 1.0, UXX, UXY, UYY)
    assert abs(ma_residual_from_jet("axisym-U", jet, (R, Z))) <= 1e-12


def test_jet_formulas_match_scalar_references_bit_for_bit():
    # every array entry must carry the bits of the scalar formula at that
    # jet; a power such as x**3 on a float and on an array can differ in the
    # last bit, so both sides write powers as products
    rng = np.random.default_rng(31)
    n = 2000
    cols = rng.uniform(-2.0, 2.0, (6, n))
    pts = rng.uniform(0.2, 2.0, (2, n)) * rng.choice((-1.0, 1.0), (2, n))
    arrays = JetArrays(*cols, valid=np.ones(n, dtype=bool))
    jets = [tuple(cols[:, k].tolist()) for k in range(n)]
    points = [tuple(pts[:, k].tolist()) for k in range(n)]
    for kind in ("from-U", "from-W", "from-V", "axisym-U", "axisym-V", "membrane"):
        needs_point = kind in ("from-V", "axisym-V", "membrane")
        J = jacobian_from_jet(kind, arrays, tuple(pts) if needs_point else None)
        R = ma_residual_from_jet(kind, arrays, tuple(pts))
        J1 = [jacobian_reference(kind, jet, p) for jet, p in zip(jets, points)]
        R1 = [ma_residual_reference(kind, jet, p) for jet, p in zip(jets, points)]
        assert same_bits(J, J1), kind
        assert same_bits(R, R1), kind


def test_jacobian_of_an_array_of_points_equals_the_single_points():
    rng = np.random.default_rng(32)
    X, Y = rng.uniform(0.3, 1.5, (2, 50))
    for d in (PlaneDeformation("from-U", parse("sin(X)*cosh(Y) + X^2*Y")),
              PlaneDeformation("from-W", parse("X^2 - Y*arctan(Y) + 0.2*X*Y")),
              PlaneDeformation("from-V", parse("(alpha^2+beta^2)/2 + alpha^3/3"))):
        singles = [jacobian(d, p) for p in zip(X.tolist(), Y.tolist())]
        assert same_bits(jacobian(d, (X, Y)), singles), d.kind


# ---------------------------------------------------------------------------
# incompressibility reports

def test_incompressibility_quadratic_exact():
    # U = a X^2/2 + b XY + ((1+b^2)/(2a)) Y^2 with a=2, b=1 has Hessian det 1
    d = PlaneDeformation("from-U", parse("X^2 + X*Y + Y^2/2"))
    rep = incompressibility_check(d, domain=(-1, 1, -1, 1), n=11)
    assert rep.max_jac_dev <= 1e-12
    assert rep.max_ma_residual <= 1e-12


def test_incompressibility_negative_control():
    d = PlaneDeformation("from-U", parse("X^2+Y^2"))
    rep = incompressibility_check(d, domain=(-1, 1, -1, 1), n=5)
    assert abs(rep.max_jac_dev - 3.0) <= 1e-12  # J = 4 everywhere
    assert abs(rep.max_ma_residual - 3.0) <= 1e-12


def test_incompressibility_lifted_surface_potential():
    cfg = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, 17, 17),
                         boundary=parse("X^2 - Y*arctan(Y)"), target=(5, 5))
    res = pipeline("grad-inversion", cfg)
    d = PlaneDeformation("from-W", res.surface)
    rep = incompressibility_check(d)
    assert rep.samples == res.surface.n_valid
    # bounded by the lift residual scale (solver tail), far below h^2
    assert rep.max_jac_dev <= 1e-8


_CHART_POTENTIAL = parse("(alpha^2+beta^2)/2+alpha*beta/3")


def _assert_jacobian_deviation_at_inverted_points(report, d, points):
    # a chart point's material point is its image under the involutive chart
    want = np.abs(jacobian(d, inversion_coords(*points)) - 1.0)
    assert report.samples == want.size
    assert report.max_jac_dev == pytest.approx(want.max(), rel=1e-12)
    assert report.mean_jac_dev == pytest.approx(want.mean(), rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda pot: PlaneDeformation("from-V", pot),
    lambda pot: AxisymDeformation("axisym-V", pot),
    MembraneDeformation,
], ids=["from-V", "axisym-V", "membrane"])
def test_incompressibility_grid_potential_of_an_inversion_chart_kind(make):
    # a quadratic's centred differences are exact, so the grid's jets are the expression's
    geom = geometry_from_domain(0.5, 1.5, 0.4, 1.3, 9, 9)
    rep = incompressibility_check(make(sample(_CHART_POTENTIAL, ("alpha", "beta"), geom)))
    chart = np.meshgrid(geom.xs()[1:-1], geom.ys()[1:-1])
    _assert_jacobian_deviation_at_inverted_points(rep, make(_CHART_POTENTIAL), chart)


def test_incompressibility_lifted_surface_potential_of_an_inversion_chart_kind():
    a, b = np.meshgrid(np.linspace(0.5, 1.5, 5), np.linspace(0.4, 1.3, 5))
    jet = symbolic_jet(_CHART_POTENTIAL, ("alpha", "beta"), a, b)
    surface = LiftedSurface(a, b, a, b, *jet.entries(), np.ones_like(a), jet.valid,
                            "symbolic", "V")
    rep = incompressibility_check(PlaneDeformation("from-V", surface))
    _assert_jacobian_deviation_at_inverted_points(
        rep, PlaneDeformation("from-V", _CHART_POTENTIAL), (a, b))


def test_incompressibility_requires_domain_for_expressions():
    d = PlaneDeformation("from-U", parse("X^2+Y^2"))
    with pytest.raises(ElasticityError):
        incompressibility_check(d)


def test_potential_variable_mismatch_is_an_error():
    d = PlaneDeformation("from-V", parse("X^2+Y^2"))
    with pytest.raises(ElasticityError):
        deform(d, (1.0, 1.0))
