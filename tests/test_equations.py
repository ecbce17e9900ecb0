import json
import re

import numpy as np
import pytest

from helpers import point_jet, seeded_closed_forms
from ma_lin.equations import (KhabirovError, MAEquation, NotInClassError,
                              catalog, catalog_get, catalog_map,
                              classification_report, classify,
                              equation_from_class_function, equation_from_dict,
                              equation_to_dict, khabirov_push,
                              linear_coefficient, residual)
from ma_lin.expressions import evaluate, parse, subst, variables
from ma_lin.grids import symbolic_jet
from ma_lin.transforms import contact_map


# ---------------------------------------------------------------------------
# residual

def test_residual_zero_on_sqrt_solution():
    eq = MAEquation("q4", parse("q^4"))
    jet = symbolic_jet(parse("sqrt(y - x^2/4)"), ("x", "y"), -2.0, 2.0)
    assert jet.entries() == (1.0, 0.5, 0.5, -0.5, -0.25, -0.25) and jet.valid
    assert residual(eq, jet, -2.0, 2.0) == 0.0


def test_residual_zero_on_paraboloid_unit_determinant():
    eq = MAEquation("unit", parse("1"))
    for (x, y) in ((0.0, 0.0), (1.3, -0.4), (-2.0, 5.0)):
        jet = symbolic_jet(parse("x^2+y^2/4"), ("x", "y"), x, y)
        assert residual(eq, jet, x, y) == 0.0


def test_residual_of_zero_jet():
    eq = MAEquation("unit", parse("1"))
    assert residual(eq, point_jet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0, 0.0) == -1.0


# ---------------------------------------------------------------------------
# classification

def test_classify_gradient_quartic():
    cls = classify(MAEquation("g", parse("(p^2+q^2)^2")))
    assert cls.even
    for s in (-1.5, 0.0, 0.7, 2.0):
        assert abs(evaluate(cls.f, {"u": 0.3, "s": s}) - (1 + s * s) ** 2) <= 1e-12


def test_classify_u_weighted_quartic():
    cls = classify(MAEquation("gu", parse("u*(p^2+q^2)^2")))
    for u in (-1.0, 0.5):
        for s in (-0.5, 1.2):
            assert abs(evaluate(cls.f, {"u": u, "s": s}) - u * (1 + s * s) ** 2) <= 1e-12


def test_classify_rejects_x_dependent():
    with pytest.raises(NotInClassError) as exc:
        classify(MAEquation("x4", parse("x^(-4)")))
    assert exc.value.reason == "x-dependence"
    assert "sample" in exc.value.witness


def test_classify_rejects_wrong_homogeneity():
    with pytest.raises(NotInClassError) as exc:
        classify(MAEquation("unit", parse("1")))
    assert "homogeneous" in exc.value.reason


def test_classify_counts_an_overflowing_difference_as_differing():
    # every sample of F is finite, but F(x2) - F(x1) overflows at some of them
    with pytest.raises(NotInClassError) as exc:
        classify(MAEquation("t", parse("1.7e308*sin(50*x)")))
    assert exc.value.reason == "x-dependence"


def test_classify_counts_an_overflowing_scaled_value_as_not_homogeneous():
    # c q^4 (2 + cos(2 pi log2 q)) is homogeneous for lambda = 1/2 and 2 but
    # not 3; 81 F overflows at some samples, where F(3p, 3q) stays finite
    F = parse("1e305*q^4*(2+cos(9.064720283654388*ln(q)))")
    with pytest.raises(NotInClassError) as exc:
        classify(MAEquation("t", F))
    witness = exc.value.witness
    assert witness["test"] == "homogeneity-degree-4" and witness["sample"]["lambda"] == 3.0
    p, q = witness["sample"]["p"], witness["sample"]["q"]
    at = {"x": 1.0, "y": 1.0, "u": witness["sample"]["u"]}
    assert witness["values"] == [evaluate(F, {**at, "p": 3 * p, "q": 3 * q}),
                                 evaluate(F, {**at, "p": p, "q": q})]
    rng = np.random.default_rng(42)
    rng.uniform(size=128)  # classify draws its 64 u, then its 64 p samples
    qs = rng.uniform(0.2, 2.0, 64)  # and then these q samples
    with np.errstate(over="ignore"):
        assert not np.isfinite(81 * evaluate(F, {**at, "p": 0.0, "q": qs})).all()


def test_classify_odd_class_function_flagged():
    # q^3*|q| is positively homogeneous of degree 4 but flips sign with (p, q),
    # so it lives on the q > 0 chart only; the evenness flag records that
    eq = MAEquation("odd", parse("q^3*abs(q)"))
    cls = classify(eq)
    assert not cls.even
    assert abs(evaluate(cls.f, {"u": 0.0, "s": 0.3}) - 1.0) <= 1e-12


def test_catalog_classification_suite():
    expected_in = {"plane-strain", "plane-strain-class", "grad-inversion",
                   "general-A1", "general-Au"}
    expected_out = {"inverted-plane-strain", "axisym", "axisym-inverted", "membrane"}
    assert {eq.id for eq in catalog()} == expected_in | expected_out
    for eq in catalog():
        rep = classification_report(eq, seed=42)
        assert rep["in_class"] == (eq.id in expected_in), eq.id
        assert rep["seed"] == 42


def test_the_catalog_is_one_table_in_its_order():
    ids = ["plane-strain", "plane-strain-class", "inverted-plane-strain", "grad-inversion",
           "axisym", "axisym-inverted", "membrane", "general-A1", "general-Au"]
    assert [eq.id for eq in catalog()] == ids
    table = catalog_map()
    assert list(table) == ids and all(table[i] is catalog_get(i) for i in ids)
    table.clear()  # a copy: the catalog keeps its entries
    assert [eq.id for eq in catalog()] == ids and catalog_map() != {}
    with pytest.raises(KeyError, match=re.escape("no catalog equation 'nope'; known ids: "
                                                 + ", ".join(ids))):
        catalog_get("nope")


def test_catalog_witness_names_failed_test():
    rep = classification_report(catalog_get("axisym"))
    assert rep["witness"]["reason"] == "x-dependence"
    rep2 = classification_report(catalog_get("membrane"))
    assert rep2["in_class"] is False


def test_classify_reconstruction_reproduces_F():
    rng = np.random.default_rng(8)
    for id_ in ("plane-strain", "grad-inversion", "general-Au"):
        eq = catalog_get(id_)
        cls = classify(eq)
        recon = subst(parse("q^4") * cls.f, {"s": parse("p/q")})
        for _ in range(100):
            b = {"x": 1.0, "y": 1.0, "u": rng.uniform(-2, 2),
                 "p": rng.uniform(-2, 2), "q": rng.uniform(0.2, 2)}
            a, c = evaluate(eq.F, b), evaluate(recon, b)
            assert abs(a - c) <= 1e-9 * (1 + abs(a))


# ---------------------------------------------------------------------------
# linear coefficient

def test_linear_coefficient_examples():
    cases = [
        ("plane-strain", lambda X, Y: 1.0),
        ("grad-inversion", lambda X, Y: (1 + Y * Y) ** 2),
        ("general-Au", lambda X, Y: X * (1 + Y * Y) ** 2),
    ]
    for id_, want in cases:
        coeff = linear_coefficient(classify(catalog_get(id_)))
        assert variables(coeff) <= {"X", "Y"}
        for X in (0.5, 1.0, 1.4):
            for Y in (-1.0, 0.0, 2.0):
                assert abs(evaluate(coeff, {"X": X, "Y": Y}) - want(X, Y)) <= 1e-12


def test_linear_coefficient_scaling_identity():
    # F(X, Y/t, 1/t) * t^4 = f(X, Y), the substitution that produces the
    # coefficient, checked directly against the original right-hand side
    rng = np.random.default_rng(15)
    for id_ in ("grad-inversion", "general-Au"):
        eq = catalog_get(id_)
        cls = classify(eq)
        coeff = linear_coefficient(cls)
        ts = [0.5, 1.0, 2.0] + ([-1.0, -0.5] if cls.even else [])
        for _ in range(50):
            X, Y = rng.uniform(0.2, 2), rng.uniform(-2, 2)
            want = evaluate(coeff, {"X": X, "Y": Y})
            for t in ts:
                got = evaluate(eq.F, {"x": 1.0, "y": 1.0, "u": X,
                                      "p": Y / t, "q": 1.0 / t}) * t ** 4
                assert abs(got - want) <= 1e-9 * (1 + abs(want)), (id_, t)


# ---------------------------------------------------------------------------
# executable linearization identity

def test_lift_of_linear_solution_jets_annihilates_residual():
    in_class = ("plane-strain", "grad-inversion", "general-A1", "general-Au")
    forms = seeded_closed_forms(99, 5)
    rng = np.random.default_rng(99)
    for id_ in in_class:
        eq = catalog_get(id_)
        coeff = linear_coefficient(classify(eq))
        done = 0
        while done < 100:
            U = forms[int(rng.integers(len(forms)))]
            X = float(rng.uniform(0.8, 1.2))
            Y = float(rng.uniform(0.8, 1.2))
            jU = symbolic_jet(U, ("X", "Y"), X, Y)
            fXY = evaluate(coeff, {"X": X, "Y": Y})
            # enforce the linear equation at the point
            jet = point_jet(jU.u, jU.ux, jU.uy, -fXY * jU.uyy, jU.uxy, jU.uyy)
            im = contact_map(jet, X, Y)
            r = residual(eq, im.jet, im.x, im.y)
            F = evaluate(eq.F, {"x": im.x, "y": im.y, "u": im.jet.u,
                                "p": im.jet.ux, "q": im.jet.uy})
            assert abs(r) <= 1e-9 * (1 + abs(F)), (id_, X, Y)
            done += 1


# ---------------------------------------------------------------------------
# Legendre push of x^-4 g(y/x) right-hand sides

def test_khabirov_unit_g():
    case = khabirov_push(parse("1"))
    assert abs(evaluate(case.Gstar, {"s": 2.0}) - 2.0 ** -4) <= 1e-15
    # transformed RHS evaluates as U_X^4
    rng = np.random.default_rng(2)
    for _ in range(20):
        p, q = rng.uniform(0.3, 2, 2)
        got = evaluate(case.equation.F, {"x": 0, "y": 0, "u": 0, "p": p, "q": q})
        assert abs(got - p ** 4) <= 1e-9 * (1 + p ** 4)


def test_khabirov_s4_g():
    case = khabirov_push(parse("s^4"))
    for s in (0.5, -1.2, 2.0):
        assert abs(evaluate(case.gstar, {"s": s}) - s ** 8) <= 1e-12 * (1 + abs(s) ** 8)
        assert abs(evaluate(case.Gstar, {"s": s}) - s ** -8) <= 1e-9 * (1 + abs(s) ** -8)


def test_khabirov_identity_example():
    case = khabirov_push(parse("1+s^2"))
    x, y = 2.0, 1.0
    lhs = x ** -4 * evaluate(case.g, {"s": y / x})
    rhs = y ** -4 * evaluate(case.gstar, {"s": y / x})
    assert lhs == 5.0 / 64.0
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_khabirov_jet_identity_runs_50_checks():
    # the constructor itself verifies (det Hessian)*F = 1 on 50 seeded jets
    # and both residuals across the Legendre map; failure raises
    for g in ("1", "s^4", "1+s^2"):
        khabirov_push(parse(g), checks=50)


def test_khabirov_rejects_vanishing_g():
    with pytest.raises(KhabirovError):
        khabirov_push(parse("0"))


def test_khabirov_rejects_wrong_variable():
    with pytest.raises(KhabirovError):
        khabirov_push(parse("1+t^2"))


# ---------------------------------------------------------------------------
# JSON forms

def test_equation_json_round_trip():
    eq = catalog_get("membrane")
    d = equation_to_dict(eq)
    assert set(d) == {"id", "F", "note"}
    eq2 = equation_from_dict(json.loads(json.dumps(d)))
    assert eq2.id == eq.id
    rng = np.random.default_rng(1)
    for _ in range(20):
        b = {"x": rng.uniform(0.5, 2), "y": rng.uniform(0.5, 2),
             "u": rng.uniform(-2, -1), "p": rng.uniform(0.2, 2),
             "q": rng.uniform(0.2, 2)}
        assert evaluate(eq2.F, b) == evaluate(eq.F, b)


def test_equation_rejects_unknown_variables():
    with pytest.raises(ValueError):
        MAEquation("bad", parse("q^4 + w"))
