"""Acceptance suite: one test per acceptance criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Where a
quantity is already at the solver's rounding floor at every resolution
(stencil-exact cases), the order ratio is degenerate; those checks accept the
floor bound, which is stronger than the quadratic envelope it replaces, and
still fail loudly for any genuinely first-order or inconsistent scheme.
"""

import json
import time

import numpy as np

from helpers import measured_order, point_jet, seeded_closed_forms
from ma_lin.cli import main as cli_main
from ma_lin.equations import (catalog, catalog_get, classification_report,
                              classify, khabirov_push, linear_coefficient,
                              residual)
from ma_lin.expressions import evaluate, parse
from ma_lin.grids import (Grid2, GridGeometry, geometry_from_domain,
                          interior_jets, sample, symbolic_jet)
from ma_lin.lift import PipelineConfig, lift_parametric, pipeline, verify_lift
from ma_lin.linsolve import mms_source, problem_from_exprs, solve_dirichlet
from ma_lin.elasticity import PlaneDeformation, incompressibility_check
from ma_lin.transforms import ampere_discrete, compose_chain, contact_map

_FLOOR = 1e-9  # solver-tail scale; far below any h^2 envelope at desk scale


def _report(n, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc} {detail}".rstrip())
    assert ok, f"criterion {n} failed: {detail}"


def _order_or_floor(errs, floor=_FLOOR, order=1.9):
    """True when the error sequence decays at the stated order or is at floor."""
    if all(e <= floor for e in errs):
        return True
    return measured_order(errs[0], errs[1]) >= order


# ---------------------------------------------------------------------------

def test_criterion_1_linearization_identity():
    t0 = time.perf_counter()
    ids = ("plane-strain", "grad-inversion", "general-A1", "general-Au")
    forms = seeded_closed_forms(1001, 20)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for k, U in enumerate(forms):
        eq = catalog_get(ids[k % len(ids)])
        coeff = linear_coefficient(classify(eq))
        X = float(rng.uniform(0.8, 1.2))
        Y = float(rng.uniform(0.8, 1.2))
        jU = symbolic_jet(U, ("X", "Y"), X, Y)
        fXY = evaluate(coeff, {"X": X, "Y": Y})
        jet = point_jet(jU.u, jU.ux, jU.uy, -fXY * jU.uyy, jU.uxy, jU.uyy)
        im = contact_map(jet, X, Y)
        r = residual(eq, im.jet, im.x, im.y)
        F = evaluate(eq.F, {"x": im.x, "y": im.y, "u": im.jet.u,
                            "p": im.jet.ux, "q": im.jet.uy})
        worst = max(worst, abs(r) / (1.0 + abs(F)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "pushed jets of linear-solution jets annihilate the nonlinear residual",
            ok, f"(max rel residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_closed_form_pipeline_unit_class():
    t0 = time.perf_counter()
    target = geometry_from_domain(-2.5, -1.5, 1.9, 2.7, 81, 81)
    errs = []
    masks = []
    for n in (33, 65):
        cfg = PipelineConfig(lin_domain=(0.5, 1.5, 0.5, 1.5),
                             boundary=parse("X^2-Y^2"),
                             lin_nx=n, lin_ny=n, target=target)
        res = pipeline("plane-strain-class", cfg)
        tg = res.resampled
        xs, ys = np.meshgrid(tg.grid.xs(), tg.grid.ys())
        closed = np.sqrt(ys - xs ** 2 / 4)
        errs.append(np.abs(tg.grid.values - closed))
        masks.append(tg.mask)
    both = masks[0] & masks[1]
    e33 = float(errs[0][both].max())
    e65 = float(errs[1][both].max())
    order = measured_order(e33, e65)
    elapsed = time.perf_counter() - t0
    ok = bool(both.all()) and e65 <= 5e-4 and order >= 1.9 and elapsed < 5.0
    _report(2, "pipeline lift of the saddle matches sqrt(y - x^2/4) at second order",
            ok, f"(err {e33:.2e} -> {e65:.2e}, order {order:.2f}, {elapsed:.2f}s)")


def test_criterion_3_arctan_closed_form():
    src = mms_source(parse("X^2 - Y*arctan(Y)"), parse("(1+Y^2)^2"))
    rng = np.random.default_rng(3)
    sym_worst = max(abs(evaluate(src, {"X": float(rng.uniform(-2, 2)),
                                       "Y": float(rng.uniform(-2, 2))}))
                    for _ in range(100))
    s = lift_parametric(parse("X^2 - Y*arctan(Y)"), (0.5, 1.5, 0.5, 1.5), 21)
    rep = verify_lift(s, catalog_get("grad-inversion"))
    ok = sym_worst <= 1e-12 and rep.max_abs_residual <= 1e-9
    _report(3, "X^2 - Y*arctan(Y) solves the linear side and lifts exactly",
            ok, f"(linear residual {sym_worst:.2e}, lift residual {rep.max_abs_residual:.2e})")


def test_criterion_4_ampere_only_remark():
    geom = geometry_from_domain(0.25, 2.25, 0.25, 2.25, 9, 9)
    V = sample(parse("X^2-Y^2"), ("X", "Y"), geom)  # V(alpha, beta), harmonic
    sc = ampere_discrete(V)
    on_surface = float(np.max(np.abs(sc.u - (sc.x ** 2 + sc.y ** 2 / 4))))
    # assemble the image samples into a regular grid (y = -2*beta is uniform)
    nyi = geom.ny - 2
    ys_col = sc.y.reshape(geom.nx, nyi)[0]
    us = sc.u.reshape(geom.nx, nyi)
    assert np.all(np.diff(ys_col) < 0)
    img_geom = GridGeometry(geom.nx, nyi, geom.x0, float(ys_col[-1]),
                            geom.dx, float(ys_col[-2] - ys_col[-1]))
    img = Grid2(img_geom, us.T[::-1, :].copy())
    jets = interior_jets(img)
    worst = float(np.max(np.abs(jets.hessian_det() - 1.0)))
    ok = on_surface <= 1e-12 and worst <= 1e-10
    _report(4, "Ampere step alone sends the harmonic saddle to a unit-determinant surface",
            ok, f"(surface err {on_surface:.2e}, discrete residual {worst:.2e})")


def test_criterion_5_chain_equals_composite():
    forms = ["X^2-Y^2", "(X^2+Y^2)/2", "X^2 - Y*arctan(Y)",
             "X^2+X*Y+Y^2", "exp(0.3*X)+cosh(Y)"]
    rng = np.random.default_rng(5)
    worst = 0.0
    for text in forms:
        U = parse(text)
        done = 0
        while done < 100:
            X = float(rng.uniform(0.6, 1.7))
            Y = float(rng.uniform(0.6, 1.7))
            jet = symbolic_jet(U, ("X", "Y"), X, Y)
            if (abs(jet.ux) < 1e-3 or abs(jet.uyy) < 1e-3
                    or abs(jet.hessian_det()) < 1e-3):
                continue
            ref = contact_map(jet, X, Y)
            im = compose_chain(U, X, Y)
            vals = [(im.x, ref.x), (im.y, ref.y), (im.jacobian, ref.jacobian)]
            vals += [(getattr(im.jet, k), getattr(ref.jet, k))
                     for k in ("u", "ux", "uy", "uxx", "uxy", "uyy")]
            for a, b in vals:
                worst = max(worst, abs(a - b) / (1.0 + abs(b)))
            done += 1
    ok = worst <= 1e-10
    _report(5, "four-step chain equals the combined contact map",
            ok, f"(max rel disagreement {worst:.2e} over 500 points)")


def test_criterion_6_classification_suite():
    expected = {
        "plane-strain": True, "plane-strain-class": True, "grad-inversion": True,
        "general-A1": True, "general-Au": True,
        "inverted-plane-strain": False, "axisym": False,
        "axisym-inverted": False, "membrane": False,
    }
    got = {eq.id: classification_report(eq, seed=42)["in_class"] for eq in catalog()}
    ok = got == expected
    _report(6, "catalog classifies exactly as listed with seed 42", ok, f"({got})")


def test_criterion_7_khabirov_push():
    worst = 0.0
    ok_rhs = True
    for gtext in ("1", "s^4", "1+s^2"):
        g = parse(gtext)
        case = khabirov_push(g, seed=7, checks=50)
        rng = np.random.default_rng(7)
        for _ in range(50):
            UX = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
            UY = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
            UXY = float(rng.uniform(-2.0, 2.0))
            UXX = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
            F0 = UX ** -4 * evaluate(g, {"s": UY / UX})
            UYY = (UXY ** 2 + 1.0 / F0) / UXX
            worst = max(worst, abs((UXX * UYY - UXY ** 2) * F0 - 1.0))
        if gtext == "1":
            for p, q in ((0.5, 1.0), (1.3, 0.4), (-2.0, 1.1)):
                got = evaluate(case.equation.F,
                               {"x": 0, "y": 0, "u": 0, "p": p, "q": q})
                ok_rhs = ok_rhs and abs(got - p ** 4) <= 1e-10 * (1 + p ** 4)
    ok = worst <= 1e-10 and ok_rhs
    _report(7, "Legendre push of x^-4 g(y/x) right-hand sides",
            ok, f"(max identity defect {worst:.2e}, unit-g RHS is U_X^4: {ok_rhs})")


def test_criterion_8_elliptic_solver():
    details = []
    # stencil-exact reproductions at tol 1e-12
    ok = True
    for fc, ustar in (("1", "X*Y"), ("4", "X^2 - Y^2/4")):
        geom = geometry_from_domain(0, 1, 0, 1, 17, 17)
        prob = problem_from_exprs(geom, parse(fc), None, parse(ustar))
        U, rep = solve_dirichlet(prob, tol=1e-12)
        err = float(np.max(np.abs(U.values - sample(parse(ustar), ("X", "Y"), geom).values)))
        details.append(f"{ustar}: {err:.2e}")
        ok = ok and err <= 1e-12
        b = np.concatenate([U.values[0, :], U.values[-1, :],
                            U.values[:, 0], U.values[:, -1]])
        ok = ok and (U.values[1:-1, 1:-1].min() >= b.min() - 1e-9
                     and U.values[1:-1, 1:-1].max() <= b.max() + 1e-9)
    # manufactured solution with the variable coefficient; X^2*Y^2 is
    # stencil-exact (no pure fourth derivatives), so the errors sit at the
    # solver floor at both resolutions, which the order check accepts
    errs = []
    for n in (33, 65):
        geom = geometry_from_domain(0, 1, 0, 1, n, n)
        src = mms_source(parse("X^2*Y^2"), parse("(1+Y^2)^2"))
        prob = problem_from_exprs(geom, parse("(1+Y^2)^2"), src, parse("X^2*Y^2"))
        U, rep = solve_dirichlet(prob)
        errs.append(float(np.max(np.abs(
            U.values - sample(parse("X^2*Y^2"), ("X", "Y"), geom).values))))
    details.append(f"mms: {errs[0]:.2e} -> {errs[1]:.2e}")
    ok = ok and _order_or_floor(errs, floor=1e-8)
    _report(8, "elliptic solver: exactness, manufactured convergence, max principle",
            ok, f"({'; '.join(details)})")


def test_criterion_9_elasticity_incompressibility():
    # exact quadratic with unit Hessian determinant (a=2, b=1)
    d1 = PlaneDeformation("from-U", parse("X^2 + X*Y + Y^2/2"))
    r1 = incompressibility_check(d1, domain=(-1, 1, -1, 1), n=9)
    # lift of the gradient-quartic class fed into the gradient-inversion map;
    # |J - 1| equals the lift residual over |grad|^4, which stays at the
    # solver floor, accepted by the floor-aware order check
    devs = []
    for n in (33, 65):
        cfg = PipelineConfig(lin_domain=(0.5, 1.5, 0.5, 1.5),
                             boundary=parse("X^2 - Y*arctan(Y)"),
                             lin_nx=n, lin_ny=n, target_nx=5, target_ny=5)
        res = pipeline("grad-inversion", cfg)
        rep = incompressibility_check(PlaneDeformation("from-W", res.surface))
        devs.append(rep.max_jac_dev)
    # negative control: the paraboloid doubles areas (J = 4)
    d3 = PlaneDeformation("from-U", parse("X^2+Y^2"))
    r3 = incompressibility_check(d3, domain=(-1, 1, -1, 1), n=5)
    ok = (r1.max_jac_dev <= 1e-12
          and _order_or_floor(devs)
          and abs(r3.max_jac_dev - 3.0) <= 1e-12
          and abs(r3.max_ma_residual - 3.0) <= 1e-12)
    _report(9, "area preservation: exact quadratic, lift-then-deform, negative control",
            ok, f"(quad {r1.max_jac_dev:.2e}; lift {devs[0]:.2e} -> {devs[1]:.2e}; control J-1 = {r3.max_jac_dev})")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {"id": "plane-strain-class", "domain": [0.5, 1.5, 0.5, 1.5],
           "nx": 33, "ny": 33, "boundary": "X^2-Y^2",
           "target": {"nx": 17, "ny": 17, "x0": -2.4, "y0": 2.0,
                      "dx": 0.05, "dy": 0.04}}
    cfg_path = tmp_path / "lift.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["lift", "--in", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("lifted.csv", "resampled.csv"))
    _report(10, "identical CLI runs reproduce bit-identical CSV artifacts", same)
