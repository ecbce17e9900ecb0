import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_conjugate, brute_conjugate_2d, invert_contact_point,
                     measured_order, seeded_closed_forms)
from ma_lin.expressions import parse
from ma_lin.grids import (Grid2, GridGeometry, Jet2, geometry_from_domain,
                          interior_jets, sample, symbolic_jet)
from ma_lin.transforms import (DEGENERACY_EPS, DegenerateJetError, FoldError,
                               TransformError, ampere_discrete, ampere_step,
                               compose_chain, contact_map,
                               discrete_legendre_1d, discrete_legendre_2d,
                               legendre_point_map, point_step, push_jet_arrays,
                               read_scattered, rotation_step, write_scattered)

SQRT_SOLUTION = parse("sqrt(y - x^2/4)")  # image of X^2 - Y^2 under the map


# ---------------------------------------------------------------------------
# contact map

def test_contact_map_example_against_closed_form():
    jet = symbolic_jet(parse("X^2-Y^2"), ("X", "Y"), 1.0, 1.0)
    im = contact_map(jet, 1.0, 1.0)
    assert (im.x, im.y, im.jet.u) == (-2.0, 2.0, 1.0)
    # independent oracle: differentiate u = sqrt(y - x^2/4) at the image point
    oracle = symbolic_jet(SQRT_SOLUTION, ("x", "y"), im.x, im.y)
    for k in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
        assert abs(getattr(im.jet, k) - getattr(oracle, k)) <= 1e-12, k
    assert im.jacobian == 4.0  # -U_X * U_YY


def test_contact_map_residual_identity_harmonic_source():
    # U_XX + U_YY = 0 at the sample makes the pushed jet solve the q^4 equation
    jet = symbolic_jet(parse("X^2-Y^2"), ("X", "Y"), 1.0, 1.0)
    im = contact_map(jet, 1.0, 1.0)
    res = im.jet.uxx * im.jet.uyy - im.jet.uxy ** 2 - im.jet.uy ** 4
    assert res == 0.0


def test_contact_map_degenerate_jet():
    with pytest.raises(DegenerateJetError):
        contact_map(Jet2(0.0, 1.0, 1.0, 1.0, 0.0, 0.0), 0.0, 0.0)
    with pytest.raises(DegenerateJetError):
        contact_map(Jet2(0.0, 0.0, 1.0, 1.0, 0.0, 1.0), 0.0, 0.0)


def test_contact_map_raises_exactly_where_push_jet_arrays_masks():
    rng = np.random.default_rng(3)
    J = {k: rng.uniform(-2, 2, 60) for k in "abcdef"}
    # put some nodes on or next to each fold: U_X, U_YY, and the jacobian
    J["b"][:6] = [0.0, 1e-9, -1e-8, 1e-4, 1e-4, 2e-8]
    J["f"][6:12] = [0.0, -1e-9, 1e-8, 1e-4, 1e-4, 3e-4]
    X, Y = rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 60)
    *fields, valid = push_jet_arrays(J["a"], J["b"], J["c"], J["d"], J["e"], J["f"], X, Y)
    assert 0 < valid.sum() < 60
    for k in range(60):
        jet = Jet2(*(float(J[c][k]) for c in "abcdef"))
        if valid[k]:
            im = contact_map(jet, X[k], Y[k])
            entries = ("u", "ux", "uy", "uxx", "uxy", "uyy")
            got = (im.x, im.y, *(getattr(im.jet, c) for c in entries), im.jacobian)
            assert got == tuple(a[k] for a in fields)
        else:
            with pytest.raises(DegenerateJetError) as exc:
                contact_map(jet, X[k], Y[k])
            first = next(q for q, v in (("U_X", jet.ux), ("U_YY", jet.uyy),
                                        ("jacobian", jet.ux * jet.uyy))
                         if abs(v) <= DEGENERACY_EPS)
            assert exc.value.quantity == first


# ---------------------------------------------------------------------------
# elementary steps

def test_ampere_step_quadratic():
    # V = a^2 - b^2 at (1, 1): V_b = -2, u = V - b V_b = 0 + 2 = 2
    im = ampere_step(parse("alpha^2-beta^2"), 1.0, 1.0)
    assert (im.x, im.y, im.u) == (1.0, -2.0, 2.0)
    assert im.dy_dbeta == -2.0


def test_ampere_step_half_square():
    im = ampere_step(parse("beta^2/2"), 0.0, 1.0)
    assert (im.x, im.y, im.u) == (0.0, 1.0, -0.5)


def test_ampere_step_degenerate():
    with pytest.raises(DegenerateJetError):
        ampere_step(parse("alpha*beta"), 1.0, 1.0)


def test_point_step():
    assert point_step(1.0, 2.0, 6.0) == (1.0, 0.5, 3.0)
    with pytest.raises(DegenerateJetError):
        point_step(1.0, 0.0, 6.0)


def test_point_step_is_an_involution():
    for xi, eta, W in ((1.0, 2.0, 6.0), (-0.5, 0.25, 3.0)):
        assert point_step(*point_step(xi, eta, W)) == (xi, eta, W)


def test_rotation_step():
    assert rotation_step(-1.0, 2.0, -5.0) == (2.0, 1.0, 5.0)
    # involutive up to the relabeling: feeding the image back recovers inputs
    X, Y, U = rotation_step(-0.3, 0.7, 2.5)
    assert (-Y, X, -U) == (-0.3, 0.7, 2.5)


# ---------------------------------------------------------------------------
# Legendre point map

def test_legendre_self_conjugate_quadratic():
    for a, b in ((0.5, -1.25), (2.0, 0.1)):
        jet = symbolic_jet(parse("(X^2+Y^2)/2"), ("X", "Y"), a, b)
        x, y, im = legendre_point_map(jet, a, b)
        assert (x, y) == (a, b)
        assert abs(im.u - (a * a + b * b) / 2) <= 1e-14
        assert (im.uxx, im.uxy, im.uyy) == (1.0, 0.0, 1.0)


def test_legendre_example_inverse_hessian():
    jet = symbolic_jet(parse("2*X^2+Y^2"), ("X", "Y"), 1.0, 1.0)
    x, y, im = legendre_point_map(jet, 1.0, 1.0)
    assert (x, y) == (4.0, 2.0)
    assert im.u == 3.0
    assert (im.ux, im.uy) == (1.0, 1.0)
    assert (im.uxx, im.uxy, im.uyy) == (2.0 / 8.0, 0.0, 4.0 / 8.0)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.floats(-2, 2) for _ in range(6)]),
       st.floats(-2, 2), st.floats(-2, 2))
def test_legendre_is_an_involution(vals, X, Y):
    u, ux, uy, uxx, uxy, uyy = vals
    det = uxx * uyy - uxy * uxy
    if abs(det) < 1e-3:
        return
    jet = Jet2(u, ux, uy, uxx, uxy, uyy)
    x1, y1, j1 = legendre_point_map(jet, X, Y)
    x2, y2, j2 = legendre_point_map(j1, x1, y1)
    assert abs(x2 - X) <= 1e-12 * (1 + abs(X))
    assert abs(y2 - Y) <= 1e-12 * (1 + abs(Y))
    for k in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
        a, b = getattr(j2, k), getattr(jet, k)
        assert abs(a - b) <= 1e-9 * (1 + abs(b)), k


def test_legendre_rejects_singular_hessian():
    with pytest.raises(DegenerateJetError):
        legendre_point_map(Jet2(0.0, 1.0, 1.0, 1.0, 1.0, 1.0), 0.0, 0.0)


# ---------------------------------------------------------------------------
# chain composition

_CHAIN_FORMS = ["X^2-Y^2", "(X^2+Y^2)/2", "X^2 - Y*arctan(Y)",
                "X^2+X*Y+Y^2", "exp(0.3*X)+cosh(Y)"]


def test_compose_chain_example():
    im = compose_chain(parse("X^2-Y^2"), 1.0, 1.0)
    ref = contact_map(symbolic_jet(parse("X^2-Y^2"), ("X", "Y"), 1.0, 1.0), 1.0, 1.0)
    assert (im.x, im.y, im.jet.u) == (-2.0, 2.0, 1.0)
    for k in ("ux", "uy", "uxx", "uxy", "uyy"):
        assert abs(getattr(im.jet, k) - getattr(ref.jet, k)) <= 1e-12


def test_compose_chain_agrees_with_contact_map_everywhere():
    rng = np.random.default_rng(11)
    for text in _CHAIN_FORMS:
        U = parse(text)
        done = 0
        while done < 100:
            X = float(rng.uniform(0.6, 1.7))
            Y = float(rng.uniform(0.6, 1.7))
            jet = symbolic_jet(U, ("X", "Y"), X, Y)
            det = jet.hessian_det()
            if (abs(jet.ux) < 1e-3 or abs(jet.uyy) < 1e-3 or abs(det) < 1e-3):
                continue
            ref = contact_map(jet, X, Y)
            im = compose_chain(U, X, Y)
            for name, a, b in (("x", im.x, ref.x), ("y", im.y, ref.y),
                               ("jac", im.jacobian, ref.jacobian)):
                assert abs(a - b) <= 1e-10 * (1 + abs(b)), (text, name)
            for k in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
                a, b = getattr(im.jet, k), getattr(ref.jet, k)
                assert abs(a - b) <= 1e-10 * (1 + abs(b)), (text, k)
            done += 1


def test_compose_chain_degenerate_from_chain():
    with pytest.raises(DegenerateJetError):
        compose_chain(parse("X*Y"), 1.0, 1.0)


def test_compose_chain_jacobian_consistency():
    im = compose_chain(parse("X^2 - Y*arctan(Y)"), 1.0, 0.8)
    jet = symbolic_jet(parse("X^2 - Y*arctan(Y)"), ("X", "Y"), 1.0, 0.8)
    assert abs(im.jacobian - (-jet.ux * jet.uyy)) <= 1e-12 * (1 + abs(im.jacobian))


# ---------------------------------------------------------------------------
# push-forward consistency: contact_map jets vs finite differences of the
# surface tabulated by direct Newton inversion of the parametric map

def _surface_patch(U, x0, y0, X0, Y0, h):
    """5x5 patch of u(x, y) around (x0, y0) via exact inversion; u = X."""
    patch = np.empty((5, 5))
    for j, dy in enumerate((-2, -1, 0, 1, 2)):
        for i, dx in enumerate((-2, -1, 0, 1, 2)):
            sol = invert_contact_point(U, x0 + dx * h, y0 + dy * h, X0, Y0)
            if sol is None:
                return None
            patch[j, i] = sol[0]
    return patch


def _patch_jet(patch, h):
    jets = interior_jets(Grid2(GridGeometry(5, 5, 0.0, 0.0, h, h), patch))
    return Jet2(*(float(getattr(jets, k)[1, 1]) for k in ("u", "ux", "uy", "uxx", "uxy", "uyy")))


def test_pushforward_matches_surface_differentiation():
    forms = seeded_closed_forms(20260809, 20)
    errs_by_h = {h: 0.0 for h in (2e-3, 1e-3)}
    for U in forms:
        X0 = Y0 = 1.0
        jet = symbolic_jet(U, ("X", "Y"), X0, Y0)
        im = contact_map(jet, X0, Y0)
        for h in errs_by_h:
            patch = _surface_patch(U, im.x, im.y, X0, Y0, h)
            assert patch is not None
            fd = _patch_jet(patch, h)
            for k in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
                err = abs(getattr(fd, k) - getattr(im.jet, k))
                errs_by_h[h] = max(errs_by_h[h], err)
    assert errs_by_h[1e-3] <= 5e-4
    assert measured_order(errs_by_h[2e-3], errs_by_h[1e-3]) >= 1.9


# ---------------------------------------------------------------------------
# discrete conjugate, 1-D

def test_conjugate_quadratic_self_dual():
    xs = np.arange(-2.0, 2.01, 0.5)
    vs = xs ** 2 / 2
    d = discrete_legendre_1d(xs, vs, xs)
    k = int(np.where(xs == 1.0)[0][0])
    assert d.values[k] == 0.5
    assert np.allclose(d.values, xs ** 2 / 2, atol=1e-14)


def test_conjugate_affine_data():
    xs = np.linspace(-2, 2, 9)
    vs = 2.0 * xs
    d = discrete_legendre_1d(xs, vs, np.array([2.0, 3.0]))
    assert d.values[0] == 0.0
    assert d.values[1] == 3.0 * 2.0 - 4.0


def test_conjugate_single_interval():
    d = discrete_legendre_1d(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([1.0]))
    assert d.values[0] == 1.0


def test_conjugate_rejects_non_monotone():
    with pytest.raises(TransformError):
        discrete_legendre_1d(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.array([1.0]))
    with pytest.raises(TransformError):
        discrete_legendre_1d(np.array([0.0, 1.0]), np.zeros(2), np.array([1.0, 1.0]))


def test_conjugate_equals_brute_force_seeded():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 60))
        xs = np.cumsum(rng.uniform(0.05, 1.0, n)) + rng.uniform(-5, 0)
        if trial % 3 == 0:
            vs = (xs - xs.mean()) ** 2 * rng.uniform(0.2, 2.0)  # convex
        elif trial % 3 == 1:
            vs = -np.abs(xs) * rng.uniform(0.2, 2.0)  # concave-ish
        else:
            vs = rng.uniform(-3, 3, n)  # rough
        slopes = np.unique(rng.uniform(-4, 4, m))
        got = discrete_legendre_1d(xs, vs, slopes).values
        assert np.array_equal(got, brute_conjugate(xs, vs, slopes)), trial


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_conjugate_equals_brute_force_integer_lattice(data):
    # integer-valued doubles make every product exact, so equality is literal
    n = data.draw(st.integers(2, 12))
    xs = np.cumsum(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    vs = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
                  dtype=float)
    m = data.draw(st.integers(1, 8))
    slopes = np.unique(data.draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m)))
    got = discrete_legendre_1d(xs.astype(float), vs, slopes.astype(float)).values
    assert np.array_equal(got, brute_conjugate(xs, vs, slopes))


def test_biconjugate_dominance_and_convex_recovery():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(3, 30))
        xs = np.cumsum(rng.uniform(0.1, 0.6, n))
        vs = rng.uniform(-2, 2, n)
        lo = min((vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1))
        hi = max((vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1))
        slopes = np.linspace(lo, hi, 40)
        c1 = discrete_legendre_1d(xs, vs, slopes).values
        c2 = discrete_legendre_1d(slopes, c1, xs).values
        assert np.all(c2 <= vs + 1e-9 * (1 + np.abs(vs)))


def test_biconjugate_exact_on_quadratic_matched_nodes():
    xs = np.arange(-2.0, 2.01, 0.25)
    vs = xs ** 2 / 2
    c1 = discrete_legendre_1d(xs, vs, xs).values
    c2 = discrete_legendre_1d(xs, c1, xs).values
    assert np.max(np.abs(c2 - vs)) <= 1e-14


def test_biconjugate_close_for_smooth_convex():
    xs = np.linspace(-1.0, 1.0, 41)
    dx = xs[1] - xs[0]
    vs = np.exp(xs)
    # slope grid covering the data's slope support at the same resolution
    slopes = np.linspace((vs[1] - vs[0]) / dx, (vs[-1] - vs[-2]) / dx, 80)
    c1 = discrete_legendre_1d(xs, vs, slopes).values
    c2 = discrete_legendre_1d(slopes, c1, xs).values
    assert np.all(c2 <= vs + 1e-12)
    assert np.max(vs - c2) <= dx ** 2 * math.e  # dx^2 * max curvature


# ---------------------------------------------------------------------------
# discrete conjugate, 2-D

def test_conjugate_2d_quadratic():
    geom = geometry_from_domain(-2, 2, -2, 2, 17, 17)
    g = sample(parse("(X^2+Y^2)/2"), ("X", "Y"), geom)
    sgeom = geometry_from_domain(-1.5, 1.5, -1.5, 1.5, 7, 7)
    W = discrete_legendre_2d(g, sgeom)
    xi, eta = np.meshgrid(sgeom.xs(), sgeom.ys())
    dx = geom.dx
    # conjugate of the sampled paraboloid at in-range slopes, up to grid slack
    assert np.max(np.abs(W.values - (xi ** 2 + eta ** 2) / 2)) <= dx ** 2 / 2 * 2 + 1e-12
    brute = brute_conjugate_2d(g.xs(), g.ys(), g.values, sgeom.xs(), sgeom.ys())
    assert np.max(np.abs(W.values - brute)) <= 1e-12


def test_conjugate_2d_flat_axis():
    geom = geometry_from_domain(-2, 2, -1, 1, 17, 5)
    g = sample(parse("X^2/2"), ("X", "Y"), geom)
    sgeom = GridGeometry(5, 3, -1.0, -1.0, 0.5, 1.0)
    W = discrete_legendre_2d(g, sgeom)
    brute = brute_conjugate_2d(g.xs(), g.ys(), g.values, sgeom.xs(), sgeom.ys())
    assert np.max(np.abs(W.values - brute)) <= 1e-12
    # eta = 0 row reproduces the 1-D conjugate xi^2/2 at matching nodes
    row = W.values[1, :]
    assert np.max(np.abs(row - sgeom.xs() ** 2 / 2)) <= geom.dx ** 2 / 2 + 1e-12


def test_conjugate_2d_zeros_single_slope():
    geom = geometry_from_domain(0, 1, 0, 1, 3, 3)
    g = Grid2(geom, np.zeros((3, 3)))
    sgeom = GridGeometry(1, 1, 0.0, 0.0, 1.0, 1.0)
    W = discrete_legendre_2d(g, sgeom)
    assert W.values[0, 0] == 0.0


# ---------------------------------------------------------------------------
# discrete Ampere transform

def test_ampere_discrete_quadratic_saddle():
    geom = geometry_from_domain(0.0, 2.0, 0.0, 2.0, 9, 9)
    V = sample(parse("X^2-Y^2"), ("X", "Y"), geom)  # alpha = X, beta = Y
    sc = ampere_discrete(V)
    assert set(sc.column_branch) == {"concave"}
    # column alpha = 1, node beta = 1 produces (1, -2, 2)
    idx = np.where((np.abs(sc.x - 1.0) < 1e-12) & (np.abs(sc.y + 2.0) < 1e-12))[0]
    assert idx.size == 1
    assert sc.u[idx[0]] == 2.0
    # all samples land on u = x^2 + y^2/4
    assert np.max(np.abs(sc.u - (sc.x ** 2 + sc.y ** 2 / 4))) <= 1e-12


def test_ampere_discrete_matches_direct_formula():
    geom = geometry_from_domain(-1.0, 1.0, 0.2, 2.2, 7, 11)
    V = sample(parse("cosh(Y)+X*Y/5+X^2"), ("X", "Y"), geom)  # convex columns
    sc = ampere_discrete(V)
    assert set(sc.column_branch) == {"convex"}
    betas = geom.ys()
    k = 0
    for i in range(V.nx):
        col = V.values[:, i]
        slope = (col[2:] - col[:-2]) / (2 * V.dy)
        u_direct = col[1:-1] - betas[1:-1] * slope
        for j in range(slope.size):
            assert sc.y[k] == slope[j]
            assert abs(sc.u[k] - u_direct[j]) <= 1e-12 * (1 + abs(u_direct[j]))
            k += 1


def test_ampere_discrete_residual_of_recovered_solution():
    # scattered image of V = a^2 - b^2 lies on u = x^2 + y^2/4, whose
    # Hessian-determinant is exactly 1
    ujet = symbolic_jet(parse("x^2+y^2/4"), ("x", "y"), 0.37, -1.2)
    assert ujet.hessian_det() == 1.0


def test_ampere_discrete_fold_on_constant():
    geom = geometry_from_domain(0, 1, 0, 1, 5, 5)
    V = Grid2(geom, np.ones((5, 5)))
    with pytest.raises(FoldError):
        ampere_discrete(V)


def test_ampere_discrete_fold_on_nonconvex_with_monotone_centered_slopes():
    # edge slopes 0, 2, 1, 3 wiggle, yet the centered slopes 1, 1.5, 2 are
    # strictly increasing; the second-difference test must still reject this
    col = np.array([0.0, 0.0, 2.0, 3.0, 6.0])
    geom = geometry_from_domain(0, 1, 0, 4, 3, 5)
    V = Grid2(geom, np.tile(col[:, None], (1, 3)))
    with pytest.raises(FoldError):
        ampere_discrete(V)


def test_scattered_round_trip(tmp_path):
    geom = geometry_from_domain(0.0, 2.0, 0.0, 2.0, 5, 5)
    V = sample(parse("X^2-Y^2"), ("X", "Y"), geom)
    sc = ampere_discrete(V)
    path = tmp_path / "s.csv"
    write_scattered(sc, path)
    x, y, u = read_scattered(path)
    assert np.array_equal(x, sc.x) and np.array_equal(y, sc.y) and np.array_equal(u, sc.u)
