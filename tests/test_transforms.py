import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_conjugate, brute_conjugate_2d, invert_contact_point,
                     measured_order, point_jet, same_bits, seeded_closed_forms,
                     percent_g_rows)
from ma_lin.expressions import parse
from ma_lin.grids import (Grid2, GridFormatError, GridGeometry, JetArrays,
                          geometry_from_domain, interior_jets, sample, symbolic_jet)
from ma_lin.transforms import (DEGENERACY_EPS, DegenerateJetError, FoldError,
                               TransformError, ampere_discrete, ampere_step,
                               compose_chain, contact_map,
                               discrete_legendre_1d, discrete_legendre_2d,
                               legendre_point_map, point_step, push_jet_arrays,
                               read_scattered, rotation_step, write_scattered)

SQRT_SOLUTION = parse("sqrt(y - x^2/4)")  # image of X^2 - Y^2 under the map
# U = c U* for the two lift families, plane-strain-class and grad-inversion
_LIFT_FAMILIES = ("1.1*(X^2-Y^2)", "0.9*(X^2 - Y*arctan(Y))")


def _image_fields(im):
    """The nine fields of a contact image, in the benchmark's column order."""
    return (im.x, im.y, im.jacobian, *im.jet.entries())


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
        contact_map(point_jet(0.0, 1.0, 1.0, 1.0, 0.0, 0.0), 0.0, 0.0)
    with pytest.raises(DegenerateJetError):
        contact_map(point_jet(0.0, 0.0, 1.0, 1.0, 0.0, 1.0), 0.0, 0.0)


def test_degenerate_jet_error_quotes_the_threshold_in_force():
    with pytest.raises(DegenerateJetError) as exc:
        contact_map(point_jet(0.0, 5e-4, 1.0, 1.0, 0.0, 1.0), 0.0, 0.0, eps=1e-3)
    assert (exc.value.quantity, exc.value.eps) == ("U_X", 1e-3)
    assert "|U_X| = 5.000e-04 <= 0.001" in str(exc.value)
    # the Legendre step of X^2-Y^2 has Hessian determinant -4 everywhere
    with pytest.raises(DegenerateJetError) as exc:
        compose_chain(parse("X^2-Y^2"), 1, 1, eps=10)
    assert exc.value.eps == 10
    assert str(exc.value).endswith("4.000e+00 <= 10")


def test_jet_requires_finite_entries():
    # a non-finite entry is rejected by name, never pushed on to NaNs
    for k, bad in ((1, math.inf), (2, math.nan), (5, -math.inf)):
        entries = [1.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        entries[k] = bad
        with pytest.raises(DegenerateJetError) as exc:
            contact_map(point_jet(*entries), 0.5, 0.5)
        assert exc.value.quantity == "non-finite" and exc.value.index == 0
        assert str(bad) in str(exc.value)
    U = np.ones(5)
    U[3] = math.nan
    with pytest.raises(DegenerateJetError) as exc:
        contact_map(JetArrays(U, *np.ones((5, 5)), valid=np.ones(5, bool)), 0.5, 0.5)
    assert exc.value.quantity == "non-finite" and exc.value.index == 3
    # a NaN point, and a point where U = X^2 - Y^2 overflows to inf
    for X in (math.nan, 1e200):
        with pytest.raises(DegenerateJetError) as exc:
            compose_chain(parse("X^2-Y^2"), np.array([1.0, X]), 1.0)
        assert exc.value.quantity == "non-finite" and exc.value.index == 1


def test_non_finite_base_point_is_masked():
    jet = JetArrays(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, valid=None)
    for bad in (math.nan, math.inf, -math.inf):
        for X, Y in ((bad, 1.0), (1.0, bad)):
            im = push_jet_arrays(jet, X, Y)
            assert not im.jet.valid and np.isnan(_image_fields(im)).all(), (X, Y)
            with pytest.raises(DegenerateJetError) as exc:
                contact_map(jet, X, Y)
            assert exc.value.quantity == "non-finite" and exc.value.index == 0
    X, Y = np.array([0.5, math.nan, 0.5]), np.array([0.5, 0.5, -math.inf])
    assert push_jet_arrays(jet, X, Y).jet.valid.tolist() == [True, False, False]
    with pytest.raises(DegenerateJetError) as exc:
        contact_map(jet, X, Y)
    assert exc.value.index == 1


def test_push_jet_arrays_fields_share_the_broadcast_shape():
    # float jet fields pushed at two points: every field has the points' shape,
    # and each point has the bits it has alone
    jet = JetArrays(1.0, 1.0, 1.0, 1.0, 0.0, 1.0, valid=None)
    X, Y = np.array([0.5, 1.5]), np.array([1.0, 2.0])
    im = push_jet_arrays(jet, X, Y)
    assert {np.shape(a) for a in (*_image_fields(im), im.jet.valid)} == {(2,)}
    for k in range(2):
        alone = push_jet_arrays(jet, X[k], Y[k])
        assert all(same_bits(a[k], b) for a, b in zip(_image_fields(im), _image_fields(alone)))
    assert im.jet.compress().u.tolist() == [0.5, 1.5]


def test_contact_map_raises_exactly_where_push_jet_arrays_masks():
    rng = np.random.default_rng(3)
    J = {k: rng.uniform(-2, 2, 60) for k in "abcdef"}
    # put some nodes on or next to each fold: U_X, U_YY, and the jacobian
    J["b"][:6] = [0.0, 1e-9, -1e-8, 1e-4, 1e-4, 2e-8]
    J["f"][6:12] = [0.0, -1e-9, 1e-8, 1e-4, 1e-4, 3e-4]
    X, Y = rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 60)
    jets = JetArrays(*(J[c] for c in "abcdef"), valid=np.ones(60, bool))
    pushed = push_jet_arrays(jets, X, Y)
    fields, valid = _image_fields(pushed), pushed.jet.valid
    assert 0 < valid.sum() < 60
    with pytest.raises(DegenerateJetError) as exc:
        contact_map(jets, X, Y)
    assert (exc.value.quantity, exc.value.index) == ("U_X", 0)
    for k in range(60):
        jet = point_jet(*(float(J[c][k]) for c in "abcdef"))
        if valid[k]:
            im = contact_map(jet, X[k], Y[k])
            assert _image_fields(im) == tuple(a[k] for a in fields)
        else:
            with pytest.raises(DegenerateJetError) as exc:
                contact_map(jet, X[k], Y[k])
            first = next(q for q, v in (("U_X", jet.ux), ("U_YY", jet.uyy),
                                        ("jacobian", jet.ux * jet.uyy))
                         if abs(v) <= DEGENERACY_EPS)
            assert exc.value.quantity == first


# ---------------------------------------------------------------------------
# elementary steps

def _same_jet(a: JetArrays, b: JetArrays) -> bool:
    return all(same_bits(p, q) for p, q in zip(a.entries(), b.entries()))


def test_ampere_step_quadratic():
    # V = a^2 - b^2 at (1, 1): V_b = -2, u = V - b V_b = 0 + 2 = 2
    x, y, jet = ampere_step(parse("alpha^2-beta^2"), 1.0, 1.0)
    assert (x, y, jet.u) == (1.0, -2.0, 2.0)


def test_ampere_step_half_square():
    x, y, jet = ampere_step(parse("beta^2/2"), 0.0, 1.0)
    assert (x, y, jet.u) == (0.0, 1.0, -0.5)


def test_ampere_step_degenerate():
    with pytest.raises(DegenerateJetError):
        ampere_step(parse("alpha*beta"), 1.0, 1.0)


def test_ampere_step_twice_reflects_beta():
    # on dyadic jets with V_bb a power of two every operation is exact: the
    # image of the image is V at (alpha, -beta), the reflection of beta
    for alpha, beta, V in ((1.0, 0.5, (1.5, -0.25, 3.0, 0.75, 1.25, 2.0)),
                           (-0.75, -2.0, (-3.0, 1.0, -0.5, -1.5, 0.5, -0.25))):
        jet = point_jet(*V)
        x, y, ujet = ampere_step(jet, alpha, beta)
        x2, y2, v = ampere_step(ujet, x, y)
        u, ux, uy, uxx, uxy, uyy = jet.entries()
        assert (x2, y2) == (alpha, -beta)
        assert _same_jet(v, point_jet(u, ux, -uy, uxx, -uxy, uyy))


def test_point_step():
    jet = point_jet(6.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    alpha, beta, V = point_step(jet, 1.0, 2.0)
    assert (alpha, beta, V.u) == (1.0, 0.5, 3.0)
    with pytest.raises(DegenerateJetError) as exc:
        point_step(jet, 1.0, 0.0)
    assert exc.value.quantity == "eta"


def test_point_step_is_an_involution():
    # exact on dyadic inputs with eta a power of two, for a point and for arrays
    for xi, eta, W in ((1.0, 2.0, (6.0, 0.5, -1.25, 0.75, 3.0, -2.0)),
                       (-0.5, 0.25, (3.0, -1.5, 0.125, 2.0, -0.75, 0.5)),
                       (np.array([0.5, -1.0]), np.array([-4.0, 0.5]),
                        np.array([(1.0, 2.5), (-0.5, 0.25), (2.0, -3.0),
                                  (0.75, 1.0), (-2.0, 0.5), (1.5, -0.125)]))):
        jet = JetArrays(*W, valid=True)
        alpha, beta, V = point_step(jet, xi, eta)
        xi2, eta2, W2 = point_step(V, alpha, beta)
        assert same_bits(xi2, xi) and same_bits(eta2, eta) and _same_jet(W2, jet)


def test_rotation_step():
    tau, sigma, Z = rotation_step(point_jet(5.0, 1.0, 2.0, 3.0, 4.0, 6.0), 2.0, 1.0)
    assert (tau, sigma) == (-1.0, 2.0)
    assert Z.entries() == (-5.0, 2.0, -1.0, -6.0, 4.0, -3.0)
    # four quarter turns give back the point and the jet bit for bit
    rng = np.random.default_rng(5)
    for X, Y, jet in ((-0.3, 0.7, point_jet(2.5, -0.0, 1e-300, 0.1, -1.7, math.inf)),
                      (*rng.normal(size=(2, 4)), JetArrays(*rng.normal(size=(6, 4)),
                                                            valid=np.ones(4, bool)))):
        point = (X, Y, jet)
        for _ in range(4):
            point = rotation_step(point[2], point[0], point[1])
        assert same_bits(point[0], X) and same_bits(point[1], Y) and _same_jet(point[2], jet)
        assert point[2].valid is jet.valid


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
    jet = point_jet(u, ux, uy, uxx, uxy, uyy)
    x1, y1, j1 = legendre_point_map(jet, X, Y)
    x2, y2, j2 = legendre_point_map(j1, x1, y1)
    assert abs(x2 - X) <= 1e-12 * (1 + abs(X))
    assert abs(y2 - Y) <= 1e-12 * (1 + abs(Y))
    for k in ("u", "ux", "uy", "uxx", "uxy", "uyy"):
        a, b = getattr(j2, k), getattr(jet, k)
        assert abs(a - b) <= 1e-9 * (1 + abs(b)), k


def test_legendre_rejects_singular_hessian():
    with pytest.raises(DegenerateJetError):
        legendre_point_map(point_jet(0.0, 1.0, 1.0, 1.0, 1.0, 1.0), 0.0, 0.0)


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


def _assert_chain_agrees(U, X, Y, label):
    ref = contact_map(symbolic_jet(U, ("X", "Y"), X, Y), X, Y)
    im = compose_chain(U, X, Y)
    names = ("x", "y", "jac", "u", "ux", "uy", "uxx", "uxy", "uyy")
    for name, a, b in zip(names, _image_fields(im), _image_fields(ref)):
        assert np.all(np.abs(a - b) <= 1e-10 * (1 + np.abs(b))), (label, name)


def test_compose_chain_agrees_with_contact_map_everywhere():
    rng = np.random.default_rng(11)
    for text in _CHAIN_FORMS:
        U = parse(text)
        points = []
        while len(points) < 100:
            X = float(rng.uniform(0.6, 1.7))
            Y = float(rng.uniform(0.6, 1.7))
            jet = symbolic_jet(U, ("X", "Y"), X, Y)
            det = jet.hessian_det()
            if (abs(jet.ux) < 1e-3 or abs(jet.uyy) < 1e-3 or abs(det) < 1e-3):
                continue
            _assert_chain_agrees(U, X, Y, text)
            points.append((X, Y))
        _assert_chain_agrees(U, *np.array(points).T, text)


def test_array_calls_equal_single_point_calls_bit_for_bit():
    rng = np.random.default_rng(13)
    X, Y = rng.uniform(0.5, 1.5, (2, 200))
    pts = list(zip(X.tolist(), Y.tolist()))
    for text in _LIFT_FAMILIES:
        U = parse(text)
        jets = symbolic_jet(U, ("X", "Y"), X, Y)
        singles = [symbolic_jet(U, ("X", "Y"), a, b) for a, b in pts]
        assert np.all(jets.valid)
        for a, b in zip(jets.entries(), zip(*(j.entries() for j in singles))):
            assert same_bits(a, b), text
        for name, images, single in (
                ("chain", compose_chain(U, X, Y), [compose_chain(U, a, b) for a, b in pts]),
                ("contact", contact_map(jets, X, Y),
                 [contact_map(j, a, b) for j, (a, b) in zip(singles, pts)])):
            for a, b in zip(_image_fields(images), zip(*map(_image_fields, single))):
                assert same_bits(a, b), (text, name)


def test_benchmark_point_calls_match_the_array_push():
    # the closed-form benchmark calls compose_chain and
    # contact_map(symbolic_jet(...)) once per row of a float64 point array
    # and stacks each image's nine fields into one row
    rng = np.random.default_rng(14)
    points = rng.uniform(0.5, 1.5, (50, 2))
    X, Y = points[:, 0], points[:, 1]

    def fields(images):
        return np.array([(m.x, m.y, m.jacobian, m.jet.u, m.jet.ux, m.jet.uy,
                          m.jet.uxx, m.jet.uxy, m.jet.uyy) for m in images]).reshape(-1, 9)

    for text in _LIFT_FAMILIES:
        U = parse(text)
        assert all(type(X0) is np.float64 for X0, _ in points)
        chained = fields([compose_chain(U, X0, Y0) for X0, Y0 in points])
        direct = fields([contact_map(symbolic_jet(U, ("X", "Y"), X0, Y0), X0, Y0)
                         for X0, Y0 in points])
        pushed = np.column_stack(_image_fields(
            push_jet_arrays(symbolic_jet(U, ("X", "Y"), X, Y), X, Y)))
        assert direct.dtype == np.float64 and same_bits(direct, pushed), text
        assert np.all(np.abs(chained - pushed) <= 1e-9 * (1 + np.abs(pushed))), text


# a point given as a Python float, a numpy float64 or a 0-d array
_POINT_KINDS = (float, np.float64, np.array)

# (U, U_X, U_Y, U_XX, U_XY, U_YY, X, Y): regular jets, then non-finite
# entries and base points, then points on each fold (eps = DEGENERACY_EPS)
_PUSH_ROWS = (
    (1.0, 1.3, 0.2, 0.7, -0.4, 1.1, 0.6, 0.9),
    (-0.3, -2.0, 1.5, -0.25, 0.5, 0.75, 1.2, -0.4),
    (math.nan, 1.3, 0.2, 0.7, -0.4, 1.1, 0.6, 0.9),
    (1.0, 1.3, 0.2, 0.7, -0.4, math.inf, 0.6, 0.9),
    (1.0, 1.3, 0.2, 0.7, -0.4, 1.1, -math.inf, 0.9),
    (1.0, 1.3, 0.2, 0.7, -0.4, 1.1, 0.6, math.nan),
    (1.0, 0.0, 0.2, 0.7, -0.4, 1.1, 0.6, 0.9),
    (1.0, -1e-9, 0.2, 0.7, -0.4, 1.1, 0.6, 0.9),
    (1.0, 1.3, 0.2, 0.7, -0.4, 1e-8, 0.6, 0.9),
    (1.0, 1e-4, 0.2, 0.7, -0.4, -1e-4, 0.6, 0.9),
)


def _contact_error(jet, X, Y, eps=DEGENERACY_EPS):
    with pytest.raises(DegenerateJetError) as exc:
        contact_map(jet, X, Y, eps=eps)
    return exc.value.quantity, float(exc.value.value).hex(), exc.value.index


@pytest.mark.parametrize("kind", _POINT_KINDS)
def test_point_push_gives_the_array_push_bits(kind):
    cols = np.array(_PUSH_ROWS).T
    pushed = push_jet_arrays(JetArrays(*cols[:6], valid=None), cols[6], cols[7])
    assert pushed.jet.valid.tolist() == [True, True] + [False] * 8
    for k, row in enumerate(_PUSH_ROWS):
        point = [kind(v) for v in row]
        jet = point_jet(*point[:6])
        im = push_jet_arrays(jet, *point[6:])
        assert type(im.jet.valid) is np.bool_ and im.jet.valid == pushed.jet.valid[k]
        assert all(type(a) is float for a in _image_fields(im)), k
        assert all(same_bits(a, b[k]) for a, b in zip(_image_fields(im), _image_fields(pushed))), k
        if im.jet.valid:
            assert all(same_bits(a, b) for a, b in zip(
                _image_fields(contact_map(jet, *point[6:])), _image_fields(im))), k
        else:
            single = JetArrays(*cols[:6, k:k + 1], valid=None)
            assert _contact_error(jet, *point[6:]) == _contact_error(
                single, cols[6, k:k + 1], cols[7, k:k + 1]), k


@pytest.mark.parametrize("kind", _POINT_KINDS)
def test_point_push_divides_as_numpy_where_a_divisor_underflows(kind):
    # with eps = 0 a jet with |U_X| = |U_YY| = 1e-100 is valid, but U_X^3 U_YY
    # underflows to zero, so the array push gives infinities; with eps < 0
    # U_X = 0 passes too, and Y / U_X is infinite
    for eps, ux, uyy in ((0.0, 1e-100, 1e-100), (0.0, -1e-100, 1e-100), (-1.0, 0.0, 1.0),
                         (-1.0, -0.0, 1.0)):
        row = (1.0, ux, 0.2, 0.7, 0.0, uyy, 0.6, 0.9)
        with np.errstate(divide="ignore", invalid="ignore"):
            pushed = push_jet_arrays(point_jet(*(np.array([v]) for v in row[:6])),
                                     np.array([row[6]]), np.array([row[7]]), eps=eps)
        assert pushed.jet.valid.all() and not np.isfinite(pushed.jet.uxx).all()
        point = [kind(v) for v in row]
        im = contact_map(point_jet(*point[:6]), *point[6:], eps=eps)
        assert all(same_bits(a, b[0]) for a, b in zip(_image_fields(im), _image_fields(pushed)))


@pytest.mark.parametrize("kind", _POINT_KINDS)
def test_point_chain_gives_the_array_chain_bits(kind):
    X, Y = np.array([0.6, 1.3, 0.9]), np.array([0.7, 1.1, 1.45])
    for text in (*_LIFT_FAMILIES, "exp(0.3*X)+cosh(Y)"):
        U = parse(text)
        chained = compose_chain(U, X, Y)
        for k in range(X.size):
            im = compose_chain(U, kind(X[k]), kind(Y[k]))
            assert type(im.jet.valid) is np.bool_ and im.jet.valid
            assert all(same_bits(a, b[k]) for a, b in
                       zip(_image_fields(im), _image_fields(chained))), (text, k)
    for X0, Y0 in ((1.0, 1.0), (0.0, 1.0)):
        with pytest.raises(DegenerateJetError) as point:
            compose_chain(parse("X*Y"), kind(X0), kind(Y0))
        with pytest.raises(DegenerateJetError) as array:
            compose_chain(parse("X*Y"), np.array([X0]), np.array([Y0]))
        assert str(point.value) == str(array.value)


@pytest.mark.parametrize("kind", _POINT_KINDS)
def test_point_chain_where_eta_squared_underflows(kind):
    # U = X^2 - Y^2 at X = 5e-201: the Legendre image ordinate is
    # eta = -U_X = -1e-200, so eta*eta, and with it eta^3 V_bb, underflow to 0.
    # With eps = 0 the Ampere step is a fold; with eps < 0 every check
    # passes and the chain divides by zero, giving the array path's bits
    U, X0, Y0 = parse("X^2-Y^2"), 5e-201, 1.0
    with pytest.raises(DegenerateJetError) as point:
        compose_chain(U, kind(X0), kind(Y0), eps=0.0)
    with pytest.raises(DegenerateJetError) as array:
        compose_chain(U, np.array([X0]), np.array([Y0]), eps=0.0)
    assert point.value.quantity == array.value.quantity == "V_beta_beta"
    assert str(point.value) == str(array.value)
    with np.errstate(divide="ignore", invalid="ignore"):
        chained = compose_chain(U, np.array([X0]), np.array([Y0]), eps=-1.0)
    assert np.isinf(chained.jet.uyy[0]) and np.isnan(chained.jacobian[0])
    im = compose_chain(U, kind(X0), kind(Y0), eps=-1.0)
    assert all(same_bits(a, b[0]) for a, b in zip(_image_fields(im), _image_fields(chained)))


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
    return point_jet(*(float(a[1, 1]) for a in jets.entries()))


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
        # random slopes, and the data's own edge slopes, where the maximum
        # ties (up to rounding) between the two ends of an edge
        for slopes in (np.unique(rng.uniform(-4, 4, m)),
                       np.unique(np.diff(vs) / np.diff(xs))):
            got = discrete_legendre_1d(xs, vs, slopes).values
            assert np.array_equal(got, brute_conjugate(xs, vs, slopes)), trial
    xs = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    vs = xs * xs
    slopes = np.diff(vs) / np.diff(xs)
    got = discrete_legendre_1d(xs, vs, slopes).values
    assert np.array_equal(got, brute_conjugate(xs, vs, slopes))
    assert got[-1] == 0.41999999999999993


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


def test_conjugate_2d_equals_row_then_column_conjugates_bit_for_bit():
    # the definition as 1-D conjugates, one per row and then one per slope
    # column, on grids that take many blocks; quarter-integer data makes
    # maxima tie between nodes
    rng = np.random.default_rng(8)
    for n, m, Z in ((65, 33, rng.standard_normal((65, 65))),
                    (65, 33, np.round(rng.uniform(-8, 8, (65, 65))) / 4),
                    (40, 7, rng.standard_normal((23, 40)))):
        g = Grid2(geometry_from_domain(-1.0, 1.0, -0.5, 0.5, n, Z.shape[0]), Z)
        sgeom = geometry_from_domain(-2.0, 2.0, -3.0, 3.0, m, m + 2)
        inner = np.array([discrete_legendre_1d(g.xs(), row, sgeom.xs()).values
                          for row in g.values])
        want = np.array([discrete_legendre_1d(g.ys(), -col, sgeom.ys()).values
                         for col in inner.T]).T
        assert same_bits(discrete_legendre_2d(g, sgeom).values, want)


def test_conjugate_2d_temporaries_do_not_grow_with_the_cube():
    # one broadcast over a whole pass would hold 129 * 65 * 129 doubles (8.7 MB,
    # 65 grids' worth); the passes hold a few arrays of grid size or less
    g = sample(parse("X^2+Y^2"), ("X", "Y"), geometry_from_domain(-1, 1, -1, 1, 129, 129))
    sgeom = geometry_from_domain(-2, 2, -2, 2, 65, 65)
    tracemalloc.start()
    try:
        discrete_legendre_2d(g, sgeom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * g.values.nbytes


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
    # alpha = -1, -1/3, 1/3, 1: V_beta_beta has the sign of alpha
    geom = geometry_from_domain(-1.0, 1.0, 0.2, 2.2, 4, 11)
    V = sample(parse("X*cosh(Y)+X*Y/5+X^2"), ("X", "Y"), geom)
    sc = ampere_discrete(V)
    assert sc.column_branch == ("concave", "concave", "convex", "convex")
    betas = geom.ys()
    k = 0
    for i in range(V.nx):
        col = V.values[:, i]
        for j in range(1, V.ny - 1):
            slope = (col[j + 1] - col[j - 1]) / (2 * V.dy)
            assert sc.y[k] == slope
            assert sc.u[k] == col[j] - betas[j] * slope
            k += 1
    assert k == len(sc)


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


def test_ampere_discrete_names_the_first_folded_column():
    # alpha = 0, 1, 2, 3, 4: columns 1 and 3 are constant, so both fold
    geom = geometry_from_domain(0, 4, 0, 1, 5, 5)
    values = np.tile((geom.ys() ** 2)[:, None], (1, 5))
    values[:, 1] = values[:, 3] = 1.0
    with pytest.raises(FoldError, match=r"^column alpha=1 "):
        ampere_discrete(Grid2(geom, values))
    values[:, 1] = -geom.ys() ** 2  # concave, not a fold
    with pytest.raises(FoldError, match=r"^column alpha=3 "):
        ampere_discrete(Grid2(geom, values))


def test_scattered_round_trip(tmp_path):
    geom = geometry_from_domain(0.0, 2.0, 0.0, 2.0, 5, 5)
    V = sample(parse("X^2-Y^2"), ("X", "Y"), geom)
    sc = ampere_discrete(V)
    path = tmp_path / "s.csv"
    write_scattered(sc, path)
    x, y, u = read_scattered(path)
    assert np.array_equal(x, sc.x) and np.array_equal(y, sc.y) and np.array_equal(u, sc.u)
    assert path.read_bytes() == b"# scattered\n" + percent_g_rows(np.column_stack((x, y, u)))


@pytest.mark.parametrize("text, line, value", [
    ("# scattered\n1,2\n3,4\n5,6\n", 2, "expected 3 values, found 2"),
    ("# scattered\n1,2,3\n\n4,5\n", 4, "found 2"),
    ("# scattered\n1,2,3\n4,x,6\n", 3, "value 2 .*'x'"),
    ("# lifted\n1,2,3\n", 1, "unexpected header: '# lifted'"),
], ids=["narrow", "ragged", "token", "header"])
def test_read_scattered_refuses_a_wrong_table(tmp_path, text, line, value):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(GridFormatError, match=rf"^line {line}: .*{value}"):
        read_scattered(path)


def test_read_scattered_header_only_and_non_finite(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# scattered\n")
    assert [a.shape for a in read_scattered(path)] == [(0,), (0,), (0,)]
    path.write_text("# scattered\nnan,inf,-inf\n")
    x, y, u = read_scattered(path)
    assert np.isnan(x[0]) and y[0] == np.inf and u[0] == -np.inf
