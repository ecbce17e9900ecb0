import gc
import json
import math
import struct
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ma_lin.cli as cli
import ma_lin.expressions as expressions
from helpers import reference_evaluate
from ma_lin.equations import khabirov_push
from ma_lin.expressions import (BinOp, Call, Const, EvalError, Neg, ParseError,
                                Var, compile_trees, diff, evaluate, parse, subst,
                                to_text, variables)
from ma_lin.grids import GridGeometry, JetArrays
from ma_lin.lift import PipelineConfig
from ma_lin.linsolve import SolveReport
from ma_lin.transforms import ContactImage


# ---------------------------------------------------------------------------
# parsing

def test_parse_single_power():
    assert parse("q^4") == BinOp("^", Var("q"), Const(4.0))


def test_parse_parenthesized_precedence():
    e = parse("(p^2+q^2)^2")
    inner = BinOp("+", BinOp("^", Var("p"), Const(2.0)), BinOp("^", Var("q"), Const(2.0)))
    assert e == BinOp("^", inner, Const(2.0))


def test_parse_product_with_power():
    e = parse("u*(p^2+q^2)^2")
    assert isinstance(e, BinOp) and e.op == "*"
    assert e.left == Var("u")
    assert e.right == parse("(p^2+q^2)^2")


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == Neg(BinOp("^", Var("x"), Const(2.0)))
    assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0


def test_minus_a_number_parses_as_a_negative_constant():
    assert parse("x^-2") == BinOp("^", Var("x"), Const(-2.0))
    assert parse("-2^2") == Neg(BinOp("^", Const(2.0), Const(2.0)))  # -(2^2), as for -x^2
    assert math.copysign(1.0, parse("-0").value) < 0
    for text in ("x^-2", "2^-3", "(-2)^2", "-0", "--2"):
        assert to_text(parse(text)) == text
        assert parse(to_text(parse(text))) == parse(text)


def test_negative_literal_exponent_keeps_the_bits_of_the_negated_one():
    # the tree that parse made before, with the exponent as -(2), is the reference
    tree = parse("(x^2+y^2)^(-2)")
    negated = BinOp("^", tree.left, Neg(Const(2.0)))
    for bindings in ({"x": 0.3, "y": 1.7}, {"x": 0.0, "y": 0.0},
                     {"x": np.linspace(-2.0, 2.0, 9), "y": np.linspace(0.1, 3.0, 9)}):
        want = _outcome(lambda: [reference_evaluate(negated, bindings)])
        for got in _every_run(compile_trees((tree,)), bindings):
            assert _same_outcome(got, want), (bindings, got, want)
    # the literal exponent takes the product path, with no negation step or pow call
    assert "_power" not in expressions._source(compile_trees((tree,)))[0]


def test_power_right_associative():
    assert parse("x^y^z") == BinOp("^", Var("x"), BinOp("^", Var("y"), Var("z")))


def test_subtraction_left_associative():
    assert evaluate(parse("10-4-3"), {}) == 3.0


def test_whitespace_insensitive():
    assert parse("  q ^ 4 ") == parse("q^4")


def test_parse_numbers():
    assert parse("2.5e-3") == Const(2.5e-3)
    assert parse(".5") == Const(0.5)


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("q^")
    assert exc.value.offset == 2
    assert "expected" in str(exc.value)


def test_parse_error_unknown_function():
    with pytest.raises(ParseError) as exc:
        parse("foo(x)")
    assert "unknown function" in str(exc.value)
    assert exc.value.offset == 0


def test_parse_error_stray_token():
    with pytest.raises(ParseError) as exc:
        parse("x + * y")
    assert exc.value.offset == 4


# ---------------------------------------------------------------------------
# evaluation

def test_eval_examples():
    assert evaluate(parse("q^4"), {"q": 2.0}) == 16.0
    assert evaluate(parse("(p^2+q^2)^2"), {"p": 1.0, "q": 1.0}) == 4.0
    assert evaluate(parse("X^2 - Y*arctan(Y)"), {"X": 1.0, "Y": 0.0}) == 1.0


def test_eval_unbound_variable():
    with pytest.raises(EvalError) as exc:
        evaluate(parse("x+y"), {"x": 1.0})
    assert "unbound" in str(exc.value) and "y" in str(exc.value)


@pytest.mark.parametrize("text,binding,fragment", [
    ("sqrt(x)", {"x": -1.0}, "sqrt"),
    ("ln(x)", {"x": 0.0}, "ln"),
    ("1/x", {"x": 0.0}, "division by zero"),
    ("x^0.5", {"x": -2.0}, "positive base"),
])
def test_eval_domain_errors_name_subtree(text, binding, fragment):
    with pytest.raises(EvalError) as exc:
        evaluate(parse(text), binding)
    assert fragment in str(exc.value)


def test_integer_power_of_negative_base():
    assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0
    assert evaluate(parse("x^(-4)"), {"x": -2.0}) == 1.0 / 16.0


def test_eval_deterministic():
    e = parse("sin(x)*cosh(y) + x^3/(1+y^2)")
    b = {"x": 0.7731, "y": -1.25}
    assert evaluate(e, b) == evaluate(e, b)


def test_trees_are_immutable():
    e = parse("x+1")
    with pytest.raises(Exception):
        e.op = "*"


_GEOM_TEXT = "GridGeometry(nx=3, ny=2, x0=0.0, y0=0.5, dx=0.25, dy=0.5)"
_GEOM_ARGS = (3, 2, 0.0, 0.5, 0.25, 0.5)
_CONFIG_TEXT = (f"PipelineConfig(geom={_GEOM_TEXT}, boundary=Var(name='X'), target=(33, 33), "
                "solve_tol=None, seed=42)")


@pytest.mark.parametrize("cls,args,kwargs,text", [
    (BinOp, ("+", Const(1.0), Var("x")), {},
     "BinOp(op='+', left=Const(value=1.0), right=Var(name='x'))"),
    (GridGeometry, _GEOM_ARGS, {}, _GEOM_TEXT),
    (PipelineConfig, (GridGeometry(*_GEOM_ARGS), Var("X")), {}, _CONFIG_TEXT),
    (PipelineConfig, (), dict(geom=GridGeometry(*_GEOM_ARGS), boundary=Var("X"),
                              target=(33, 33), solve_tol=None, seed=42), _CONFIG_TEXT),
    (SolveReport, (3, 1e-12, True, 0.5, 0.25, 4e-12, 1e-12, (1e-3, 1e-12), ((5, 5), (3, 3)),
                   1), {},
     "SolveReport(iterations=3, residual=1e-12, converged=True, elapsed=0.5, "
     "setup_seconds=0.25, tol=4e-12, residual_floor=1e-12, residuals=(0.001, 1e-12), "
     "levels=((5, 5), (3, 3)), direct_unknowns=1)"),
    (ContactImage, (1.0, 2.0, JetArrays(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, True), -4.0), {},
     "ContactImage(x=1.0, y=2.0, jet=JetArrays(u=1.0, ux=2.0, uy=3.0, uxx=4.0, uxy=5.0, "
     "uyy=6.0, valid=True), jacobian=-4.0)"),
], ids=["BinOp", "GridGeometry", "PipelineConfig-defaults", "PipelineConfig-keywords",
        "SolveReport", "ContactImage"])
def test_nodes_and_results_are_immutable_values(cls, args, kwargs, text):
    a, b = cls(*args, **kwargs), cls(*args, **kwargs)
    assert a == b and not a != b and hash(a) == hash(b)
    twin = type("Twin", (cls,), {})  # the same fields in another class
    assert a != twin(*args, **kwargs) and twin(*args, **kwargs) != a
    assert twin(*args, **kwargs) == twin(*args, **kwargs)
    for name in list(vars(a)):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == text


# ---------------------------------------------------------------------------
# differentiation

def _eval_equiv(a, b, bindings_list, tol=1e-12):
    for binding in bindings_list:
        va, vb = evaluate(a, binding), evaluate(b, binding)
        assert abs(va - vb) <= tol * (1.0 + abs(vb)), (va, vb, binding)


def test_diff_quadratic():
    d = diff(parse("X^2 - Y^2"), "Y")
    _eval_equiv(d, parse("-2*Y"), [{"X": x, "Y": y} for x in (-1.5, 0.2, 2.0)
                                   for y in (-2.0, 0.5, 1.7)])


def test_diff_chain_rule():
    d = diff(parse("(1+s^2)^2"), "s")
    _eval_equiv(d, parse("4*s*(1+s^2)"), [{"s": v} for v in (-2.0, -0.3, 0.0, 1.4)])


def test_diff_second_derivative_matches_fd():
    e = parse("Y*arctan(Y)")
    d2 = diff(diff(e, "Y"), "Y")
    val = evaluate(d2, {"Y": 1.0})
    assert abs(val - 0.5) <= 1e-12
    h = 1e-4
    fd = (evaluate(e, {"Y": 1 + h}) - 2 * evaluate(e, {"Y": 1.0})
          + evaluate(e, {"Y": 1 - h})) / h ** 2
    assert abs(val - fd) <= 1e-7


def test_diff_free_variable_is_zero_constant():
    assert diff(parse("sqrt(x)+1"), "y") == Const(0.0)


def test_diff_only_mentions_source_variables():
    e = parse("sin(x)*y + cosh(x*y)/x")
    for v in ("x", "y"):
        assert variables(diff(e, v)) <= variables(e)


# The 200-case finite-difference sweep: random trees of depth <= 5 built so
# every function is exercised; points are regenerated when they land too close
# to a kink (abs), a pole, or outside a function's domain.

_VARS = ("x", "y", "u")
_FUNCS = ("sqrt", "exp", "ln", "sin", "cos", "sinh", "cosh", "arctan", "abs")


def _random_tree(rng, depth, force_func=None):
    if force_func is not None:
        arg = _random_tree(rng, depth - 1)
        if force_func in ("sqrt", "ln"):
            arg = BinOp("+", BinOp("*", arg, arg), Const(0.5))
        return Call(force_func, arg)
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(float(np.round(rng.uniform(-2, 2), 3)))
        return Var(str(rng.choice(_VARS)))
    r = rng.random()
    if r < 0.55:
        op = str(rng.choice(("+", "-", "*", "/")))
        return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if r < 0.7:
        return BinOp("^", _random_tree(rng, depth - 1), Const(float(rng.integers(1, 4))))
    if r < 0.8:
        return Neg(_random_tree(rng, depth - 1))
    func = str(rng.choice(_FUNCS))
    arg = _random_tree(rng, depth - 1)
    if func in ("sqrt", "ln"):
        arg = BinOp("+", BinOp("*", arg, arg), Const(0.5))
    return Call(func, arg)


def _safe_case(rng, tree, var):
    """A binding where tree and its FD stencil evaluate and stay off kinks."""
    h = 1e-5
    for _ in range(60):
        b = {v: float(rng.uniform(-2, 2)) for v in _VARS}
        try:
            _check_kinks(tree, b)
            for shift in (-h, 0.0, h):
                b2 = dict(b)
                b2[var] += shift
                v = evaluate(tree, b2)
                if not math.isfinite(v) or abs(v) > 1e8:
                    raise EvalError("unstable", tree)
            return b
        except EvalError:
            continue
    return None


def _check_kinks(tree, b):
    # abs arguments and divisors must stay away from zero for the FD check
    if isinstance(tree, Call):
        _check_kinks(tree.arg, b)
        if tree.func == "abs" and abs(evaluate(tree.arg, b)) < 0.05:
            raise EvalError("kink", tree)
    elif isinstance(tree, BinOp):
        _check_kinks(tree.left, b)
        _check_kinks(tree.right, b)
        if tree.op == "/" and abs(evaluate(tree.right, b)) < 0.05:
            raise EvalError("pole", tree)
    elif isinstance(tree, Neg):
        _check_kinks(tree.arg, b)


def test_derivative_matches_finite_differences_200_cases():
    rng = np.random.default_rng(20260809)
    h = 1e-5
    done = 0
    func_cycle = list(_FUNCS)
    while done < 200:
        force = func_cycle[done % len(func_cycle)] if done < 2 * len(_FUNCS) else None
        tree = _random_tree(rng, depth=5, force_func=force)
        var = str(rng.choice(_VARS))
        if var not in variables(tree):
            tree = BinOp("+", tree, BinOp("*", Const(0.5), Var(var)))
        b = _safe_case(rng, tree, var)
        if b is None:
            continue
        try:
            sym = evaluate(diff(tree, var), b)
        except EvalError:
            continue
        bp, bm = dict(b), dict(b)
        bp[var] += h
        bm[var] -= h
        fd = (evaluate(tree, bp) - evaluate(tree, bm)) / (2 * h)
        if abs(fd) > 1e6:
            continue
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym)), (to_text(tree), var, sym, fd)
        done += 1


def test_diff_is_linear_exactly():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = _random_tree(rng, 3)
        b = _random_tree(rng, 3)
        s = BinOp("+", a, b)
        binding = {v: float(rng.uniform(-1.5, 1.5)) for v in _VARS}
        for var in _VARS:
            try:
                lhs = evaluate(diff(s, var), binding)
                rhs = evaluate(diff(a, var), binding) + evaluate(diff(b, var), binding)
            except EvalError:
                continue
            assert lhs == rhs  # same floating-point sum by construction


# ---------------------------------------------------------------------------
# array evaluation

def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(((a == b) & (np.signbit(a) == np.signbit(b)))
                       | (np.isnan(a) & np.isnan(b))))


def _scalar_cells(tree, cells):
    """Per-cell scalar results (NaN where it raises) and which cells raise."""
    n = len(next(iter(cells.values())))
    out, raised = np.full(n, np.nan), np.zeros(n, dtype=bool)
    for k in range(n):
        try:
            out[k] = evaluate(tree, {v: float(a[k]) for v, a in cells.items()})
        except EvalError:
            raised[k] = True
    return out, raised


def _assert_array_matches_scalar(tree, cells):
    scalar, raised = _scalar_cells(tree, cells)
    if raised.any():
        with pytest.raises(EvalError) as exc:
            evaluate(tree, cells)
        assert raised[exc.value.index], (to_text(tree), exc.value.index)
    else:
        got = evaluate(tree, cells)
        assert got.shape == scalar.shape
        assert _same_bits(got, scalar), to_text(tree)
    return raised


def test_array_evaluation_matches_scalar_bitwise_random_trees():
    rng = np.random.default_rng(20261018)
    special = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 40.0, -40.0, 750.0])
    counts = np.zeros(2, dtype=int)
    for _ in range(300):
        tree = _random_tree(rng, depth=int(rng.integers(1, 6)))
        cells = {v: np.concatenate([rng.uniform(-3, 3, 24), rng.permutation(special)])
                 for v in _VARS}
        raised = _assert_array_matches_scalar(tree, cells)
        counts[int(raised.any())] += 1
    assert counts.min() >= 20  # both outcomes are exercised


def test_scalar_evaluation_returns_python_float():
    assert type(evaluate(parse("sin(x)+2"), {"x": np.float64(1.0)})) is float
    assert type(evaluate(parse("x"), {"x": np.array(3.0)})) is float
    assert to_text(subst(parse("exp(y)*2^x"), {"y": 0, "x": 0.5})) == repr(2 ** 0.5)


def test_array_evaluation_broadcasts_bindings():
    x = np.array([[1.0], [2.0]])
    y = np.array([10.0, 20.0, 30.0])
    got = evaluate(parse("x*y+1"), {"x": x, "y": y})
    assert np.array_equal(got, x * y + 1)
    # a tree without variables still fills the broadcast shape
    assert np.array_equal(evaluate(parse("2^3"), {"x": x, "y": y}), np.full((2, 3), 8.0))


def test_variable_exponent_mixes_integer_and_fractional_cells():
    X = np.array([-2.0, -2.0, 2.0, 3.0, 2.0, 0.0, 1.5, -1.1, 1.0])
    Y = np.array([3.0, -2.0, 0.5, 1.5, 70.0, 0.0, -65.0, 67.0, 2.0 ** 40])
    tree = parse("X^Y")
    assert not _assert_array_matches_scalar(tree, {"X": X, "Y": Y}).any()
    got = evaluate(tree, {"X": X, "Y": Y})
    assert got[0] == -8.0 and got[1] == 0.25 and got[4] == 2.0 ** 70
    assert got[7] < 0  # odd power above 64 keeps the sign
    assert got[8] == 1.0  # an exponent above 2^31 takes the pow() route
    # each failure is reported at its own cell, and only there
    for k, (x, y, fragment) in enumerate([(-2.0, 0.5, "positive base"),
                                          (0.0, -3.0, "zero base"),
                                          (2.0, 5000.5, "overflow")]):
        Xk, Yk = X.copy(), Y.copy()
        Xk[4 + k], Yk[4 + k] = x, y
        raised = _assert_array_matches_scalar(tree, {"X": Xk, "Y": Yk})
        assert list(np.flatnonzero(raised)) == [4 + k]
        with pytest.raises(EvalError) as exc:
            evaluate(tree, {"X": Xk, "Y": Yk})
        assert exc.value.index == 4 + k and fragment in str(exc.value)
        assert f"at flat index {4 + k}" in str(exc.value)


@pytest.mark.parametrize("text,values,bad", [
    ("exp(x)", [0.0, 709.0, 710.0, -800.0], 2),
    ("sinh(x)", [-711.0, 1.0], 0),
    ("cosh(x)", [1.0, 2.0, 711.0], 2),
    ("x^100", [2.0, -3.0, 1e4], 2),
    ("2^x", [1.0, 1024.5], 1),
])
def test_overflow_raises_at_the_first_cell(text, values, bad):
    tree = parse(text)
    x = np.array(values)
    raised = _assert_array_matches_scalar(tree, {"x": x})
    assert list(np.flatnonzero(raised)) == [bad]
    with pytest.raises(EvalError) as exc:
        evaluate(tree, {"x": x})
    assert exc.value.index == bad
    fine = np.delete(x, bad)
    assert _same_bits(evaluate(tree, {"x": fine}), _scalar_cells(tree, {"x": fine})[0])


def test_large_integer_power_keeps_sign_and_value():
    assert evaluate(parse("x^65"), {"x": -2.0}) == -(2.0 ** 65)
    assert evaluate(parse("x^(-66)"), {"x": -2.0}) == 2.0 ** -66


# ---------------------------------------------------------------------------
# compiled programs against the recursive reference walk

def _outcome(fn):
    """The values fn returns, or the message and index of the EvalError it raises."""
    try:
        return list(fn())
    except EvalError as err:
        return (str(err), err.index)


def _same_outcome(got, want):
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(map(_same_bits, got, want))
    return got == want


def _every_run(program, bindings):
    """The outcome of each call of program until just past the call that
    generates it: the interpreted runs, then two generated ones."""
    outcomes = [_outcome(lambda: program(bindings)) for _ in range(expressions._HOT_RUNS + 1)]
    assert program._run is not None
    return outcomes


def _check_program(trees, bindings):
    want = _outcome(lambda: [reference_evaluate(t, bindings) for t in trees])
    for got in _every_run(compile_trees(trees), bindings):
        assert _same_outcome(got, want), ([to_text(t) for t in trees], got, want)
    return isinstance(got, tuple)


def _cells(rng):
    special = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 40.0, -40.0, 750.0])
    return {v: np.concatenate([rng.uniform(-3, 3, 24), rng.permutation(special)])
            for v in _VARS}


def test_program_matches_reference_walk_random_trees():
    rng = np.random.default_rng(20261019)
    raised = []
    for _ in range(300):
        tree = _random_tree(rng, depth=int(rng.integers(1, 6)))
        cells = _cells(rng)
        raised.append(_check_program((tree,), cells))
        point = {v: float(a[int(rng.integers(len(a)))]) for v, a in cells.items()}
        raised.append(_check_program((tree,), point))
        got = _outcome(lambda: [evaluate(tree, cells)])
        assert _same_outcome(got, _outcome(lambda: [reference_evaluate(tree, cells)]))
    assert min(raised.count(True), raised.count(False)) >= 40  # both outcomes exercised


def test_multi_tree_programs_share_subtrees_and_match_reference_walk():
    rng = np.random.default_rng(7)
    raised = []
    for _ in range(150):
        t, u = (_random_tree(rng, depth=int(rng.integers(1, 5))) for _ in range(2))
        copy = parse(to_text(t))  # equal to t, but a separate object
        trees = (t, BinOp("*", t, u), Call("exp", BinOp("-", copy, t)), Neg(copy), u,
                 BinOp("/", u, BinOp("+", t, Const(1.0))))
        raised.append(_check_program(trees, _cells(rng)))
    assert min(raised.count(True), raised.count(False)) >= 20


def test_program_keeps_zero_constants_of_either_sign_apart():
    x = Var("x")
    pos, neg = BinOp("*", x, Const(0.0)), BinOp("*", x, Const(-0.0))
    trees = (pos, neg, BinOp("*", pos, neg), Call("arctan", Const(-0.0)), Const(0.0))
    for bindings in ({"x": 2.0}, {"x": np.array([2.0, -3.0])}):
        assert not _check_program(trees, bindings)
    for values in _every_run(compile_trees(trees), {"x": 2.0}):
        assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0, -1.0, -1.0, 1.0]


def test_program_raises_the_first_error_of_the_tree_sequence():
    x = Var("x")
    fine, later = parse("x^2+1"), parse("sqrt(x-1)")
    cells = {"x": np.array([3.0, 2.0, 0.5, -1.0])}
    assert _check_program((fine, later), cells)
    with pytest.raises(EvalError) as exc:
        compile_trees((fine, later))(cells)
    assert exc.value.index == 2 and "sqrt" in str(exc.value)
    # an earlier tree's failure wins over a later tree's, even at a later cell
    earlier = BinOp("/", Const(1.0), BinOp("-", x, Const(-1.0)))
    assert _check_program((earlier, later), cells)
    with pytest.raises(EvalError) as exc:
        compile_trees((earlier, later))(cells)
    assert exc.value.index == 3 and "division by zero" in str(exc.value)
    assert _check_program((later, Var("y")), {"x": 2.0})
    assert _check_program((later, Var("y")), {"x": 0.0})


def test_evaluate_compiles_each_tree_once(monkeypatch):
    calls = []

    def counting(trees):
        calls.append(trees)
        return compile_trees(trees)

    monkeypatch.setattr(expressions, "compile_trees", counting)
    tree = parse("sin(x)*x + x^3/(1+y^2)")
    for v in (0.5, 1.5, np.linspace(0.0, 1.0, 5)):
        evaluate(tree, {"x": v, "y": 2.0})
    assert len(calls) == 1 and calls[0] == (tree,)
    folded = subst(tree, {"y": 3.0})  # folding literals compiles nothing
    assert len(calls) == 1 and to_text(folded) == "sin(x)*x+x^3/10"


def test_a_compiled_tree_is_freed_with_its_last_reference():
    tree = parse("sin(x)*x + x^3/(1+y^2)")
    evaluate(tree, {"x": 0.5, "y": 2.0})
    alive = weakref.ref(tree)
    gc.disable()  # freed by reference counting, not left for the cycle collector
    try:
        del tree
        assert alive() is None
    finally:
        gc.enable()


def test_generated_code_is_freed_with_its_tree():
    tree = parse("sin(x)*x + x^3/(1+y^2)")
    for _ in range(expressions._HOT_RUNS):
        evaluate(tree, {"x": 0.5, "y": 2.0})
    alive = weakref.ref(tree._program._run)
    gc.disable()  # the function and its namespace form no cycle
    try:
        del tree
        assert alive() is None
    finally:
        gc.enable()


def test_generated_source_holds_no_tree_text():
    name = 'x"); import os; ("'
    x = Var(name)
    payload_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_1234))[0]
    constants = (Const(-0.0), Const(0.1), Const(payload_nan))
    trees = (BinOp("*", x, constants[0]), BinOp("+", x, constants[1]),
             BinOp("-", constants[2], x), Neg(x), *constants)
    for bindings in ({"y": 1.0}, {"y": np.array([1.0, 2.0])},
                     {name: np.array([2.0, -0.0])}, {name: 2.0}):
        want = _outcome(lambda: [reference_evaluate(t, bindings) for t in trees])
        for got in _every_run(compile_trees(trees), bindings):
            assert _same_outcome(got, want)
    assert _same_bits(got[6], payload_nan) and _same_bits(got[4], -0.0)
    text = expressions._source(compile_trees(trees))[0]
    for fragment in (name, "import", *(repr(c.value) for c in constants)):
        assert fragment not in text


@pytest.mark.parametrize("text,bindings", [
    ("x*x", {"x": np.full(3, 1e200)}),
    ("x/y", {"x": np.array([1.0, 1e300]), "y": np.array([2.0, 1e-300])}),
    ("x^70", {"x": np.array([2.0, 1e10])}),
    ("x*x/y-x^3+1/x^-2", {"x": 1e200, "y": 1e-300}),  # a point, and no ufunc step
])
def test_no_warning_escapes_a_generated_program(text, bindings):
    tree = parse(text)  # -2 parses as one literal, so x^-2 is a product
    program = compile_trees((tree,))
    want = _outcome(lambda: [reference_evaluate(tree, bindings)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got in _every_run(program, bindings):
            assert _same_outcome(got, want)
    assert program._ufuncs == (text == "x^70")


def test_trees_made_for_a_few_runs_generate_nothing(tmp_path, monkeypatch):
    generated = []
    source = expressions._source
    monkeypatch.setattr(expressions, "_source", lambda p: generated.append(p) or source(p))
    config = tmp_path / "lift.json"
    config.write_text(json.dumps({"f": "(1+s^2)^2", "domain": [0.5, 1.5, 0.5, 1.5],
                                  "nx": 33, "ny": 33, "boundary": "X^2-Y*arctan(Y)"}))
    assert cli.main(["lift", "--in", str(config), "--out", str(tmp_path / "o")]) == 0
    khabirov_push(parse("1+s^2"), checks=50)
    subst(parse("sin(x)*x + x^3/(1+y^2)"), {"y": 3.0})
    assert generated == []


# ---------------------------------------------------------------------------
# printing

def test_print_round_trip_corpus():
    corpus = [
        "q^4", "(p^2+q^2)^2", "u*(p^2+q^2)^2", "-x^2", "x^-2", "2^-3",
        "a-b-c", "a/b/c", "x^y^z", "sin(x)*cos(y)", "sqrt(1+s^2)",
        "x*(-y)", "-(x+y)", "(x^2)^3", "1/(x^2+y^2)^2",
    ]
    for text in corpus:
        t1 = parse(text)
        t2 = parse(to_text(t1))
        assert t1 == t2, text


_expr_strategy = st.deferred(lambda: st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const),
    st.sampled_from(["x", "y", "zz", "u_1"]).map(Var),
    st.tuples(st.sampled_from("+-*/^"), _expr_strategy, _expr_strategy)
      .map(lambda t: BinOp(*t)),
    _expr_strategy.map(Neg),
    st.tuples(st.sampled_from(_FUNCS), _expr_strategy).map(lambda t: Call(*t)),
))


@settings(max_examples=200, deadline=None)
@given(_expr_strategy)
def test_print_reparse_is_stable(tree):
    t2 = parse(to_text(tree))
    t3 = parse(to_text(t2))
    assert t2 == t3


def test_subst_folds_literals():
    f = subst(parse("(p^2+q^2)^2"), {"p": Var("s"), "q": 1.0})
    assert to_text(f) == "(s^2+1)^2"


def test_subst_is_simultaneous():
    # replacements are not re-substituted: the s inside 1/s survives
    e = subst(parse("q^4*G"), {"G": parse("1/s"), "s": parse("q/p")})
    assert variables(e) == frozenset({"q", "s"})
    # cascading two substitutions does rewrite it
    e2 = subst(subst(parse("q^4*G"), {"G": parse("1/s")}), {"s": parse("q/p")})
    assert evaluate(e2, {"p": 2.0, "q": 1.0}) == 2.0
