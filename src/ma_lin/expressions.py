"""A small expression language: parsing, printing, evaluation, exact differentiation.

Trees are immutable values.  A tree is evaluated by a straight-line program,
compiled on first use and kept for as long as the tree lives, that computes
each distinct subtree once.  Evaluation, over floats or whole arrays, is plain
IEEE double arithmetic with a fixed left-to-right child order, so the same tree
with the same bindings always produces a bit-identical result.  There is no
simplifier: the only rewriting ever performed is folding of all-literal
subtrees when new nodes are built by `diff` or `subst`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Neg", "BinOp", "Call",
    "Bindings", "ExprError", "ParseError", "EvalError",
    "FUNCTIONS", "Program", "as_expr", "parse", "compile_trees", "evaluate", "diff", "subst",
    "variables", "to_text",
]

Bindings = Mapping[str, Union[float, np.ndarray]]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class EvalError(ExprError):
    index: Optional[int] = None  # first failing flat cell of an array evaluation

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in `{to_text(node)}`")
        self.node = node


class Expr:
    """Base node.  Operator overloads build trees without folding."""

    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return BinOp("/", as_expr(other), self)

    def __pow__(self, other):
        return BinOp("^", self, as_expr(other))

    def __rpow__(self, other):
        return BinOp("^", as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_text(self)

    @cached_property
    def _program(self) -> "Program":
        """This tree compiled once, for as long as the tree lives.  The program
        holds a copy of this node, so the two form no reference cycle."""
        return compile_trees((replace(self),))


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


def as_expr(v: Union[Expr, int, float]) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


# ---------------------------------------------------------------------------
# parsing

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    rf"(?P<ws>\s+)|(?P<num>{_NUM})|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def advance(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            got = repr(val) if kind != "end" else "end of input"
            raise ParseError(off, f"expected {op!r}, found {got}")
        self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                e = BinOp(val, e, self.term())
            else:
                return e

    # term := factor (('*'|'/') factor)*
    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                e = BinOp(val, e, self.factor())
            else:
                return e

    # factor := '-' factor | base ('^' factor)?
    # Unary minus binds looser than '^', so -x^2 parses as -(x^2).
    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        b = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", b, self.factor())
        return b

    # base := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
    def base(self) -> Expr:
        kind, val, off = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(val))
        if kind == "name":
            self.advance()
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise ParseError(off, f"unknown function {val!r}")
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            return Var(val)
        if kind == "op" and val == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        got = repr(val) if kind != "end" else "end of input"
        raise ParseError(off, f"expected a number, identifier or '(', found {got}")


def parse(text: str) -> Expr:
    """Parse a formula into its unique tree under the grammar's precedence."""
    p = _Parser(text)
    e = p.expr()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(off, f"expected end of input, found {val!r}")
    return e


# ---------------------------------------------------------------------------
# evaluation
#
# Scalars stay Python floats through `+ - * /` and integer powers, so a scalar
# evaluation does the same IEEE operations as each cell of an array one.  Calls
# and pow() use numpy ufuncs for both, which run the same loop on one value as
# on many (tests/test_expressions.py checks the bit-for-bit agreement).

FUNCTIONS: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "arctan": np.arctan,
    "abs": np.abs,
}

_OVERFLOWING = frozenset(("exp", "sinh", "cosh"))
_MAX_INT_EXPONENT = 2.0 ** 31
_MAX_PRODUCT_POWER = 64  # larger integer powers go through pow()
_FRACTIONAL_BASE = "power with non-integer exponent requires a positive base, got {!r}"


def _plain(v):
    """Numpy scalars and 0-d arrays become Python floats; arrays pass through."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v
    return float(v)


def _guard(bad, template: str, value, node: Expr, shape: tuple) -> None:
    """Raise EvalError, quoting `value`, at the first cell (row-major) where `bad` holds."""
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    if not shape:
        raise EvalError(template.format(float(value)), node)
    k = int(np.argmax(np.broadcast_to(bad, shape)))
    v = float(np.broadcast_to(value, shape).flat[k])
    err = EvalError(f"{template.format(v)} at flat index {k}", node)
    err.index = k
    raise err


def _call(func: str, v, node: Expr, shape: tuple):
    if func == "sqrt":
        _guard(v < 0.0, "sqrt of negative value {!r}", v, node, shape)
    elif func == "ln":
        _guard(v <= 0.0, "ln of non-positive value {!r}", v, node, shape)
    r = FUNCTIONS[func](v)
    if func in _OVERFLOWING:
        _guard(np.isinf(r) & np.isfinite(v), "overflow", r, node, shape)
    return _plain(r)


def _checked_pow(a, b, node: Expr, shape: tuple):
    r = np.power(a, b)
    _guard(np.isinf(r) & np.isfinite(a) & np.isfinite(b), "overflow in power", r, node, shape)
    return _plain(r)


def _power(a, b, node: Expr, shape: tuple):
    if isinstance(b, np.ndarray):
        return _power_per_cell(a, b, node, shape)
    # Integer exponents use repeated multiplication, so negative bases are fine.
    if math.isfinite(b) and b == math.floor(b) and abs(b) <= _MAX_INT_EXPONENT:
        k = int(abs(b))
        if k <= _MAX_PRODUCT_POWER:
            r = 1.0
            for _ in range(k):
                r = r * a
        else:
            r = _checked_pow(a, float(k), node, shape)
        if b < 0.0:
            _guard(r == 0.0, "zero base with negative exponent", r, node, shape)
            r = 1.0 / r
        return r
    _guard(a <= 0.0, _FRACTIONAL_BASE, a, node, shape)
    return _checked_pow(a, b, node, shape)


def _power_per_cell(a, b: np.ndarray, node: Expr, shape: tuple) -> np.ndarray:
    """`_power` for an exponent that varies by cell, with its rules applied per cell."""
    integral = np.isfinite(b) & (b == np.floor(b)) & (np.abs(b) <= _MAX_INT_EXPONENT)
    _guard(~integral & (a <= 0.0), _FRACTIONAL_BASE, a, node, shape)
    k = np.where(integral, np.abs(b), 0.0)
    r = np.ones(np.broadcast_shapes(np.shape(a), b.shape))
    for m in range(1, int(min(k.max(initial=0.0), _MAX_PRODUCT_POWER)) + 1):
        r = np.where(k >= m, r * a, r)
    by_product = integral & (k <= _MAX_PRODUCT_POWER)
    r = np.where(by_product, r, _checked_pow(
        a, np.where(by_product, 0.0, np.where(integral, k, b)), node, shape))
    negative = integral & (b < 0.0)
    _guard(negative & (r == 0.0), "zero base with negative exponent", r, node, shape)
    return np.where(negative, 1.0 / r, r)


class Program(NamedTuple):
    """Straight-line code for a sequence of trees; call it with bindings."""

    registers: list  # constants in place, None where a step writes
    steps: list  # ((op, a, b), out, node, registers released after the step)
    outputs: tuple  # the register of each tree

    def __call__(self, bindings: Bindings) -> list:
        """The value of each tree, as `evaluate` would give it."""
        env = {name: np.asarray(v, dtype=np.float64) if isinstance(v, np.ndarray) and v.ndim
               else float(v) for name, v in bindings.items()}
        shapes = [v.shape for v in env.values() if isinstance(v, np.ndarray)]
        shape = np.broadcast_shapes(*shapes) if shapes else ()
        regs = self.registers.copy()
        with np.errstate(all="ignore"):
            for (op, a, b), out, node, free in self.steps:
                if b is None:
                    if a is None:  # the variable named op
                        if op not in env:
                            _guard(True, f"unbound variable {op!r}", 0.0, node, shape)
                        regs[out] = env[op]
                    elif op == "-":
                        regs[out] = -regs[a]
                    else:
                        regs[out] = _call(op, regs[a], node, shape)
                elif op == "*":
                    regs[out] = regs[a] * regs[b]
                elif op == "+":
                    regs[out] = regs[a] + regs[b]
                elif op == "-":
                    regs[out] = regs[a] - regs[b]
                elif op == "/":
                    y = regs[b]
                    _guard(y == 0.0, "division by zero", y, node, shape)
                    regs[out] = regs[a] / y
                elif op == "^":
                    regs[out] = _power(regs[a], regs[b], node, shape)
                else:
                    raise EvalError(f"unknown operator {op!r}", node)
                for k in free:
                    regs[k] = None
        if not shape:
            return [float(regs[k]) for k in self.outputs]
        return [np.array(np.broadcast_to(regs[k], shape), dtype=np.float64)
                for k in self.outputs]


def compile_trees(trees) -> Program:
    """One program for the trees, in one walk of them: each distinct subtree,
    keyed by shape and constant bits, is one step.  Steps run children before
    parents and left before right, so the results and the first EvalError are
    those of evaluating the trees one by one; a register is released after
    its last read."""
    regs, steps, keyed, last = [], [], {}, {}  # last: register -> step of its last read

    def reg(e: Expr) -> int:
        t = type(e)
        if t is BinOp:
            key = (e.op, reg(e.left), reg(e.right))
        elif t is Const:
            key = (float(e.value).hex(),)
        elif t is Var:
            key = (e.name, None, None)
        elif t is Neg:
            key = ("-", reg(e.arg), None)
        elif t is Call:
            key = (e.func, reg(e.arg), None)
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        r = keyed.setdefault(key, len(regs))
        if r == len(regs):
            regs.append(e.value if t is Const else None)
            if t is not Const:
                last[key[1]] = last[key[2]] = len(steps)
                steps.append((key, r, e, []))
        return r

    outputs = tuple(reg(t) for t in trees)
    last.pop(None, None)
    for k, s in last.items():
        if k not in outputs:
            steps[s][3].append(k)
    return Program(regs, steps, outputs)


def evaluate(e: Expr, bindings: Bindings):
    """Evaluate a tree at the given variable bindings.

    Bindings are floats or ndarrays that broadcast together.  With scalar
    bindings the result is a Python float; otherwise it is a new array of the
    bindings' broadcast shape, and each cell equals the scalar evaluation at
    that cell's bindings bit for bit.  Unbound variables and domain violations
    (sqrt of a negative, ln of a non-positive, division by zero, overflow)
    raise EvalError naming the offending subtree and, for arrays, the first
    offending cell as a flat row-major index into the broadcast shape.
    """
    return e._program(bindings)[0]


def variables(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, Call):
        return variables(e.arg)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# construction helpers that fold all-literal subtrees (and nothing else)

def _folded(node: Expr, op: tuple, *values: float) -> Expr:
    """Const of node's one operation `op` on the literals, by a one-step program."""
    out = len(values)
    try:
        return Const(Program([*values, None], [(op, out, node, ())], (out,))({})[0])
    except EvalError:
        return node


def _fold2(op: str, a: Expr, b: Expr) -> Expr:
    node = BinOp(op, a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded(node, (op, 0, 1), a.value, b.value)
    return node


def _fold_call(func: str, a: Expr) -> Expr:
    node = Call(func, a)
    if isinstance(a, Const):
        return _folded(node, (func, 0, None), a.value)
    return node


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def _add(a, b):
    return _fold2("+", a, b)


def _sub(a, b):
    return _fold2("-", a, b)


def _mul(a, b):
    return _fold2("*", a, b)


def _div(a, b):
    return _fold2("/", a, b)


def _pow(a, b):
    return _fold2("^", a, b)


# ---------------------------------------------------------------------------
# differentiation

_DERIVATIVES: dict[str, Callable[[Expr, Expr], Expr]] = {
    "sqrt": lambda a, da: _div(da, _mul(Const(2.0), Call("sqrt", a))),
    "exp": lambda a, da: _mul(Call("exp", a), da),
    "ln": lambda a, da: _div(da, a),
    "sin": lambda a, da: _mul(Call("cos", a), da),
    "cos": lambda a, da: _neg(_mul(Call("sin", a), da)),
    "sinh": lambda a, da: _mul(Call("cosh", a), da),
    "cosh": lambda a, da: _mul(Call("sinh", a), da),
    "arctan": lambda a, da: _div(da, _add(Const(1.0), _mul(a, a))),
    # d|f| = (f/|f|) f'; evaluating at f = 0 reports the kink as a domain error
    "abs": lambda a, da: _mul(_div(a, Call("abs", a)), da),
}


def diff(e: Expr, name: str) -> Expr:
    """Exact derivative tree with respect to `name`.

    Subtrees free of the variable differentiate to the zero constant, so the
    result only ever mentions variables that appear in `e`.
    """
    if name not in variables(e):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return _neg(diff(e.arg, name))
    if isinstance(e, BinOp):
        l, r = e.left, e.right
        if e.op == "+":
            return _add(diff(l, name), diff(r, name))
        if e.op == "-":
            return _sub(diff(l, name), diff(r, name))
        if e.op == "*":
            return _add(_mul(diff(l, name), r), _mul(l, diff(r, name)))
        if e.op == "/":
            num = _sub(_mul(diff(l, name), r), _mul(l, diff(r, name)))
            return _div(num, _mul(r, r))
        if e.op == "^":
            if name not in variables(r):
                # power rule with a var-free exponent
                em1 = _sub(r, Const(1.0))
                return _mul(_mul(r, _pow(l, em1)), diff(l, name))
            if name not in variables(l):
                # pure exponential a^g
                return _mul(_mul(BinOp("^", l, r), Call("ln", l)), diff(r, name))
            inner = _add(_mul(diff(r, name), Call("ln", l)),
                         _div(_mul(r, diff(l, name)), l))
            return _mul(BinOp("^", l, r), inner)
        raise ExprError(f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        return _DERIVATIVES[e.func](e.arg, diff(e.arg, name))
    raise TypeError(f"not an Expr node: {e!r}")


def subst(e: Expr, mapping: Mapping[str, Union[Expr, int, float]]) -> Expr:
    """Replace variables by expressions or constants, folding literal subtrees."""
    repl = {k: as_expr(v) for k, v in mapping.items()}

    def go(t: Expr) -> Expr:
        if isinstance(t, Var):
            return repl.get(t.name, t)
        if isinstance(t, Const):
            return t
        if isinstance(t, Neg):
            return _neg(go(t.arg))
        if isinstance(t, BinOp):
            return _fold2(t.op, go(t.left), go(t.right))
        if isinstance(t, Call):
            return _fold_call(t.func, go(t.arg))
        raise TypeError(f"not an Expr node: {t!r}")

    return go(e)


# ---------------------------------------------------------------------------
# printing

# Levels mirror the grammar: 1 expr (+,-), 2 term (*,/), 3 factor (unary -),
# 4 power, 5 base.  A child is parenthesized when its level is below the
# minimum its slot requires, which makes parse(to_text(parse(s))) == parse(s).

def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        neg = e.value < 0 or (e.value == 0.0 and math.copysign(1.0, e.value) < 0)
        return 3 if neg else 5
    if isinstance(e, (Var, Call)):
        return 5
    if isinstance(e, Neg):
        return 3
    if isinstance(e, BinOp):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[e.op]
    raise TypeError(f"not an Expr node: {e!r}")


def _fmt_magnitude(v: float) -> str:
    if math.isfinite(v) and v == math.floor(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def _wrap(e: Expr, min_prec: int) -> str:
    s = to_text(e)
    return f"({s})" if _prec(e) < min_prec else s


def to_text(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        if v < 0 or (v == 0.0 and math.copysign(1.0, v) < 0):
            return "-" + _fmt_magnitude(-v)
        return _fmt_magnitude(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, 3)
    if isinstance(e, BinOp):
        l, r = e.left, e.right
        if e.op in "+-":
            return f"{_wrap(l, 1)}{e.op}{_wrap(r, 2)}"
        if e.op in "*/":
            return f"{_wrap(l, 2)}{e.op}{_wrap(r, 3)}"
        if e.op == "^":
            return f"{_wrap(l, 5)}^{_wrap(r, 3)}"
    raise TypeError(f"not an Expr node: {e!r}")
