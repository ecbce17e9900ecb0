"""A small expression language: parsing, printing, evaluation, exact differentiation.

Trees are immutable values.  A tree is evaluated by a straight-line program,
compiled on first use and kept for as long as the tree lives, that computes
each distinct subtree once by generated Python code, compiled once per
program layout and shared by the programs of that layout.  Evaluation, over floats
or whole arrays, is plain IEEE double arithmetic with a fixed left-to-right
child order, so the same tree with the same bindings always produces a
bit-identical result.  There is no simplifier: the only rewriting ever
performed is folding of all-literal subtrees when new nodes are built by
`diff` or `subst`.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Neg", "BinOp", "Call",
    "Bindings", "Rejection", "ExprError", "ParseError", "EvalError",
    "FUNCTIONS", "Program", "as_expr", "parse", "compile_trees", "evaluate", "diff", "subst",
    "variables", "to_text",
]

Bindings = Mapping[str, Union[float, np.ndarray]]


class Rejection(Exception):
    """Base class of the mathematical rejections: an input the package reads
    but whose mathematics it refuses, such as an equation outside the class or
    a coefficient that is not positive.  `ma-lin` exits 2 on any of them."""


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


class _Value:
    """An immutable value.  Its fields are the names its class and their
    bases annotate, in order; it equals a value of the same class with equal
    fields, hashes as their tuple, prints as `Name(field=value, ...)` and
    gives them by name from `to_dict`.
    Assignment and deletion raise AttributeError.  `__init__` binds the
    fields in order, by position or by name, a field not given taking its
    class attribute as default; no code is generated.  Classes that check or
    convert their inputs keep their own `__init__`, and so do the hot records
    (`JetArrays`, `ContactImage`, the `Expr` nodes): a closed-form operation
    builds about a thousand, and a hand-written positional `__init__` takes
    less than half the time of this binding."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__} takes {len(fields)} fields, got {len(args)}")
        for name in kwargs:
            if name not in fields[len(args):]:
                raise TypeError(f"{cls.__qualname__} got field {name!r} twice" if name in fields
                                else f"{cls.__qualname__} has no field {name!r}")
        kwargs.update(zip(fields, args))
        d = vars(self)
        for name in fields:
            try:
                d[name] = kwargs[name] if name in kwargs else getattr(cls, name)
            except AttributeError:
                raise TypeError(f"{cls.__qualname__} is missing field {name!r}") from None

    def _key(self) -> tuple:
        d = vars(self)
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_dict(self) -> dict:
        """The fields by name; json writes a tuple field as a list."""
        return dict(zip(self._fields, self._key()))

    def __repr__(self):
        d = vars(self)
        fields = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Expr(_Value):
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
        return compile_trees((self._copy(),))

    def _copy(self) -> "Expr":
        """A new node with this node's fields and none of its programs."""
        return type(self)(*self._key())


class Const(Expr):
    value: float

    def __init__(self, value):
        vars(self).update(value=value)


class Var(Expr):
    name: str

    def __init__(self, name):
        vars(self).update(name=name)


class Neg(Expr):
    arg: Expr

    def __init__(self, arg):
        vars(self).update(arg=arg)


class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def __init__(self, op, left, right):
        vars(self).update(op=op, left=left, right=right)


class Call(Expr):
    func: str
    arg: Expr

    def __init__(self, func, arg):
        vars(self).update(func=func, arg=arg)


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


# The grammar's binary operators, which `parse` and `to_text` both read:
# op -> (its level, the least level of its left operand, of its right one).
# A unary minus and a negative literal are level 3; a number, name, call or
# parenthesis is level 5.  So + - * / are left-associative, ^ is
# right-associative and binds tighter than a unary minus (-x^2 is -(x^2)),
# and a minus may open any right operand (x^-2, a*-b).
_BINARY = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3), "^": (4, 5, 3)}
_UNARY, _ATOM = 3, 5


def _negative(v: float) -> bool:
    """Whether a literal's text starts with a minus: below zero, or -0.0."""
    return v < 0 or (v == 0.0 and math.copysign(1.0, v) < 0)


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

    # expr(least) := ('-' expr(3) | base) (op expr(right of op))*, taking each
    # op of level >= least whose left operand the expression so far may be.
    # Minus a bare number is a negative constant, so x^-2 has a literal
    # exponent; a second minus stays a Neg, so --2 still prints as it reads.
    def expr(self, least: int = 1) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            arg = self.expr(_UNARY)
            e = Const(-arg.value) if type(arg) is Const and not _negative(arg.value) else Neg(arg)
            level = _UNARY
        else:
            e, level = self.base(), _ATOM
        while True:
            val = self.peek()[1]  # only an op token's text can be an operator
            op_level, left, right = _BINARY.get(val, (0, 0, 0))  # level 0: none
            if op_level < least or level < left:
                return e
            self.advance()
            e, level = BinOp(val, e, self.expr(right)), op_level

    # base := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
    def base(self) -> Expr:
        kind, val, off = self.peek()
        if kind == "num":
            self.advance()
            v = float(val)
            if math.isinf(v):
                raise ParseError(off, f"number {val} overflows a double")
            return Const(v)
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
_QUIET = frozenset(("sqrt", "ln", "arctan", "abs"))  # past the guard, no FP flag on a float
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
    """a^b, with the rules applied per cell when the exponent varies.  An
    integral exponent multiplies, by repeated products up to
    _MAX_PRODUCT_POWER, so negative bases are fine; any other needs a positive base."""
    integral = np.isfinite(b) & (b == np.floor(b)) & (np.abs(b) <= _MAX_INT_EXPONENT)
    _guard(~integral & (a <= 0.0), _FRACTIONAL_BASE, a, node, shape)
    k = np.where(integral, np.abs(b), 0.0)
    r = np.ones(np.broadcast_shapes(np.shape(a), np.shape(b)))
    for m in range(1, int(min(k.max(initial=0.0), _MAX_PRODUCT_POWER)) + 1):
        r = np.where(k >= m, r * a, r)
    by_product = integral & (k <= _MAX_PRODUCT_POWER)
    r = np.where(by_product, r, _checked_pow(
        a, np.where(by_product, 0.0, np.where(integral, k, b)), node, shape))
    negative = integral & (b < 0.0)
    _guard(negative & (r == 0.0), "zero base with negative exponent", r, node, shape)
    return _plain(np.where(negative, 1.0 / r, r))


def _variable(env: dict, name: str, node: Expr, shape: tuple):
    if name not in env:
        _guard(True, f"unbound variable {name!r}", 0.0, node, shape)
    return env[name]


class Program:
    """Straight-line code for a sequence of trees; call it with bindings.

    A program runs as one generated Python function that does its steps, one
    statement each, in their order.  That code is compiled once per `layout`,
    all that it depends on, and shared by every program of the layout; each
    program binds its own constants, nodes and names to it.  The layout is
    the register of each tree, then for each register in order None where it
    holds a constant, or the key of the step that writes it: its operation and
    operand registers and, for a power, the literal exponent that `_power`
    takes by products (else None)."""

    __slots__ = ("layout", "_run", "_ufuncs")

    def __init__(self, nodes: list, layout: tuple):
        """A program of `layout` whose registers hold `nodes`, one node each."""
        self.layout = layout
        make, self._ufuncs = _maker(layout)  # _ufuncs: whether a scalar run may set an FP flag
        self._run = make(nodes)

    def __call__(self, bindings: Bindings) -> list:
        """The value of each tree, as `evaluate` would give it.  An array run
        returns a step's result as it is if it is a float64 ndarray of the
        broadcast shape, not a binding and not an output already returned,
        and a float64 copy of that shape of any other value (a constant, a
        bare variable, a repeated register, a smaller shape)."""
        env, shape = {}, ()
        for name, v in bindings.items():
            if isinstance(v, np.ndarray) and v.ndim:
                v = np.asarray(v, dtype=np.float64)
                if v.shape != shape:
                    shape = np.broadcast_shapes(shape, v.shape) if shape else v.shape
            elif type(v) is not float:
                v = float(v)
            env[name] = v
        # numpy warns on overflow in * and /; Python floats only in some ufuncs
        if shape or self._ufuncs:
            with np.errstate(all="ignore"):
                values = self._run(env, shape)
        else:
            values = self._run(env, shape)
        if not shape:
            return list(map(float, values))
        owned = {id(v) for v in env.values()}
        for k, v in enumerate(values):
            if type(v) is not np.ndarray or v.dtype != np.float64 or v.shape != shape \
                    or id(v) in owned:
                v = values[k] = np.array(np.broadcast_to(v, shape), dtype=np.float64)
            owned.add(id(v))
        return values


def _product_exponent(e: Expr):
    """The value of e where `_power` raises to it by repeated multiplication, else None."""
    v = e.value if type(e) is Const else None
    return v if type(v) is float and v.is_integer() and abs(v) <= _MAX_PRODUCT_POWER else None


@lru_cache(maxsize=256)
def _maker(layout: tuple) -> tuple[Callable, bool]:
    """`make(nodes) -> run` for the programs of one layout, compiled once, and
    whether a scalar run may set a floating-point flag."""
    text, ufuncs = _source(layout)
    namespace = {"_call": _call, "_power": _power, "_guard": _guard, "_variable": _variable,
                 "EvalError": EvalError}
    exec(compile(text, "<expression program>", "exec"), namespace)
    return namespace.pop("make"), ufuncs  # no function <-> namespace cycle


def _source(layout: tuple) -> tuple[str, bool]:
    """The source of `make(nodes)` for a layout, and whether a step may set
    an FP flag.  `make` reads one program's nodes, constants and names into
    closure cells (`n`, `c` and `v`, each with a register number) and returns
    `run(env, shape)`, which does the steps, one statement each, and releases
    each register after its last read.  No constant, node or name reaches the
    source, so every constant keeps its bits and no tree's text is compiled."""
    outputs, *keys = layout
    last = {}  # register -> the step register of its last read
    for out, key in enumerate(keys):
        if key is not None:
            last[key[1]] = last[key[2]] = out
    dead = {}
    for k, out in last.items():
        if k is not None and keys[k] is not None and k not in outputs:
            dead.setdefault(out, []).append(f"r{k}")
    head, lines, cells, ufuncs = [], [], set(), False  # cells: the names make binds

    def ref(k: int) -> str:
        if keys[k] is not None:
            return f"r{k}"
        if f"c{k}" not in cells:
            cells.update((f"c{k}", f"n{k}"))
            head.append(f"c{k} = n{k}.value")
        return f"c{k}"

    for out, key in enumerate(keys):
        if key is None:
            continue
        (op, a, b), r, n, v = key[:3], f"r{out}", f"n{out}", f"v{out}"
        if b is None:
            if a is None:  # the variable named op
                cells.update((n, v))
                head.append(f"{v} = {n}.name")
                lines.append(f"{r} = _variable(env, {v}, {n}, shape)")
            elif op == "-":
                lines.append(f"{r} = -{ref(a)}")
            else:
                cells.update((n, v))
                head.append(f"{v} = {n}.func")
                lines.append(f"{r} = _call({v}, {ref(a)}, {n}, shape)")
                ufuncs = ufuncs or op not in _QUIET
        elif op in ("*", "+", "-"):
            lines.append(f"{r} = {ref(a)} {op} {ref(b)}")
        elif op == "/":
            cells.add(n)
            y = ref(b)
            lines += [f"_guard({y} == 0.0, 'division by zero', {y}, {n}, shape)",
                      f"{r} = {ref(a)} / {y}"]
        elif op == "^" and key[3] is not None:
            x, k = ref(a), int(abs(key[3]))  # `_power`'s products, one statement each
            lines += [f"{r} = 1.0 * {x}" if k else f"{r} = 1.0"]
            lines += [f"{r} = {r} * {x}"] * (k - 1)
            if key[3] < 0.0:
                cells.add(n)
                lines += [f"_guard({r} == 0.0, 'zero base with negative exponent', "
                          f"{r}, {n}, shape)", f"{r} = 1.0 / {r}"]
        elif op == "^":
            cells.add(n)
            lines.append(f"{r} = _power({ref(a)}, {ref(b)}, {n}, shape)")
            ufuncs = True
        else:
            cells.add(n)
            lines.append(f"raise EvalError(f'unknown operator {{{n}.op!r}}', {n})")
        if out in dead:
            lines.append(f"del {', '.join(dead[out])}")
    lines.append(f"return [{', '.join(map(ref, outputs))}]")
    unpack = ", ".join(f"n{k}" if f"n{k}" in cells else "_" for k in range(len(keys)))
    return (f"def make(nodes):\n    [{unpack}] = nodes\n" + "".join(f"    {s}\n" for s in head)
            + "    def run(env, shape):\n" + "".join(f"        {s}\n" for s in lines)
            + "    return run\n"), ufuncs


def compile_trees(trees) -> Program:
    """One program for the trees, in one walk of them: each distinct subtree,
    keyed by shape and constant bits, is one register.  Steps run children
    before parents and left before right, so the results and the first
    EvalError are those of evaluating the trees one by one.  A node object
    the trees share is walked once (by id, while `trees` holds it alive)."""
    trees = tuple(trees)
    nodes, keyed, layout, seen = [], {}, [], {}

    def sub(e: Expr) -> int:
        r = seen.get(id(e))
        return reg(e) if r is None else r

    def reg(e: Expr) -> int:
        t = type(e)
        if t is BinOp:
            key = (e.op, sub(e.left), sub(e.right))
            if e.op == "^":
                key += (_product_exponent(nodes[key[2]]),)
        elif t is Const:
            key = (float(e.value).hex(),)
        elif t is Var:
            key = (e.name, None, None)
        elif t is Neg:
            key = ("-", sub(e.arg), None)
        elif t is Call:
            key = (e.func, sub(e.arg), None)
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        r = seen[id(e)] = keyed.setdefault(key, len(nodes))
        if r == len(nodes):
            nodes.append(e)
            layout.append(None if t is Const else key)
        return r

    outputs = tuple(sub(t) for t in trees)
    return Program(nodes, (outputs, *layout))


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
# differentiation and substitution, whose new nodes fold all-literal subtrees

def _fold(op: str, *args: Expr) -> Expr:
    """The BinOp `op` of two operands, or the Neg (op "-") or Call of one.
    Where every operand is a literal it is the Const of the node's value, by
    the node's one-step program, unless that fails or is not finite, as a
    non-finite Const would print as a name."""
    if len(args) == 2:
        node = BinOp(op, *args)
        key = (op, 0, 1, _product_exponent(args[1])) if op == "^" else (op, 0, 1)
    else:
        node, key = Neg(*args) if op == "-" else Call(op, *args), (op, 0, None)
    for a in args:
        if type(a) is not Const:
            return node
    try:
        v = Program([*args, node], ((len(args),), *[None] * len(args), key))({})[0]
    except EvalError:
        return node
    return Const(v) if math.isfinite(v) else node


_DERIVATIVES: dict[str, Callable[[Expr, Expr], Expr]] = {
    "sqrt": lambda a, da: _fold("/", da, _fold("*", Const(2.0), _fold("sqrt", a))),
    "exp": lambda a, da: _fold("*", _fold("exp", a), da),
    "ln": lambda a, da: _fold("/", da, a),
    "sin": lambda a, da: _fold("*", _fold("cos", a), da),
    "cos": lambda a, da: _fold("-", _fold("*", _fold("sin", a), da)),
    "sinh": lambda a, da: _fold("*", _fold("cosh", a), da),
    "cosh": lambda a, da: _fold("*", _fold("sinh", a), da),
    "arctan": lambda a, da: _fold("/", da, _fold("+", Const(1.0), _fold("*", a, a))),
    # d|f| = (f/|f|) f'; evaluating at f = 0 reports the kink as a domain error
    "abs": lambda a, da: _fold("*", _fold("/", a, _fold("abs", a)), da),
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
        return _fold("-", diff(e.arg, name))
    if isinstance(e, BinOp):
        l, r, op = e.left, e.right, e.op
        if op in ("+", "-"):
            return _fold(op, diff(l, name), diff(r, name))
        if op == "*":
            return _fold("+", _fold("*", diff(l, name), r), _fold("*", l, diff(r, name)))
        if op == "/":
            num = _fold("-", _fold("*", diff(l, name), r), _fold("*", l, diff(r, name)))
            return _fold("/", num, _fold("*", r, r))
        if op == "^":
            if name not in variables(r):  # power rule with a var-free exponent
                return _fold("*", _fold("*", r, _fold("^", l, _fold("-", r, Const(1.0)))),
                             diff(l, name))
            # a^g: ln(a) stays a call where a is a literal, so 2^x gives 2^x*ln(2)*1
            ln_l = Call("ln", l)
            if name not in variables(l):
                return _fold("*", _fold("*", e, ln_l), diff(r, name))
            return _fold("*", e, _fold("+", _fold("*", diff(r, name), ln_l),
                                       _fold("/", _fold("*", r, diff(l, name)), l)))
        raise ExprError(f"unknown operator {op!r}")
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
            return _fold("-", go(t.arg))
        if isinstance(t, BinOp):
            return _fold(t.op, go(t.left), go(t.right))
        if isinstance(t, Call):
            return _fold(t.func, go(t.arg))
        raise TypeError(f"not an Expr node: {t!r}")

    return go(e)


# ---------------------------------------------------------------------------
# printing

def _fmt_magnitude(v: float) -> str:
    if math.isfinite(v) and v == math.floor(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def _text(e: Expr) -> tuple[str, int]:
    """The text of e with the fewest parentheses, and its level in the grammar."""
    t = type(e)
    if t is Const:
        v = e.value
        return ("-" + _fmt_magnitude(-v), _UNARY) if _negative(v) else (_fmt_magnitude(v), _ATOM)
    if t is Var:
        return e.name, _ATOM
    if t is Call:
        return f"{e.func}({_text(e.arg)[0]})", _ATOM
    if t is Neg:
        return "-" + _operand(e.arg, _UNARY), _UNARY
    if t is BinOp and e.op in _BINARY:
        level, left, right = _BINARY[e.op]
        return _operand(e.left, left) + e.op + _operand(e.right, right), level
    raise TypeError(f"not an Expr node: {e!r}")


def _operand(e: Expr, least: int) -> str:
    """The text of e, parenthesized where its level is below `least`."""
    s, level = _text(e)
    return s if level >= least else f"({s})"


def to_text(e: Expr) -> str:
    """The text that `parse` reads back into e."""
    return _text(e)[0]
