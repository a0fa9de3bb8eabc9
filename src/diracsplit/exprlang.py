"""Small arithmetic expression language for user-defined potentials.

Grammar (tightest first): ``^`` (right associative), unary minus,
``* /``, ``+ -``; variables ``t x y z``; functions sin cos tan tanh exp
sqrt.  Expressions parse to an immutable tree that can be
differentiated symbolically and printed back to a string that
re-parses to the identical tree.  ``compile_expr`` turns a tree once
into a flat numpy function of t, x, y, z (repeated subtrees computed
once, every operation the tree's own), which evaluates on scalars or
numpy arrays; ``evaluate`` compiles and calls in one go.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

VARIABLES = ("t", "x", "y", "z")
FUNCTIONS = ("sin", "cos", "tan", "tanh", "exp", "sqrt")


class ExprSyntaxError(ValueError):
    """Raised on malformed input; carries the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ValueError):
    """Raised when evaluation produces a non-finite value."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call

_ZERO = Num(0.0)
_ONE = Num(1.0)


# --- parsing ---------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self):
        node = self.sum()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return node

    def sum(self):
        node = self.product()
        while True:
            ch = self.peek()
            if ch and ch in "+-":
                self.pos += 1
                node = BinOp(ch, node, self.product())
            else:
                return node

    def product(self):
        node = self.unary()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                self.pos += 1
                node = BinOp(ch, node, self.unary())
            else:
                return node

    def unary(self):
        if self.take("-"):
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            # exponent admits a leading unary minus: x^-2 == x^(-2)
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.sum()
            if not self.take(")"):
                self.error("expected ')'")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.name()
        self.error("expected a number, name or '('" if ch else "unexpected end of input")

    def number(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # bare 'e' is not an exponent
        try:
            value = float(text[start:self.pos])
        except ValueError:
            self.pos = start
            self.error(f"bad number literal {text[start:self.pos + 1]!r}")
        return Num(value)

    def name(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isalnum():
            self.pos += 1
        word = text[start:self.pos]
        if word in FUNCTIONS:
            if not self.take("("):
                self.pos = start
                self.error(f"function {word!r} needs parenthesized argument")
            arg = self.sum()
            if not self.take(")"):
                self.error("expected ')'")
            return Call(word, arg)
        if word in VARIABLES:
            return Var(word)
        self.pos = start
        self.error(f"unknown name {word!r}")


def parse(text):
    """Parse a string to an Expr; raises ExprSyntaxError with byte offset."""
    return _Parser(text).parse()


# --- compilation -----------------------------------------------------------

_OP_TEMPLATES = {"+": "({} + {})", "-": "({} - {})", "*": "({} * {})",
                 "/": "_np.divide({}, {})", "^": "_np.power({}, {})"}


def compile_expr(expr):
    """Compile a tree once into a function ``f(t=None, x=None, y=None, z=None)``.

    The tree becomes the source of one Python function.  A subtree that
    occurs more than once is computed once into a local; every other
    subtree is inlined, so its temporary is freed as soon as it is used.
    Each node keeps its numpy operation (``+ - *``, ``np.divide``,
    ``np.power``, the numpy functions of the same names), so values are
    the same bits as evaluating the tree node by node.  Constants are
    bound by name, never printed into the source, and a node the parser
    cannot produce raises ValueError.  ``f`` raises ExprEvalError when a
    variable the tree reads is not passed or the result has a non-finite
    value.
    """
    env = {"_np": np, "ExprEvalError": ExprEvalError}
    consts, index = {}, {}   # index: (template, child ids) -> node id

    def intern(node):
        if isinstance(node, Num) and isinstance(node.value, (int, float)):
            # keyed by repr so that 0.0 and -0.0 stay two constants
            key, kids = consts.setdefault((type(node.value), repr(node.value)),
                                          f"_c{len(consts)}"), ()
            env[key] = node.value
        elif isinstance(node, Var) and node.name in VARIABLES:
            key, kids = node.name, ()
        elif isinstance(node, Neg):
            key, kids = "(-{})", (node.arg,)
        elif isinstance(node, Call) and node.fn in FUNCTIONS:
            key, kids = f"_np.{node.fn}({{}})", (node.arg,)
        elif isinstance(node, BinOp) and node.op in _OP_TEMPLATES:
            key, kids = _OP_TEMPLATES[node.op], (node.left, node.right)
        else:
            raise ValueError(f"not an expression node: {node!r}")
        return index.setdefault((key, tuple(map(intern, kids))), len(index))

    intern(expr)
    uses = Counter(k for _, kids in index for k in kids)
    body, texts = [], []
    for i, (template, kids) in enumerate(index):  # children come first
        text = template.format(*(texts[k] for k in kids))
        # Python's parser caps nesting at 200 parentheses
        if kids and (uses[i] > 1 or text.count("(") > 100):
            body.append(f"        _v{i} = {text}")
            text = f"_v{i}"
        texts.append(text)
    source = "\n".join(
        ["def _f(t=None, x=None, y=None, z=None):"]
        + [f"    if {n} is None: raise ExprEvalError(\"variable '{n}' not bound\")"
           for n in VARIABLES if (n, ()) in index]
        + ["    with _np.errstate(all='ignore'):", *body,
           f"        _out = {texts[-1]}",
           "    if not _np.isfinite(_out).all():",
           "        raise ExprEvalError('expression produced a non-finite value')",
           "    return _out"])
    exec(compile(source, "<exprlang>", "exec"), env)
    return env["_f"]


def evaluate(expr, env):
    """Evaluate with variables bound to scalars or numpy arrays.

    Compiles the tree and calls it once; any non-finite value in the
    result (division by zero, domain faults) raises ExprEvalError.
    """
    return compile_expr(expr)(*(env.get(name) for name in VARIABLES))


def free_variables(expr):
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return free_variables(expr.arg)
    if isinstance(expr, Call):
        return free_variables(expr.arg)
    if isinstance(expr, BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    return set()


# --- differentiation -------------------------------------------------------

def _const(node):
    """Literal value of a constant node, folding Neg(Num); else None."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _const(node.arg)
        return None if inner is None else -inner
    return None


def _fold(node):
    """Value of a node that reads no variable, such as 1/2; else None."""
    const = _const(node)
    return const if const is not None or free_variables(node) else float(evaluate(node, {}))


def _num(value):
    return Neg(Num(-value)) if value < 0 else Num(value)


def _add(a, b):
    if _const(a) == 0.0:
        return b
    if _const(b) == 0.0:
        return a
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _num(ca + cb)
    return BinOp("+", a, b)


def _sub(a, b):
    if _const(b) == 0.0:
        return a
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _num(ca - cb)
    if ca == 0.0:
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    ca, cb = _const(a), _const(b)
    if ca == 0.0 or cb == 0.0:
        return _ZERO
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    if ca is not None and cb is not None:
        return _num(ca * cb)
    return BinOp("*", a, b)


def _div(a, b):
    if _const(a) == 0.0:
        return _ZERO
    if _const(b) == 1.0:
        return a
    return BinOp("/", a, b)


def _pow(a, b):
    cb = _const(b)
    if cb == 0.0:
        return _ONE
    if cb == 1.0:
        return a
    return BinOp("^", a, b)


def differentiate(expr, var):
    """Symbolic d(expr)/d(var); folds constant subtrees, nothing more."""
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    if isinstance(expr, Num):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.name == var else _ZERO
    if isinstance(expr, Neg):
        inner = differentiate(expr.arg, var)
        return _ZERO if _const(inner) == 0.0 else Neg(inner)
    if isinstance(expr, Call):
        du = differentiate(expr.arg, var)
        if _const(du) == 0.0:
            return _ZERO
        u = expr.arg
        if expr.fn == "sin":
            outer = Call("cos", u)
        elif expr.fn == "cos":
            outer = Neg(Call("sin", u))
        elif expr.fn == "tan":
            outer = _div(_ONE, _pow(Call("cos", u), Num(2.0)))
        elif expr.fn == "tanh":
            outer = _sub(_ONE, _pow(Call("tanh", u), Num(2.0)))
        elif expr.fn == "exp":
            outer = Call("exp", u)
        else:  # sqrt
            outer = _div(_ONE, _mul(Num(2.0), Call("sqrt", u)))
        return _mul(outer, du)
    # BinOp
    da = differentiate(expr.left, var)
    db = differentiate(expr.right, var)
    a, b = expr.left, expr.right
    if expr.op == "+":
        return _add(da, db)
    if expr.op == "-":
        return _sub(da, db)
    if expr.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if expr.op == "/":
        return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, Num(2.0)))
    # power: a variable-free exponent uses the monomial rule, else exp/log form
    cb = _fold(b)
    if cb is not None:
        return _mul(_mul(_num(cb), _pow(a, _num(cb - 1.0))), da)
    ca = _fold(a)
    if ca is not None and ca > 0:
        # c^v with constant c > 0: c^v * ln(c) * v'
        return _mul(_mul(expr, _num(float(np.log(ca)))), db)
    # u^v = exp(v ln u) and c^v with c <= 0: no ln in the grammar
    raise ValueError("cannot differentiate a power whose exponent reads a "
                     "variable unless its base is a positive constant")


# --- printing --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    if isinstance(node, Num) and node.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def _wrap(node, limit):
    text = to_string(node)
    return f"({text})" if _prec(node) < limit else text


def to_string(expr):
    """Render so that parse(to_string(e)) rebuilds e node for node."""
    if isinstance(expr, Num):
        v = expr.value
        if v == int(v) and abs(v) < 1e16:
            return repr(int(v))
        return repr(v)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "-" + _wrap(expr.arg, _PREC["neg"])
    if isinstance(expr, Call):
        return f"{expr.fn}({to_string(expr.arg)})"
    op = expr.op
    if op in "+-":
        # right operand of +/- needs parens at equal precedence
        return f"{_wrap(expr.left, 1)} {op} {_wrap(expr.right, 2)}"
    if op in "*/":
        return f"{_wrap(expr.left, 2)}{op}{_wrap(expr.right, 3)}"
    # '^' is right associative and binds above unary minus
    return f"{_wrap(expr.left, 5)}^{_wrap(expr.right, 4)}"
