"""Small arithmetic expression language for defining problems in text.

Grammar, loosest binding first:

    expr   := term (("+" | "-") term)*         left associative
    term   := unary (("*" | "/") unary)*       left associative
    unary  := "-" unary | power
    power  := atom ("^" unary)?                right associative
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus, so -x^2 means -(x^2) and 2^3^2 means
2^(3^2) = 512.  There is no implicit multiplication: "2x" is a syntax error.
Variables are limited to x, t, u, and v; e and pi are constants; the callable
names are exp, log, sin, cos, sinh, cosh, tanh, sqrt, and abs, all unary.
Unknown names are rejected with UnknownVariable or UnknownFunction rather
than a generic syntax error, since a typo in a name is the common mistake.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from math import isfinite
from typing import Mapping, Union

from .errors import VdideError, _Located


class ExpressionError(VdideError):
    """Base class for expression parse and evaluation errors."""


class _OffsetError(ExpressionError):
    """A parse error at a character offset of the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExpressionSyntaxError(_OffsetError):
    """The text does not follow the grammar."""


class UnknownFunction(_OffsetError):
    """A call names a function outside FUNCTIONS."""


class UnknownVariable(_OffsetError):
    """A name is neither a variable nor a constant."""


class UnboundVariable(ExpressionError):
    """A variable in the tree has no value in the bindings."""


class DomainError(ExpressionError, _Located):
    """Evaluation left the real domain or produced a non-finite value."""


VARIABLES = frozenset({"x", "t", "u", "v"})

FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}

CONSTANTS = {"e": math.e, "pi": math.pi}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Const, Var, Neg, BinOp, Call]


# Every token starts with a non-whitespace character, and every such
# character starts a match: a number, a name, an operator, or else "bad",
# the one character that starts no token.  finditer therefore steps over
# exactly the characters str.isspace accepts, which \S excludes.
_TOKEN_RE = re.compile(
    r"""(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<bad>\S)""",
    re.VERBOSE,
)

# A token is a plain (kind, text, offset) tuple: kind is "number", "name",
# "op" or, last in every token list, "end" with empty text.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, token_text, offset in tokens:
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {token_text!r}", offset)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _at_op(self, *ops: str) -> bool:
        kind, text, _ = self._tokens[self._i]
        return kind == "op" and text in ops

    def parse(self) -> Expression:
        node = self._expr()
        kind, text, offset = self._tokens[self._i]
        if kind != "end":
            raise ExpressionSyntaxError(
                f"expected an operator or end of input, found {text!r}", offset
            )
        return node

    def _expr(self) -> Expression:
        node = self._term()
        while self._at_op("+", "-"):
            op = self._advance()[1]
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Expression:
        node = self._unary()
        while self._at_op("*", "/"):
            op = self._advance()[1]
            node = BinOp(op, node, self._unary())
        return node

    def _unary(self) -> Expression:
        if self._at_op("-"):
            self._advance()
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Expression:
        base = self._atom()
        if self._at_op("^"):
            self._advance()
            # right operand re-enters unary so 2^-1 and 2^3^2 parse naturally
            return BinOp("^", base, self._unary())
        return base

    def _expect_closing_paren(self) -> None:
        kind, text, offset = self._advance()
        if not (kind == "op" and text == ")"):
            found = text if kind != "end" else "end of input"
            raise ExpressionSyntaxError(f"expected ')', found {found!r}", offset)

    def _atom(self) -> Expression:
        kind, text, offset = self._advance()
        if kind == "number":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self._expr()
            self._expect_closing_paren()
            return node
        if kind == "name":
            if self._at_op("("):
                if text not in FUNCTIONS:
                    known = ", ".join(sorted(FUNCTIONS))
                    raise UnknownFunction(
                        f"unknown function {text!r}; available: {known}", offset
                    )
                self._advance()
                arg = self._expr()
                self._expect_closing_paren()
                return Call(text, arg)
            if text in VARIABLES:
                return Var(text)
            if text in CONSTANTS:
                return Const(text)
            raise UnknownVariable(
                f"unknown variable {text!r}; variables are x, t, u, v "
                "and constants e, pi",
                offset,
            )
        found = text if kind != "end" else "end of input"
        raise ExpressionSyntaxError(
            f"expected a number, name, '-', or '(', found {found!r}", offset
        )


def parse(text: str) -> Expression:
    """Parse source text into an expression tree."""
    return _Parser(_tokenize(text)).parse()


def variables(expr: Expression) -> frozenset[str]:
    """The set of variable names appearing in the tree."""
    return _variables_within(expr, math.inf)


class _TooDeep(Exception):
    """A tree is deeper than _variables_within was allowed to walk."""


_NO_VARIABLES: frozenset[str] = frozenset()


def _variables_within(expr: Expression, levels: float) -> frozenset[str]:
    """variables(expr) for a tree at most `levels` nodes deep on every
    root-to-leaf path; for a deeper one, _TooDeep, raised before the walk
    goes past that depth.

    Every config load runs this walk.  Only inner nodes test the bound, as
    a leaf has no level below it, and leaves without variables share one
    empty set, which keeps the walk as fast as a walk without a bound.
    """
    if isinstance(expr, BinOp):
        if levels == 1:
            raise _TooDeep
        left = _variables_within(expr.left, levels - 1)
        return left | _variables_within(expr.right, levels - 1)
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, Neg):
        if levels == 1:
            raise _TooDeep
        return _variables_within(expr.operand, levels - 1)
    if isinstance(expr, Call):
        if levels == 1:
            raise _TooDeep
        return _variables_within(expr.arg, levels - 1)
    return _NO_VARIABLES


def x_rate(expr: Expression, span: float) -> float | None:
    """The rate lam with K(x + d, t, v) = e^(lam d) K(x, t, v), or None.

    0.0 when x does not appear.  Otherwise the tree must be a chain of "*",
    "/" and unary minus in which every factor that mentions x is exp(E) in
    numerator position, with E = c*x + (terms free of x), c a variable-free
    constant and c <= 0; lam is the sum of those c.  Anything else gets
    None: a growing exponential, an exp in a denominator, sin(x - t),
    exp(t*x), a sum with a term in x.  With c <= 0 no exp argument grows
    with x, so a sample at x > t fails only where the sample at x = t with
    the same t and v fails too, unless a term inside E overflows in
    between.  Against that, every subtree of E that mentions x must have a
    slope c' in x with |c'| * span finite, span being the length X - x0 of
    the solved interval: 1e308*(t - x) is finite at x = t and overflows at
    x - t = 2, and so does the inner product of (1e308*(t - x))/10, whose
    own slope is finite.  The work is linear in the size of the tree.
    """
    if isinstance(expr, Neg):
        return x_rate(expr.operand, span)
    if isinstance(expr, BinOp) and expr.op in ("*", "/"):
        left = x_rate(expr.left, span)
        if expr.op == "*":
            right = x_rate(expr.right, span)
        else:
            right = None if _x_slope(expr.right, span)[0] else 0.0
        if left is None or right is None:
            return None
        rate = left + right
        return rate if math.isfinite(rate) else None
    if isinstance(expr, Call) and expr.func == "exp":
        mentions_x, c = _x_slope(expr.arg, span)
        if not mentions_x:
            return 0.0
        return c if c is not None and c <= 0 else None
    return None if _x_slope(expr, span)[0] else 0.0


def _x_slope(expr: Expression, span: float) -> tuple[bool, float | None]:
    """(whether x appears, c) for a tree equal to c*x + (terms free of x).

    c is 0.0 when x does not appear and None when the tree is not of that
    form with a variable-free constant c, or when c * span, or the same
    product for any subtree, is not finite.
    """
    mentions_x, c = _linear_in_x(expr, span)
    if mentions_x and c is not None and not math.isfinite(abs(c) * span):
        return True, None
    return mentions_x, c


def _linear_in_x(expr: Expression, span: float) -> tuple[bool, float | None]:
    """_x_slope without the span check on the tree itself.

    A variable-free factor is evaluated only when its sibling mentions x,
    so no ancestor evaluates it again and the work stays linear in the size
    of the tree.
    """
    if isinstance(expr, Var):
        return (True, 1.0) if expr.name == "x" else (False, 0.0)
    if isinstance(expr, Neg):
        mentions_x, c = _x_slope(expr.operand, span)
        return mentions_x, None if c is None else -c
    if isinstance(expr, Call):
        return (True, None) if _x_slope(expr.arg, span)[0] else (False, 0.0)
    if not isinstance(expr, BinOp):
        return False, 0.0
    left_x, left_c = _x_slope(expr.left, span)
    right_x, right_c = _x_slope(expr.right, span)
    if not (left_x or right_x):
        return False, 0.0
    if left_c is None or right_c is None:
        return True, None
    if expr.op == "+":
        return True, left_c + right_c
    if expr.op == "-":
        return True, left_c - right_c
    if expr.op == "*" and not (left_x and right_x):
        c, factor = (left_c, expr.right) if left_x else (right_c, expr.left)
        k = _constant(factor)
        return True, None if k is None else c * k
    if expr.op == "/" and not right_x:
        k = _constant(expr.right)
        return True, None if not k else left_c / k
    return True, None


def _constant(expr: Expression) -> float | None:
    """The value of a variable-free tree; None if it has variables or fails."""
    try:
        return evaluate(expr, {})
    except ExpressionError:
        return None


# The binary operators, as evaluate applies them.  math.pow stays real and
# raises on (-8)^(1/3) instead of returning a complex number like ** would.
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate the tree at the given variable values.

    Pure and deterministic.  Any excursion out of the real domain (log of a
    nonpositive number, a fractional power of a negative base, division by
    zero, overflow to infinity) raises DomainError naming the offending
    sub-expression; results are guaranteed finite.  Node types are tested
    by identity, most frequent first: every single call of a built problem's
    g, K, phi or exact walks here.
    """
    kind = type(expr)
    if kind is BinOp:
        left = evaluate(expr.left, bindings)
        right = evaluate(expr.right, bindings)
        try:
            out = _BINARY[expr.op](left, right)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"cannot evaluate {unparse(expr)!r}: {exc}") from None
    elif kind is Var:
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariable(
                f"variable {expr.name!r} has no value in this context"
            ) from None
    elif kind is Num:
        return expr.value
    elif kind is Call:
        arg = evaluate(expr.arg, bindings)
        try:
            out = FUNCTIONS[expr.func](arg)
        except (ValueError, OverflowError) as exc:
            raise DomainError(
                f"cannot evaluate {unparse(expr)!r} at argument {arg!r}: {exc}"
            ) from None
    elif kind is Neg:
        return -evaluate(expr.operand, bindings)
    else:
        return CONSTANTS[expr.name]
    if isfinite(out):
        return out
    raise DomainError(f"{unparse(expr)!r} evaluated to a non-finite value")


# Functions that map a non-finite argument to a finite value: exp(-inf) = 0
# and tanh(+-inf) = +-1.  Every other function here returns inf or nan for
# one, or raises ValueError.
_HIDING_FUNCTIONS = frozenset({"exp", "tanh"})


class _NonFinite(Exception):
    """A generated loop met a value its checks reject."""


# What a generated loop raises where evaluate raises a DomainError.
LOOP_FAILURES = (_NonFinite, ValueError, ZeroDivisionError, OverflowError)


def _loop_names() -> dict:
    """A fresh dict of the names every generated loop's lines use (_emit),
    to which _emit adds a tree's numbers, constants and functions."""
    return {"_isfinite": isfinite, "_pow": math.pow, "_NonFinite": _NonFinite}


@functools.lru_cache(maxsize=256)
def _code(source: str):
    """CPython's compile of a generated source, made once per shape."""
    return compile(source, "<vdide expression>", "exec")


def _define(code, name: str, names: dict):
    """The function called name that code defines, with names as its
    globals; popped, so the function and its globals do not refer to each
    other."""
    exec(code, names)
    return names.pop(name)


def grid_loop(tree: Expression):
    """loop(first, last, x0, h), the list of tree's values at the grid
    points x = x0 + j h, j = first .. last, for a tree in x.

    The lines are tree's checked lines (_emit), so the values are
    evaluate's, bit for bit; but a failure leaves as one of LOOP_FAILURES,
    and only evaluate, rerun at the same points, raises the DomainError.
    The source depends only on the tree's shape, so CPython compiles it
    once per process (_code); the loop itself is made anew on every call,
    which takes a few microseconds.
    """
    names = _loop_names()
    body: list[str] = []
    value = _emit(tree, body, names, checked=True)
    lines = "\n        ".join(["x = x0 + j * h", *body])
    source = (
        "def _loop(first, last, x0, h):\n    out = []\n    append = out.append\n"
        f"    for j in range(first, last + 1):\n        {lines}\n"
        f"        append({value})\n    return out\n"
    )
    return _define(_code(source), "_loop", names)


def _emit(
    node: Expression,
    body: list[str],
    bound: dict,
    checked: bool = False,
    names: Mapping[str, str] | None = None,
    split: list[str] | None = None,
) -> str:
    """The name holding node's value, after the lines it appends to body.

    Every generated loop writes its expressions with these lines
    (grid_loop, stepper._loop_source).  They make the same math.* calls and
    float operations in the same order as evaluate, so their values are
    bit-identical, and each operation gets its own line and local, so the
    source never nests however deep the tree is.  Numbers, constants and
    functions go into bound under fresh names (_c0, _f1, ...), so no text
    of the tree reaches the source and the bytecode compiler folds nothing:
    the source depends only on the tree's shape, and CPython compiles it
    once per process (_code).  Each line's own local is _v + its index in
    body.

    A checked node that is not a leaf gets a line raising _NonFinite when
    its value is not finite.  A node is checked where a later node could
    hide a non-finite value: the right operand of "/" (a / inf = 0), both
    operands of "^" (1^inf = inf^0 = 1) and the arguments of exp and tanh.
    Everywhere else inf and nan carry through +, -, *, unary minus, the
    left operand of "/" and the other functions, or make them raise
    ValueError, ZeroDivisionError or OverflowError, and the caller checks
    the result.  On any failure the caller reruns evaluate, which raises
    the reference DomainError.

    names maps each variable to the name the code holds it in, the
    variable's own name by default.  With split, a list, a node that is not
    a leaf and whose line names neither u nor a body local writes its line,
    and its check, to split instead, as _s + its index there: so every
    maximal subtree without u lands in split, decided bottom-up in one
    pass.  A loop that calls g three times at two abscissae (stepper)
    evaluates split once per abscissa and body once per call.
    """
    kind = type(node)
    if kind is Num or kind is Const:
        name = f"_c{len(bound)}"
        bound[name] = node.value if kind is Num else CONSTANTS[node.name]
        return name
    if kind is Var:
        return node.name if names is None else names[node.name]
    if kind is BinOp:
        left = _emit(node.left, body, bound, node.op == "^", names, split)
        right = _emit(node.right, body, bound, node.op in "^/", names, split)
        if node.op == "^":
            source = f"_pow({left}, {right})"
        else:
            source = f"{left} {node.op} {right}"
    elif kind is Call:
        hides = node.func in _HIDING_FUNCTIONS
        arg = _emit(node.arg, body, bound, hides, names, split)
        function = f"_f{len(bound)}"
        bound[function] = FUNCTIONS[node.func]
        source = f"{function}({arg})"
    else:
        source = f"-{_emit(node.operand, body, bound, False, names, split)}"
    lines, local = body, "_v"
    if split is not None:
        # a line's other names (_c.., _f.., _s.., _pow, x's) contain neither
        u = "u" if names is None else names["u"]
        if "_v" not in source and u not in source:
            lines, local = split, "_s"
    name = f"{local}{len(lines)}"
    lines.append(f"{name} = {source}")
    if checked:
        lines.append(f"if not _isfinite({name}): raise _NonFinite")
    return name


# Binding strength used when deciding where unparse needs parentheses.
# Atoms sit above everything; unary minus sits between "*"/"/" and "^".
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PRECEDENCE = 3
_ATOM_PRECEDENCE = 5


def _precedence(expr: Expression) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Neg):
        return _UNARY_PRECEDENCE
    return _ATOM_PRECEDENCE


def unparse(expr: Expression) -> str:
    """Render a tree back to source text.

    For any tree produced by parse, parse(unparse(tree)) == tree.  Left
    children keep their parentheses only when strictly looser than the parent
    operator; right children of the left-associative operators also need them
    at equal precedence, since a - (b - c) must not flatten to a - b - c.
    """
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, (Const, Var)):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({unparse(expr.arg)})"
    if isinstance(expr, Neg):
        inner = unparse(expr.operand)
        if _precedence(expr.operand) < _UNARY_PRECEDENCE:
            inner = f"({inner})"
        return f"-{inner}"
    if expr.op == "^":
        base = unparse(expr.left)
        if _precedence(expr.left) < _ATOM_PRECEDENCE:
            base = f"({base})"
        exponent = unparse(expr.right)
        if _precedence(expr.right) < _UNARY_PRECEDENCE:
            exponent = f"({exponent})"
        return f"{base}^{exponent}"
    prec = _PRECEDENCE[expr.op]
    left = unparse(expr.left)
    if _precedence(expr.left) < prec:
        left = f"({left})"
    right = unparse(expr.right)
    if _precedence(expr.right) <= prec:
        right = f"({right})"
    return f"{left} {expr.op} {right}"
