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

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import VdideError


class ExpressionError(VdideError):
    """Base class for expression parse and evaluation errors."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunction(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundVariable(ExpressionError):
    """A variable in the tree has no value in the bindings."""


class DomainError(ExpressionError):
    """Evaluation left the real domain or produced a non-finite value.

    step_index is set when the error escapes a solve: the step j whose
    advance from x_j evaluated the failing expression.
    """

    step_index: int | None = None


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


_TOKEN_RE = re.compile(
    r"""(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "name", "op", or "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _at_op(self, *ops: str) -> bool:
        tok = self._peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> Expression:
        node = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                f"expected an operator or end of input, found {tok.text!r}",
                tok.offset,
            )
        return node

    def _expr(self) -> Expression:
        node = self._term()
        while self._at_op("+", "-"):
            op = self._advance().text
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Expression:
        node = self._unary()
        while self._at_op("*", "/"):
            op = self._advance().text
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
        tok = self._advance()
        if not (tok.kind == "op" and tok.text == ")"):
            found = tok.text if tok.kind != "end" else "end of input"
            raise ExpressionSyntaxError(f"expected ')', found {found!r}", tok.offset)

    def _atom(self) -> Expression:
        tok = self._advance()
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            self._expect_closing_paren()
            return node
        if tok.kind == "name":
            if self._at_op("("):
                if tok.text not in FUNCTIONS:
                    known = ", ".join(sorted(FUNCTIONS))
                    raise UnknownFunction(
                        f"unknown function {tok.text!r}; available: {known}",
                        tok.offset,
                    )
                self._advance()
                arg = self._expr()
                self._expect_closing_paren()
                return Call(tok.text, arg)
            if tok.text in VARIABLES:
                return Var(tok.text)
            if tok.text in CONSTANTS:
                return Const(tok.text)
            raise UnknownVariable(
                f"unknown variable {tok.text!r}; variables are x, t, u, v "
                "and constants e, pi",
                tok.offset,
            )
        found = tok.text if tok.kind != "end" else "end of input"
        raise ExpressionSyntaxError(
            f"expected a number, name, '-', or '(', found {found!r}", tok.offset
        )


def parse(text: str) -> Expression:
    """Parse source text into an expression tree."""
    return _Parser(_tokenize(text)).parse()


def variables(expr: Expression) -> frozenset[str]:
    """The set of variable names appearing in the tree."""
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        return variables(expr.arg)
    return frozenset()


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


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate the tree at the given variable values.

    Pure and deterministic.  Any excursion out of the real domain (log of a
    nonpositive number, a fractional power of a negative base, division by
    zero, overflow to infinity) raises DomainError naming the offending
    sub-expression; results are guaranteed finite.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Const):
        return CONSTANTS[expr.name]
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariable(
                f"variable {expr.name!r} has no value in this context"
            ) from None
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, bindings)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, bindings)
        right = evaluate(expr.right, bindings)
        try:
            if expr.op == "+":
                out = left + right
            elif expr.op == "-":
                out = left - right
            elif expr.op == "*":
                out = left * right
            elif expr.op == "/":
                out = left / right
            else:
                # math.pow stays real and raises on (-8)^(1/3) instead of
                # returning a complex number like the ** operator would
                out = math.pow(left, right)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"cannot evaluate {unparse(expr)!r}: {exc}") from None
        return _require_finite(out, expr)
    arg = evaluate(expr.arg, bindings)
    try:
        out = FUNCTIONS[expr.func](arg)
    except (ValueError, OverflowError) as exc:
        raise DomainError(
            f"cannot evaluate {unparse(expr)!r} at argument {arg!r}: {exc}"
        ) from None
    return _require_finite(out, expr)


def _require_finite(value: float, expr: Expression) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{unparse(expr)!r} evaluated to a non-finite value")
    return value


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
