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
    return _x_form(expr, span)[2]


def _x_form(expr: Expression, span: float) -> tuple:
    """(whether x appears, c, x_rate(expr, span)), in one bottom-up walk.

    c is the slope of a tree equal to c*x + (terms free of x): 0.0 when x
    does not appear (-0.0 under a unary minus), and None when the tree is
    not of that form with a variable-free constant c, or when c * span, or
    the same product for any subtree, is not finite.  A variable-free
    factor is evaluated only when its sibling mentions x, so no ancestor
    evaluates it again and the work stays linear in the size of the tree.
    """
    kind = type(expr)
    if kind is Var and expr.name == "x":
        return True, 1.0, None
    if kind is Neg:
        mentions_x, c, rate = _x_form(expr.operand, span)
        return mentions_x, None if c is None else -c, rate
    if kind is Call:
        mentions_x, c, _ = _x_form(expr.arg, span)
        if not mentions_x:
            return False, 0.0, 0.0
        decays = expr.func == "exp" and c is not None and c <= 0
        return True, None, c if decays else None
    if kind is not BinOp:
        return False, 0.0, 0.0
    left_x, left_c, left_rate = _x_form(expr.left, span)
    right_x, right_c, right_rate = _x_form(expr.right, span)
    if not (left_x or right_x):
        return False, 0.0, 0.0
    op, rate = expr.op, None
    if op == "*" or (op == "/" and not right_x):
        if left_rate is not None and right_rate is not None:
            rate = left_rate + right_rate
            rate = rate if math.isfinite(rate) else None
    c = None
    if left_c is not None and right_c is not None:
        if op in "+-":
            c = _BINARY[op](left_c, right_c)
        elif op == "*" and not (left_x and right_x):
            c, factor = (left_c, expr.right) if left_x else (right_c, expr.left)
            k = _constant(factor)
            c = None if k is None else c * k
        elif op == "/" and not right_x:
            k = _constant(expr.right)
            c = None if not k else left_c / k
    finite = c is not None and math.isfinite(abs(c) * span)
    return True, c if finite else None, rate


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


def _fail():  # a check in a list comprehension (_code)
    raise _NonFinite


# What a generated loop raises where evaluate raises a DomainError, and the
# line _emit writes to check a local.
LOOP_FAILURES = (_NonFinite, ValueError, ZeroDivisionError, OverflowError)
_CHECK = "if not _isfinite({}): raise _NonFinite"


def _loop_names() -> dict:
    """A fresh dict of the names every generated loop's lines use (_emit),
    to which _emit adds a tree's numbers, constants and functions."""
    return {"_isfinite": isfinite, "_pow": math.pow, "_NonFinite": _NonFinite}


@functools.lru_cache(maxsize=256)
def _code(value: str, once: tuple, point: tuple, ends: tuple):
    """CPython's compile of the grid loop (grid_loop) of value and the
    lines _emit wrote, made once per shape."""
    if point and point[-1].startswith(value + " = "):  # the value, unchecked
        value, point = point[-1].partition(" = ")[2], point[:-1]
    clauses = "".join(
        " for %s in (%s,)" % tuple(line.split(" = ")) if line[0] == "_"
        else " if _isfinite(%s) or _fail()" % line.partition("(")[2].partition(")")[0]
        for line in point
    )
    x = r"\bx\b"
    if len(re.findall(x, value + clauses)) == 1:  # x0 + j h straight into its one use
        value, clauses = (re.sub(x, "(x0 + j * h)", s) for s in (value, clauses))
    else:
        clauses = " for x in (x0 + j * h,)" + clauses
    if ends:
        once += ("if first < last and not _isfinite(h): raise _NonFinite",
                 "for x in (x0 + first * h, x0 + last * h):")
        once += tuple("    " + line for line in ends)
    head = "".join(f"    {line}\n" for line in once)
    body = f"    return [{value} for j in range(first, last + 1){clauses}]\n"
    source = f"def _loop(first, last, x0, h):\n{head}{body}"
    return compile(source, "<vdide expression>", "exec")


def _define(code, name: str, names: dict):
    """The function called name that code defines, with names as its
    globals; popped, so the function and its globals do not refer to each
    other."""
    exec(code, names)
    return names.pop(name)


_X = {"x": ("x", 1, True, False)}  # the variable of a grid loop, as _emit takes it


def grid_loop(tree: Expression):
    """loop(first, last, x0, h), the list of tree's values at the grid
    points x = x0 + j h, j = first .. last, for a tree in x.

    The lines are tree's (_emit), checked at the root, so the values are
    evaluate's, bit for bit; but a failure leaves as one of LOOP_FAILURES,
    and only evaluate, rerun at the same points, raises the DomainError.
    The loop runs the variable-free lines once, and the checks proved at
    the grid's ends at j = first and last: x0 + j h runs monotonically from
    one to the other for finite h, and with several points an infinite or
    nan h fails.  The points run in one list comprehension, a clause a
    line, "for _v3 in (expr,)", which CPython runs as an assignment, or
    "if _isfinite(_v3) or _fail()", so the source never nests; x0 + j h
    goes straight into x's use if there is one.  CPython compiles it once
    per shape (_code), and problem.grid_values keeps the loop.
    """
    names, once, point, ends = _loop_names(), [], [], []
    value = _emit(tree, [("_o", once), ("_v", point)], names, _X, True, ends)[0]
    names["_fail"] = _fail
    return _define(_code(value, tuple(once), tuple(point), tuple(ends)), "_loop", names)


def _emit(
    node: Expression,
    levels: list[tuple[str, list[str]]],
    bound: dict,
    names: Mapping[str, tuple],
    checked: bool = False,
    ends: list[str] | None = None,
) -> tuple:
    """(name, level, chain, known) of node, after the lines it appends.

    Every generated loop writes its expressions with these lines
    (grid_loop, stepper._written): the same math.* calls and float
    operations in the same order as evaluate, so the values are
    bit-identical, and a line and a local per operation, so the source
    never nests.  Numbers, constants and functions go into bound under
    fresh names (_c0, _f1, ...), so the source depends only on the tree's
    shape.  levels are the loop's (prefix, lines) pairs from the outermost
    in.  names maps each variable to what _emit returns for it: its text,
    its level, an index into levels, True for the abscissa and else None,
    and False; and it may give a difference, such as K's "{x} - {t}", the
    level it takes instead.  A line goes to the innermost level of its
    operands, decided bottom-up in this one pass, so a variable-free one to
    level 0, run once before the loop; its local is the level's prefix and
    index.

    A node is checked where a later node could hide a non-finite value:
    the right operand of "/" (a / inf = 0), both operands of "^" (1^inf =
    inf^0 = 1) and the arguments of exp and tanh.  Elsewhere inf and nan
    carry through or make an operation raise, and the caller checks the
    result; on any failure it reruns evaluate, which raises the reference
    DomainError.  A checked BinOp or Call gets the line _CHECK, unless a
    proof stands in:

    - Known finite.  Every function in FUNCTIONS maps a finite argument to
      a finite value or raises, so a call on a checked argument needs no
      check.  -a is finite exactly when a is, so a checked unary minus
      hands its check to its operand; a leaf gets none, as in evaluate.
    - Proved at the grid's ends.  The abscissa x has points that run
      monotonically from the first to the last.  chain is where, in its
      level, the lines start from x up to a node that reaches x once
      through +, -, *, / (x not in a divisor) and unary minus, each other
      operand variable-free; else None.  Those other operands' lines go to
      level 0, so the chain's lines are the rest of its level.  IEEE
      rounding is monotone, so each step is monotone in x for a finite
      other operand; a non-finite x or operand makes a step non-finite or
      raise, bar a / inf = 0 everywhere.  So if each line of the chain is
      finite at both ends, x is, and every node is finite at each point
      between.  Each function in FUNCTIONS is finite on an interval, so the
      same holds for a call on a chain or on x.  A checked node with a
      chain, or a call on one, appends the chain's lines to ends, its own
      included, each followed by its check; the loop runs them at both
      ends before its points.  No ancestor of such a node has a chain, so
      no line goes twice.
    """
    kind = type(node)
    if kind is BinOp:
        op = node.op
        left, level, chain, _ = _emit(node.left, levels, bound, names, op == "^", ends)
        right, rl, rc, _ = _emit(node.right, levels, bound, names, op in "^/", ends)
        if op == "^":
            source, chain = f"_pow({left}, {right})", None
        else:
            source = f"{left} {op} {right}"
            if rl:  # the chain of the one operand with x goes on
                chain = rc if not level and op != "/" else None
        level = level if level > rl else rl
        if op == "-" and source in names:
            level = names[source][1]
        known = None
    elif kind is Var:
        return names[node.name]
    elif kind is Num or kind is Const:
        name = f"_c{len(bound)}"
        bound[name] = node.value if kind is Num else CONSTANTS[node.name]
        return name, 0, None, False
    elif kind is Call:
        hides = node.func in _HIDING_FUNCTIONS
        arg, level, chain, known = _emit(node.arg, levels, bound, names, hides, ends)
        function = f"_f{len(bound)}"
        bound[function] = FUNCTIONS[node.func]
        source = f"{function}({arg})"
    else:
        args = levels, bound, names, checked, ends
        operand, level, chain, known = _emit(node.operand, *args)
        source, checked = f"-{operand}", False
    prefix, lines = levels[level]
    name = f"{prefix}{len(lines)}"
    if chain is True:  # on x itself: the chain starts at this line
        chain = len(lines)
    lines.append(f"{name} = {source}")
    if checked and not known:
        if chain is None:
            lines.append(_CHECK.format(name))
        else:
            for line in lines[chain:]:
                ends += line, _CHECK.format(line.partition(" ")[0])
        known = True
    return name, level, None if kind is Call else chain, known


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
