"""Shared test data and references: error tables, random problems, the
expression corpus and random trees, the DGJ series the stepper's closure
telescopes, the reference harness of the generated loops, a record of the
loops a block makes, and problems with x-dependent kernels whose exact
solutions are known.

The reference harness.  Every path is checked against its reference through
one outcome, outcome(run): the result packed as doubles, or the error's
class, message, step_index, x and slot.
- A grid loop (phi, exact) against the walk: a problem from slot_problem
  against walking(problem), whose slots with a tree are plain walks of it.
- The tree loop against the walked call-site loop,
  tree_loop_ends_as_walking, and the call-site loop against the single-step
  replay, replay(nnm_step or implicit_step, ...).
- The rate rows against the direct rows, direct(problem):
  row_paths_end_alike, within assert_agree.
plain_problem makes a problem of plain callables, which runs the call-site
loop, filled a trajectory of given values, and isfinite_calls counts the
checks a grid loop runs.  The strategies TAME, hiding, mixed and
single_x_trees draw the trees these properties run on.
"""

import contextlib
import dataclasses
import math
import random
import struct
from dataclasses import dataclass
from typing import Callable
from unittest import mock

import pytest
from hypothesis import strategies as st

from vdide import DelayProblem, FirstStepMode, expressions, oracle, registry, stepper
from vdide.errors import VdideError
from vdide.expressions import (
    CONSTANTS,
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    DomainError,
    ExpressionSyntaxError,
    Neg,
    Num,
    UnboundVariable,
    UnknownFunction,
    UnknownVariable,
    Var,
    evaluate,
    unparse,
)
from vdide.problem import Trajectory, init_trajectory

# ---------------------------------------------------------------------------
# Reference absolute errors for the built-in problems, literal first step,
# at h in {0.01, 0.02, 0.1}, sampled at x = 0.1, 0.2, ..., 1.0.

SAMPLE_XS = [i / 10 for i in range(1, 11)]

REFERENCE_ERRORS = {
    "example1": {
        0.01: [1.98103e-5, 2.15173e-5, 2.34488e-5, 2.5633e-5, 2.81019e-5,
               3.08911e-5, 3.40406e-5, 3.75955e-5, 4.16061e-5, 4.6129e-5],
        0.02: [7.88502e-5, 8.5647e-5, 9.33384e-5, 1.02037e-4, 1.11871e-4,
               1.22981e-4, 1.35527e-4, 1.4969e-4, 1.65669e-4, 1.83692e-4],
        0.1: [1.89658e-3, 2.06066e-3, 2.24651e-3, 2.45688e-3, 2.69489e-3,
              2.96401e-3, 3.26816e-3, 3.61174e-3, 3.99966e-3, 4.43746e-3],
    },
    "example2": {
        0.01: [5.39924e-5, 5.91385e-5, 6.54017e-5, 7.30438e-5, 8.2388e-5,
               9.38329e-5, 1.0787e-4, 1.25104e-4, 1.4628e-4, 1.72316e-4],
        0.02: [2.1491e-4, 2.35415e-4, 2.60385e-4, 2.90867e-4, 3.28155e-4,
               3.73844e-4, 4.29901e-4, 4.98748e-4, 5.83369e-4, 6.87436e-4],
        0.1: [5.17093e-3, 5.66983e-3, 6.27996e-3, 7.02773e-3, 7.94573e-3,
              9.07421e-3, 1.04628e-2, 1.21727e-2, 1.42792e-2, 1.68753e-2],
    },
}

# ---------------------------------------------------------------------------
# Randomized smooth problems for stepper/closure equivalence checks.


def random_smooth_problem(rng: random.Random) -> DelayProblem:
    """A bounded, smooth problem on [0, 1] with tau = 0.5.

    Coefficients keep |dg/du| <= 1 so the implicit relation stays a strong
    contraction at moderate h, and the state stays O(1) over ten steps.
    """
    a0 = rng.uniform(-1.0, 1.0)
    a1 = rng.uniform(-1.0, 1.0)
    w = rng.uniform(0.3, 1.5)
    cu = rng.uniform(-0.5, 0.5)
    du = rng.uniform(-0.5, 0.5)
    b0 = rng.uniform(-1.0, 1.0)
    b1 = rng.uniform(0.3, 2.0)
    b2 = rng.uniform(-0.8, 0.8)
    cv = rng.uniform(0.2, 1.0)
    p0 = rng.uniform(0.5, 1.5)
    p1 = rng.uniform(-0.5, 0.5)
    p2 = rng.uniform(0.3, 2.0)

    def g(x: float, u: float) -> float:
        return a0 + a1 * math.sin(w * x) + cu * math.cos(u) + du * u

    def kernel(x: float, t: float, v: float) -> float:
        return b0 * math.cos(b1 * x + b2 * t) + cv * math.sin(v)

    def history(x: float) -> float:
        return p0 + p1 * math.cos(p2 * x)

    return DelayProblem(
        g=g, kernel=kernel, history=history, tau=0.5, x0=0.0, x_end=1.0
    )


# ---------------------------------------------------------------------------
# Expression corpus.  Expected values are spelled with the same floating
# operations the evaluator performs, so the assertions can be exact.

EVAL_CASES = [
    ("2^3^2", {}, 512.0),
    ("(2^3)^2", {}, 64.0),
    ("2^-1", {}, 0.5),
    ("2^-2*8", {}, 2.0),
    ("-2^2", {}, -4.0),
    ("(-2)^2", {}, 4.0),
    ("-x^2", {"x": 3.0}, -9.0),
    ("(-x)^2", {"x": 3.0}, 9.0),
    ("x^0", {"x": 0.0}, 1.0),
    ("0^x", {"x": 3.0}, 0.0),
    ("2^0.5", {}, 2.0 ** 0.5),
    ("2 + 3*4", {}, 14.0),
    ("(2 + 3)*4", {}, 20.0),
    ("2 - 3 - 4", {}, -5.0),
    ("2 - (3 - 4)", {}, 3.0),
    ("2/4/2", {}, 0.25),
    ("2/(4/2)", {}, 1.0),
    ("2*3^2", {}, 18.0),
    ("1/2 + 1/4", {}, 0.75),
    ("10/4", {}, 2.5),
    ("--x", {"x": 5.0}, 5.0),
    ("-(-x)", {"x": 5.0}, 5.0),
    ("-x*t", {"x": 2.0, "t": 3.0}, -6.0),
    ("-(x*t)", {"x": 2.0, "t": 3.0}, -6.0),
    ("e", {}, math.e),
    ("pi", {}, math.pi),
    ("e^x", {"x": 1.0}, math.e),
    ("pi*x^2", {"x": 2.0}, math.pi * 4.0),
    ("sin(pi/2)", {}, 1.0),
    ("sin(0)", {}, 0.0),
    ("cos(0)", {}, 1.0),
    ("sinh(0)", {}, 0.0),
    ("cosh(0)", {}, 1.0),
    ("tanh(0)", {}, 0.0),
    ("sqrt(4)", {}, 2.0),
    ("sqrt(2)*sqrt(2)", {}, math.sqrt(2.0) * math.sqrt(2.0)),
    ("abs(-3)", {}, 3.0),
    ("abs(3 - 5)", {}, 2.0),
    ("log(e)", {}, 1.0),
    ("log(1)", {}, 0.0),
    ("exp(0)", {}, 1.0),
    ("exp(1)", {}, math.e),
    ("exp(sin(cos(x)))", {"x": 0.0}, math.exp(math.sin(1.0))),
    ("sqrt(abs(x - t))", {"x": 1.0, "t": 5.0}, 2.0),
    ("3*x + 2*t", {"x": 1.0, "t": 2.0}, 7.0),
    ("x - t - u - v", {"x": 10.0, "t": 1.0, "u": 2.0, "v": 3.0}, 4.0),
    ("x*t*u*v", {"x": 2.0, "t": 3.0, "u": 4.0, "v": 5.0}, 120.0),
    ("x/t/u", {"x": 24.0, "t": 2.0, "u": 3.0}, 4.0),
    ("x - (t - v)", {"x": 1.0, "t": 2.0, "v": 3.0}, 2.0),
    ("1.5e-3*x", {"x": 2000.0}, 1.5e-3 * 2000.0),
    (".5*x", {"x": 3.0}, 1.5),
    ("2.*x", {"x": 3.0}, 6.0),
    ("1E+2 + x", {"x": 1.0}, 101.0),
    ("cosh(x)^2 - sinh(x)^2", {"x": 0.5},
     math.cosh(0.5) ** 2 - math.sinh(0.5) ** 2),
    ("tanh(x)*cosh(x)/sinh(x)", {"x": 0.7},
     math.tanh(0.7) * math.cosh(0.7) / math.sinh(0.7)),
    # the exact expression strings of the built-in problems
    ("exp(-1)*(1 - exp(x)) + u", {"x": 0.0, "u": 1.0}, 1.0),
    ("v", {"v": 7.25}, 7.25),
    ("exp(x)", {"x": 0.5}, math.exp(0.5)),
    ("-exp(x)*sinh(x) + u", {"x": 0.0, "u": 1.0}, 1.0),
    ("v^2", {"v": 3.0}, 9.0),
    ("exp(x + 1)", {"x": 0.0}, math.e),
    # the largest decimal exponent that stays finite, and one that rounds to 0
    ("1e308", {}, 1e308),
    ("1e-999", {}, 0.0),
]

# Valid expressions exercised for parse/unparse round trips only.
ROUND_TRIP_ONLY = [
    "x*(t + v)/(u - 1)",
    "-(x + t)",
    "-(x*t) + v",
    "x^(t + 1)",
    "2^(3*x)",
    "x - (t - v) + u",
    "abs(x)^3",
    "x/(t*u)",
    "(x + t)*(u - v)",
    "-x^-t",
    "x^t^u",
    "(x^t)^u",
    "-(x + 1)^2",
    "1e3*x + 2.5E-2",
    "exp(x)^2",
    "sqrt(x)*sqrt(t)",
    "x^-(t + 1)",
    "cos(x)*cos(t) + sin(x)*sin(t)",
]

# (text, expected exception) pairs for parse-time failures.
PARSE_ERROR_CASES = [
    ("(a)", UnknownVariable),
    ("w^2", UnknownVariable),
    ("x + y", UnknownVariable),
    ("foo(x)", UnknownFunction),
    ("sine(x)", UnknownFunction),
    ("2x", ExpressionSyntaxError),
    ("x 2", ExpressionSyntaxError),
    ("1 +", ExpressionSyntaxError),
    ("(1", ExpressionSyntaxError),
    (")", ExpressionSyntaxError),
    ("", ExpressionSyntaxError),
    ("   ", ExpressionSyntaxError),
    ("*x", ExpressionSyntaxError),
    ("1 ? 2", ExpressionSyntaxError),
    ("exp()", ExpressionSyntaxError),
    ("exp(x, t)", ExpressionSyntaxError),
    ("x + (t))", ExpressionSyntaxError),
    ("x +\t@", ExpressionSyntaxError),
    ("x\xa0\xa0?", ExpressionSyntaxError),
    ("x\n+\n", ExpressionSyntaxError),
    ("\t\u3000$", ExpressionSyntaxError),
    ("2 .", ExpressionSyntaxError),
    ("1e", ExpressionSyntaxError),
    ("exp (x) ~", ExpressionSyntaxError),
    ("1e999", ExpressionSyntaxError),
    ("2*1e400", ExpressionSyntaxError),
]

_KNOWN_NAMES = "variables are x, t, u, v and constants e, pi"
_KNOWN_FUNCTIONS = "available: abs, cos, cosh, exp, log, sin, sinh, sqrt, tanh"
_OPERAND = "expected a number, name, '-', or '('"
_OPERATOR = "expected an operator or end of input"

# The full message, offset included, of each PARSE_ERROR_CASES failure.
PARSE_ERROR_MESSAGES = {
    "(a)": f"unknown variable 'a'; {_KNOWN_NAMES} (at offset 1)",
    "w^2": f"unknown variable 'w'; {_KNOWN_NAMES} (at offset 0)",
    "x + y": f"unknown variable 'y'; {_KNOWN_NAMES} (at offset 4)",
    "foo(x)": f"unknown function 'foo'; {_KNOWN_FUNCTIONS} (at offset 0)",
    "sine(x)": f"unknown function 'sine'; {_KNOWN_FUNCTIONS} (at offset 0)",
    "2x": f"{_OPERATOR}, found 'x' (at offset 1)",
    "x 2": f"{_OPERATOR}, found '2' (at offset 2)",
    "1 +": f"{_OPERAND}, found 'end of input' (at offset 3)",
    "(1": "expected ')', found 'end of input' (at offset 2)",
    ")": f"{_OPERAND}, found ')' (at offset 0)",
    "": f"{_OPERAND}, found 'end of input' (at offset 0)",
    "   ": f"{_OPERAND}, found 'end of input' (at offset 3)",
    "*x": f"{_OPERAND}, found '*' (at offset 0)",
    "1 ? 2": "unexpected character '?' (at offset 2)",
    "exp()": f"{_OPERAND}, found ')' (at offset 4)",
    "exp(x, t)": "unexpected character ',' (at offset 5)",
    "x + (t))": f"{_OPERATOR}, found ')' (at offset 7)",
    "x +\t@": "unexpected character '@' (at offset 4)",
    "x\xa0\xa0?": "unexpected character '?' (at offset 3)",
    "x\n+\n": f"{_OPERAND}, found 'end of input' (at offset 4)",
    "\t\u3000$": "unexpected character '$' (at offset 2)",
    "2 .": "unexpected character '.' (at offset 2)",
    "1e": f"{_OPERATOR}, found 'e' (at offset 1)",
    "exp (x) ~": "unexpected character '~' (at offset 8)",
    "1e999": "number '1e999' is too large (at offset 0)",
    "2*1e400": "number '1e400' is too large (at offset 2)",
}

# (text, the same expression without unusual whitespace) pairs: tab,
# non-breaking and other Unicode spaces, and newlines separate tokens and
# may lead or trail.
WHITESPACE_CASES = [
    ("x\t+\tu", "x + u"),
    ("x\xa0*\xa02", "x*2"),
    ("exp(x)\n", "exp(x)"),
    (" \tx + 1\n\n", "x + 1"),
    ("\u3000x\u2003-\u2009t\r\n", "x - t"),
]

# (text, bindings) pairs that must raise DomainError when evaluated.
DOMAIN_ERROR_CASES = [
    ("log(x)", {"x": 0.0}),
    ("log(x - 2)", {"x": 1.0}),
    ("sqrt(x - 4)", {"x": 0.0}),
    ("1/x", {"x": 0.0}),
    ("(x - 2)^0.5", {"x": 0.0}),
    ("exp(x)", {"x": 1000.0}),
    ("x^x", {"x": -0.5}),
    ("x*x", {"x": 1e200}),
]


# Expressions whose outer node maps the infinite x*x at x = 1e200 to a
# finite value: 1/inf = 0, exp(-inf) = 0, tanh(inf) = 1, inf^0 = 1 and
# 0.5^inf = 0.  The overflow must still be reported.
HIDDEN_OVERFLOWS = ["1/(x*x)", "exp(-(x*x))", "tanh(x*x)", "(x*x)^0", "0.5^(x*x)"]


# Random expression trees.  Leaves hold ordinary values and the values that
# make operations leave the domain or overflow, HUGE ones drawn more often.
NUMBERS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.0, 3.5, 1e-300, 1e200, -1e200, 1e308]
HUGE = [1e200, -1e200, 1e308]
PARAMS = ("x", "t", "u", "v")



def trees_over(params, numbers=NUMBERS, huge=HUGE, max_leaves=5):
    """Random trees in the variables params, leaves drawn from numbers and,
    more often than their share, huge."""
    leaves = st.one_of(
        st.sampled_from(numbers).map(Num),
        st.sampled_from(huge).map(Num),
        st.sampled_from(["e", "pi"]).map(Const),
        st.sampled_from(params).map(Var),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
            st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
        ),
        max_leaves=max_leaves,
    )


trees = trees_over(PARAMS)

# Bindings add inf and nan to the leaf values, which evaluate passes through
# a leaf unchecked.
BINDING_VALUES = st.one_of(
    st.sampled_from(HUGE),
    st.sampled_from(NUMBERS + [math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)

# Leaves of trees that mostly stay finite over a grid or a solve; the
# default leaves add the values that overflow or leave the domain.
TAME = [0.0, -0.0, 0.25, 0.5, -0.75, 1.0, 2.0]


def hiding(params):
    """Trees whose value hides an overflow part way along a grid or a solve:
    the product 1e308*(p + c) overflows once |p + c| > 1.8, and exp(-inf) =
    0, tanh(inf) = 1, a / inf = 0, inf^0 = 1 and 0.5^inf = 0 are finite.
    Only the generated checks stop such a value."""
    overflow = st.builds(
        lambda p, c: BinOp("*", Num(1e308), BinOp("+", Var(p), Num(c))),
        st.sampled_from(params),
        st.sampled_from([-1.0, 0.5, 1.0]),
    )
    tame = trees_over(params, TAME, TAME)
    hidden = st.one_of(
        overflow.map(lambda o: Call("exp", Neg(o))),
        overflow.map(lambda o: Call("tanh", o)),
        st.builds(lambda a, o: BinOp("/", a, o), tame, overflow),
        overflow.map(lambda o: BinOp("^", o, Num(0.0))),
        overflow.map(lambda o: BinOp("^", Num(0.5), o)),
    )
    return st.builds(BinOp, st.sampled_from("+-*"), hidden, tame)


def mixed(params):
    """Tame trees, trees that overflow or leave the domain, and hiding ones."""
    return st.one_of(
        trees_over(params, TAME, TAME), trees_over(params), hiding(params)
    )


# Trees in which x occurs once, through +, -, *, / and unary minus, with
# constants that overflow part way along the grid: the checks a generated
# loop makes at the grid's two ends only (expressions._emit) must fail where
# the walk fails.  The seeds x*x and 1e307/x are not monotone in x, so
# between two ends that pass, the walk can fail; each context checks the
# chain's value, or hides it (exp(-inf) = 0, tanh(inf) = 1, inf^0 = 1,
# 1/inf = 0).
CHAIN_CONSTANTS = [0.5, -1.5, 1.5, 2.0, 2.5, 3.0, 1e308, -1e308, 1e307]
SEEDS = [Var("x"), BinOp("*", Var("x"), Var("x")), BinOp("/", Num(1e307), Var("x"))]
CONTEXTS = {
    "bare": lambda y: y,
    "exp": lambda y: Call("exp", y),
    "tanh": lambda y: Call("tanh", y),
    "sin": lambda y: Call("sin", y),
    "pow0": lambda y: BinOp("^", y, Num(0.0)),
    "reciprocal": lambda y: BinOp("/", Num(1.0), y),
}


def fold_chain(seed, steps):
    """seed with each step applied in turn: "neg", or (op, constant, the
    side the constant stands on)."""
    node = seed
    for step in steps:
        if step == "neg":
            node = Neg(node)
        else:
            op, k, right = step
            node = BinOp(op, node, Num(k)) if right or op == "/" else BinOp(op, Num(k), node)
    return node


chain_steps = st.one_of(
    st.just("neg"),
    st.tuples(st.sampled_from("+-*/"), st.sampled_from(CHAIN_CONSTANTS), st.booleans()),
)


@st.composite
def single_x_trees(draw, seeds=SEEDS):
    seed = draw(st.sampled_from(seeds))
    chain = fold_chain(seed, draw(st.lists(chain_steps, max_size=4)))
    return CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))](chain)


# ---------------------------------------------------------------------------
# The iterative series of Daftardar-Gejji and Jafari (J. Math. Anal. Appl.
# 316 (2006)) for a scalar fixed point u = g0 + N(u) with no linear part:
#
#     u_0     = g0,
#     u_1     = N(s_0),
#     u_{m+1} = N(s_m) - N(s_{m-1})      for m >= 1,
#
# where s_m = u_0 + ... + u_m is the running partial sum and the k-term
# approximation is s_{k-1}.  The terms telescope: the k-term sum collapses
# to g0 + N(s_{k-2}).  The stepper's closure is that telescoped form for
# k = 3; the series itself is the reference the equivalence tests compare
# it against.


@dataclass(frozen=True)
class SeriesState:
    """Terms u_0 .. u_{k-1} and their partial sums, index-aligned."""

    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]


def dgj_terms(
    g0: float, nonlinear: Callable[[float], float], k: int
) -> SeriesState:
    """Generate the first k series terms of u = g0 + nonlinear(u).

    partial_sums[m] is exactly terms[0] + ... + terms[m] accumulated left to
    right, so the pair stays consistent bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    terms = [g0]
    sums = [g0]
    n_prev = 0.0
    for _ in range(k - 1):
        n_next = nonlinear(sums[-1])
        terms.append(n_next - n_prev)
        sums.append(sums[-1] + terms[-1])
        n_prev = n_next
    return SeriesState(terms=tuple(terms), partial_sums=tuple(sums))


def dgj_solve(g0: float, nonlinear: Callable[[float], float], k: int) -> float:
    """The k-term series value, s_{k-1}."""
    return dgj_terms(g0, nonlinear, k).partial_sums[-1]


# ---------------------------------------------------------------------------
# The tree walker as it stood before it dispatched on type(expr) and applied
# the binary operators through a table, kept as the reference for
# vdide.expressions.evaluate: the same floats, bit for bit, or the same
# exception class with the same message.


def reference_evaluate(expr, bindings):
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
        return -reference_evaluate(expr.operand, bindings)
    if isinstance(expr, BinOp):
        left = reference_evaluate(expr.left, bindings)
        right = reference_evaluate(expr.right, bindings)
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
                out = math.pow(left, right)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"cannot evaluate {unparse(expr)!r}: {exc}") from None
        return _require_finite(out, expr)
    arg = reference_evaluate(expr.arg, bindings)
    try:
        out = FUNCTIONS[expr.func](arg)
    except (ValueError, OverflowError) as exc:
        raise DomainError(
            f"cannot evaluate {unparse(expr)!r} at argument {arg!r}: {exc}"
        ) from None
    return _require_finite(out, expr)


def _require_finite(value, expr):
    if not math.isfinite(value):
        raise DomainError(f"{unparse(expr)!r} evaluated to a non-finite value")
    return value


# ---------------------------------------------------------------------------
# The reference harness.  A built problem's slot functions carry their
# trees: its solves run the tree loop, which writes g's and K's lines in,
# and phi and exact run their grid loops (problem.grid_values).  A problem
# of plain callables runs the call-site loop and calls phi and exact at
# every point, and so does a loop that raises, to raise the reference
# exception (stepper._step_loop).  The walked problem, whose slots are
# plain walks of the same trees, is the reference.


def outcome(run):
    """("values", the result of run(), a trajectory, a list of floats or a
    float, packed as doubles) or ("error", class, message, step_index, x,
    slot) of the VdideError it raises, None where the error has no such
    attribute."""
    try:
        result = run()
    except VdideError as exc:
        located = (getattr(exc, name, None) for name in ("step_index", "x", "slot"))
        return ("error", type(exc), str(exc), *located)
    values = getattr(result, "_values", result)
    if isinstance(values, float):
        values = [values]
    return "values", struct.pack(f"{len(values)}d", *values)


def _unpacked(packed):
    return struct.unpack(f"{len(packed) // 8}d", packed)


def walking(problem):
    """problem with each slot function that carries a tree (g, K, phi,
    exact) as a plain walk of that tree, which carries none and stamps
    nothing of its own: its solves run the call-site loop, and phi and
    exact are called at every point."""
    slots = problem.g, problem.kernel, problem.history, problem.exact
    g, K, phi, exact = (getattr(fn, "tree", None) for fn in slots)
    walks = {}
    if g is not None:
        walks["g"] = lambda x, u: evaluate(g, {"x": x, "u": u})
    if K is not None:
        walks["kernel"] = lambda x, t, v: evaluate(K, {"x": x, "t": t, "v": v})
    if phi is not None:
        walks["history"] = lambda x: evaluate(phi, {"x": x})
    if exact is not None:
        walks["exact"] = lambda x: evaluate(exact, {"x": x})
    return dataclasses.replace(problem, **walks)


def slot_problem(g, K, phi, exact=None, rate=None, *, tau, x0, x_end):
    """A problem whose g, K, phi and, if given, exact are slot functions of
    the trees, as a config builds them, with kernel_x_rate rate."""
    slot = registry._slot_function
    return DelayProblem(
        g=slot(g, "g"),
        kernel=slot(K, "K"),
        history=slot(phi, "phi"),
        tau=tau,
        x0=x0,
        x_end=x_end,
        exact=None if exact is None else slot(exact, "exact"),
        kernel_x_rate=rate,
    )


def plain_problem(**fields):
    """A problem of plain callables: g, K and phi zero, tau 1 and [0, 1],
    unless fields say otherwise."""
    defaults = dict(
        g=lambda x, u: 0.0,
        kernel=lambda x, t, v: 0.0,
        history=lambda x: 0.0,
        tau=1.0,
        x0=0.0,
        x_end=1.0,
    )
    return DelayProblem(**(defaults | fields))


def replay(step, problem, grid, mode, stop=None):
    """The trajectory of step(problem, traj, j) appended for each j < stop,
    by default for every step."""
    traj = init_trajectory(problem, grid, mode)
    for j in range(grid.steps if stop is None else stop):
        traj.append(step(problem, traj, j))
    return traj


def filled(grid, value, last=None):
    """A trajectory on grid holding value(j) at j = -M .. 0, then value(j)
    appended for j = 1 .. last, by default N."""
    history = [value(j) for j in range(-grid.delay_steps, 1)]
    traj = Trajectory(grid, FirstStepMode.LITERAL, history)
    for j in range(1, (grid.steps if last is None else last) + 1):
        traj.append(value(j))
    return traj


def tree_loop_ends_as_walking(run, problem, *args):
    """The outcome of run(walking(problem), *args), after checking that
    run(problem, *args), whose g and K carry their trees, ends the same,
    and reruns in the call-site loop only where the walk raises: the
    fallback would hide a tree loop that raises where the walk returns."""
    want = outcome(lambda: run(walking(problem), *args))
    with recorded_loops(empty=False) as loops:
        assert outcome(lambda: run(problem, *args)) == want
    if any(shape != "grid" and shape[3] == "calls" for shape, _ in loops):
        assert want[0] == "error", "the tree loop raised where call sites ran"
    return want


def walking_builds(monkeypatch):
    """Have every ProblemConfig.build return the walked problem, so the
    commands run the call-site loop and walk phi and exact."""
    build = registry.ProblemConfig.build
    monkeypatch.setattr(registry.ProblemConfig, "build", lambda config: walking(build(config)))


# A kernel with a kernel_x_rate lam takes the rate rows: each row is the
# previous one scaled by e^(lam h) plus one sample.  The direct rows
# evaluate every sample, as kernel_terms does.  The two agree bit for bit
# when lam is 0, and within RTOL of the largest value compared when lam < 0,
# where the recurrence rounds differently; a failure is the same either way.
RTOL = 1e-12


def direct(problem):
    """problem on the direct rows: no kernel_x_rate."""
    return dataclasses.replace(problem, kernel_x_rate=None)


def assert_agree(got, want, rate):
    """got == want where the recurrence keeps the reference's arithmetic,
    else every entry within RTOL of the largest |want|."""
    if rate is None or rate == 0.0:
        assert got == want
    else:
        bound = RTOL * max(map(abs, want))
        assert len(got) == len(want)
        assert all(abs(a - b) <= bound for a, b in zip(got, want)), (got, want)


def row_paths_end_alike(run, problem, *args):
    """The outcome of run(direct(problem), *args), after checking that
    run(problem, *args), on the rows of its kernel_x_rate, ends alike: an
    error of the same class, message, step_index and x, the same doubles,
    or, where the rate is negative, values that assert_agree."""
    got = outcome(lambda: run(problem, *args))
    want = outcome(lambda: run(direct(problem), *args))
    rate = problem.kernel_x_rate
    if rate and got[0] == want[0] == "values":
        assert_agree(_unpacked(got[1]), _unpacked(want[1]), rate)
    else:
        assert got == want
    return want


# ---------------------------------------------------------------------------
# One maker and one cache, expressions._loop_of, make every grid loop and
# step loop once per process for each shape.  recorded_loops records each
# lookup there as (shape, made), made if the cache missed, and the shape is
# "grid" for a grid loop and (mode, row path, closure, lines) for a step
# loop: a FirstStepMode, "recur" or "direct", solve or solve_implicit, and
# "calls" for the call-site loop or "tree".  made_once checks the contract.
_LOOP_CACHE = expressions._loop_of


class LoopRecord(list):
    """The (shape, made) of each lookup in a block, and in written the
    (g, K) trees of each stepper._written call."""

    def made(self) -> set:
        """The shapes of the loops made, after checking none was made twice."""
        shapes = [shape for shape, made in self if made]
        assert len(shapes) == len(set(shapes)), shapes
        return set(shapes)


@contextlib.contextmanager
def recorded_loops(empty=True):
    """The LoopRecord of the block, from an emptied cache unless empty is
    False; blocks may nest."""
    loop_of, written, record = expressions._loop_of, stepper._written, LoopRecord()
    record.written = []
    if empty:
        _LOOP_CACHE.cache_clear()

    def looked_up(source, *key):
        misses, shape = _LOOP_CACHE.cache_info().misses, "grid"
        if source is not expressions._grid_source:
            literal, recur, implicit, lines = key
            shape = (
                FirstStepMode.LITERAL if literal else FirstStepMode.CORRECTED,
                "recur" if recur else "direct",
                oracle.solve_implicit if implicit else stepper.solve,
                "calls" if lines is stepper._CALLS else "tree",
            )
        loop = loop_of(source, *key)
        record.append((shape, _LOOP_CACHE.cache_info().misses > misses))
        return loop

    def writing(*trees):
        record.written.append(trees)
        return written(*trees)

    with mock.patch.multiple(expressions, _loop_of=looked_up):
        with mock.patch.multiple(stepper, _loop_of=looked_up, _written=writing):
            yield record


def made_once(shapes, run, *again):
    """Check that run(), from an emptied cache, makes one loop of each of
    shapes, and that each of again, by default run itself, then makes none."""
    with recorded_loops() as loops:
        run()
    assert loops.made() == set(shapes)
    for rerun in again or (run,):
        with recorded_loops(empty=False) as loops:
            rerun()
        assert loops.made() == set()


def isfinite_calls(loop, points):
    """How often the grid loop loop calls _isfinite, which it takes as an
    argument, over points grid points."""
    calls = []

    def counting(value):
        calls.append(value)
        return math.isfinite(value)

    args = [counting if arg is math.isfinite else arg for arg in loop.args]
    loop.func(*args, 1 - points, 0, 0.0, 1.0 / points)
    return len(calls)


# ---------------------------------------------------------------------------
# x-dependent kernels over several delays, with u = e^(a x) and phi = exact:
# g = a u - F(x), F the integral of K(x, t, e^(a (t - tau))) over [0, x],
# and E = e^(-a tau).  (x - t) v and sin(x - t) v take the direct rows, and
# so do x v and cos(x) v, whose x-only factor leaves F a product; e^(t - x) v
# takes the rate -1 and e^(-t) v the rate 0 (ROADMAP items 13 and 16).
# Each family is (seed, K, F), the seed fixing its draw of a, c and tau.
CLOSED_FORMS = {
    "lag": (3, "{c}*(x - t)*v", "{c}*{E}*(exp({a}*x) - 1 - {a}*x)/({a})^2"),
    "sine": (4, "{c}*sin(x - t)*v", "{c}*{E}*(exp({a}*x) - cos(x) - {a}*sin(x))/(1 + ({a})^2)"),
    "decay": (1, "{c}*exp(t - x)*v", "{c}*{E}*(exp({a}*x) - exp(-x))/({a} + 1)"),
    "fixed": (2, "{c}*exp(-t)*v", "{c}*{E}*(exp(({a} - 1)*x) - 1)/({a} - 1)"),
    "xfactor": (5, "{c}*x*v", "{c}*{E}*x*(exp({a}*x) - 1)/({a})"),
    "cosx": (6, "{c}*cos(x)*v", "{c}*{E}*cos(x)*(exp({a}*x) - 1)/({a})"),
}


@pytest.fixture(params=sorted(CLOSED_FORMS))
def closed_form(request):
    """The ProblemConfig of a problem with a kernel of CLOSED_FORMS over
    three or four delays, a, c and tau drawn from its seed, a kept from the
    poles of F at 0, -1 and 1."""
    seed, K, F = CLOSED_FORMS[request.param]
    rng = random.Random(seed)
    a = rng.choice([-1, 1]) * round(rng.uniform(0.15, 0.4), 4)
    c, tau = round(rng.uniform(0.1, 0.5), 4), rng.choice([0.25, 0.5])
    values = dict(a=repr(a), c=repr(c), E=repr(math.exp(-a * tau)))
    return registry.ProblemConfig(
        name=request.param,
        g=f"{a!r}*u - {F.format(**values)}",
        K=K.format(**values),
        phi=f"exp({a!r}*x)",
        exact=f"exp({a!r}*x)",
        tau=tau,
        x0=0.0,
        X=rng.choice([3, 4]) * tau,
    )
