import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BINDING_VALUES,
    DOMAIN_ERROR_CASES,
    EVAL_CASES,
    HIDDEN_OVERFLOWS,
    PARAMS,
    PARSE_ERROR_CASES,
    PARSE_ERROR_MESSAGES,
    ROUND_TRIP_ONLY,
    WHITESPACE_CASES,
    reference_evaluate,
    trees,
)
from vdide.expressions import (
    BinOp,
    Call,
    Const,
    DomainError,
    ExpressionError,
    ExpressionSyntaxError,
    Neg,
    Num,
    UnboundVariable,
    UnknownFunction,
    UnknownVariable,
    Var,
    evaluate,
    parse,
    unparse,
    variables,
)

ALL_VALID = [text for text, _, _ in EVAL_CASES] + ROUND_TRIP_ONLY


@pytest.mark.parametrize("text,bindings,expected", EVAL_CASES)
def test_evaluates_exactly(text, bindings, expected):
    assert evaluate(parse(text), bindings) == expected


@pytest.mark.parametrize("text", ALL_VALID)
def test_round_trip_preserves_tree(text):
    tree = parse(text)
    assert parse(unparse(tree)) == tree


@pytest.mark.parametrize("text,bindings,expected", EVAL_CASES)
def test_round_trip_preserves_value(text, bindings, expected):
    rendered = unparse(parse(text))
    assert evaluate(parse(rendered), bindings) == expected


def as_parsed(tree):
    """The tree parse builds for unparse(tree).

    The grammar has no negative literals, so a number with its sign bit set
    comes back as the negation of its magnitude; everything else is kept.
    """
    if isinstance(tree, Num):
        if math.copysign(1.0, tree.value) < 0:
            return Neg(Num(-tree.value))
        return tree
    if isinstance(tree, Neg):
        return Neg(as_parsed(tree.operand))
    if isinstance(tree, BinOp):
        return BinOp(tree.op, as_parsed(tree.left), as_parsed(tree.right))
    if isinstance(tree, Call):
        return Call(tree.func, as_parsed(tree.arg))
    return tree


@settings(max_examples=500, deadline=None)
@given(trees.map(as_parsed))
def test_generated_trees_round_trip(tree):
    assert parse(unparse(tree)) == tree


@pytest.mark.parametrize("text,exc_type", PARSE_ERROR_CASES)
def test_parse_errors(text, exc_type):
    with pytest.raises(exc_type) as info:
        parse(text)
    assert str(info.value) == PARSE_ERROR_MESSAGES[text]
    assert str(info.value).endswith(f"(at offset {info.value.offset})")


@pytest.mark.parametrize("text,plain", WHITESPACE_CASES)
def test_any_whitespace_separates_tokens(text, plain):
    assert parse(text) == parse(plain)


@pytest.mark.parametrize("text,bindings", DOMAIN_ERROR_CASES)
def test_domain_errors(text, bindings):
    tree = parse(text)
    with pytest.raises(DomainError):
        evaluate(tree, bindings)


class TestTreeShapes:
    def test_power_is_right_associative(self):
        assert parse("2^3^2") == BinOp(
            "^", Num(2.0), BinOp("^", Num(3.0), Num(2.0))
        )

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == Neg(BinOp("^", Var("x"), Num(2.0)))

    def test_subtraction_is_left_associative(self):
        assert parse("2 - 3 - 4") == BinOp(
            "-", BinOp("-", Num(2.0), Num(3.0)), Num(4.0)
        )

    def test_division_is_left_associative(self):
        assert parse("x/t/u") == BinOp(
            "/", BinOp("/", Var("x"), Var("t")), Var("u")
        )

    def test_call_and_constant(self):
        assert parse("exp(pi)") == Call("exp", Const("pi"))

    def test_whitespace_is_insignificant(self):
        assert parse("  2+3 * 4 ") == parse("2 + 3*4")

    def test_number_forms(self):
        assert parse(".5") == Num(0.5)
        assert parse("2.") == Num(2.0)
        assert parse("1e3") == Num(1000.0)
        assert parse("1E+3") == Num(1000.0)
        assert parse("1.25e-2") == Num(0.0125)


class TestErrorDetails:
    def test_unknown_variable_is_not_a_syntax_error(self):
        # a bad name inside valid syntax is a semantic error
        with pytest.raises(UnknownVariable) as info:
            parse("(a)")
        assert not isinstance(info.value, ExpressionSyntaxError)
        assert info.value.offset == 1

    def test_unknown_function_offset(self):
        with pytest.raises(UnknownFunction) as info:
            parse("1 + foo(x)")
        assert info.value.offset == 4

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("2 + @")
        assert info.value.offset == 4

    def test_unbound_variable(self):
        tree = parse("x + u")
        with pytest.raises(UnboundVariable):
            evaluate(tree, {"x": 1.0})

    def test_domain_error_names_the_subexpression(self):
        tree = parse("1 + log(x)")
        with pytest.raises(DomainError) as info:
            evaluate(tree, {"x": 0.0})
        assert "log(x)" in str(info.value)

    def test_errors_share_a_base_type(self):
        for exc in (
            ExpressionSyntaxError("m", 0),
            UnknownFunction("m", 0),
            UnknownVariable("m", 0),
            UnboundVariable("m"),
            DomainError("m"),
        ):
            assert isinstance(exc, ExpressionError)


class TestEvaluation:
    def test_deterministic(self):
        tree = parse("exp(sin(x) + cos(t))/(1 + v^2)")
        bindings = {"x": 0.3, "t": 0.7, "v": 1.1}
        assert evaluate(tree, bindings) == evaluate(tree, bindings)

    def test_results_are_finite_or_domain_error(self):
        # overflow via multiplication has no exception of its own; the
        # finiteness guard must convert it
        tree = parse("x*x")
        with pytest.raises(DomainError):
            evaluate(tree, {"x": 1e200})

    def test_negative_base_integer_exponent_is_fine(self):
        assert evaluate(parse("(-x)^2"), {"x": 3.0}) == 9.0
        assert evaluate(parse("(0 - 2)^3"), {}) == -8.0

    def test_negative_base_fractional_exponent_raises(self):
        with pytest.raises(DomainError):
            evaluate(parse("(0 - 8)^(1/3)"), {})


class TestVariables:
    def test_collects_all(self):
        assert variables(parse("x*(t + v)/(u - 1)")) == {"x", "t", "u", "v"}

    def test_constants_are_not_variables(self):
        assert variables(parse("2 + pi*e")) == frozenset()

    def test_nested(self):
        assert variables(parse("exp(sin(v))")) == {"v"}


def test_ast_nodes_are_immutable():
    node = parse("x + 1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.op = "*"


# evaluate against the reference walker in helpers: the same float bit for
# bit, sign of zero and NaN payload included, or the same exception class
# with the same message.


def walk(fn, tree, bindings):
    try:
        return "value", struct.pack("<d", fn(tree, bindings))
    except Exception as exc:
        return "error", type(exc), str(exc)


def assert_walks_like_the_reference(tree, bindings):
    got = walk(evaluate, tree, bindings)
    assert got == walk(reference_evaluate, tree, bindings), (tree, bindings, got)


@settings(max_examples=1000, deadline=None)
@given(
    trees,
    st.tuples(*[BINDING_VALUES] * len(PARAMS)),
    st.integers(0, len(PARAMS)),
)
def test_generated_trees_evaluate_like_the_reference(tree, values, bound):
    # binding only the first `bound` names also draws unbound variables
    assert_walks_like_the_reference(tree, dict(zip(PARAMS[:bound], values)))


@pytest.mark.parametrize(
    "text,bindings",
    [(t, b) for t, b, _ in EVAL_CASES]
    + DOMAIN_ERROR_CASES
    + [(text, {"x": 1e200}) for text in HIDDEN_OVERFLOWS]
    + [("x + u", {"x": 1.0}), ("-(x*0)", {"x": 1.0}), ("0*x - 0", {"x": -1.0})],
)
def test_corpus_evaluates_like_the_reference(text, bindings):
    assert_walks_like_the_reference(parse(text), bindings)

