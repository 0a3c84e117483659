"""compile_expression and the tier that switches to it, against evaluate.

evaluate is the reference: on every tree and every bindings, the compiled
function must return the same float, bit for bit and with the same sign of
zero, or raise a DomainError with the same text.
"""

import dataclasses
import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BINDING_VALUES,
    DOMAIN_ERROR_CASES,
    EVAL_CASES,
    HIDDEN_OVERFLOWS,
    PARAMS,
    trees,
)
from vdide import registry
from vdide.cli import main
from vdide.expressions import (
    BinOp,
    Call,
    DomainError,
    Neg,
    UnboundVariable,
    compile_expression,
    evaluate,
    parse,
)
from vdide.problem import build_grid
from vdide.registry import COMPILE_AFTER, parse_config_text
from vdide.oracle import solve_implicit
from vdide.stepper import solve


def outcome(fn, *args):
    """("value", v) or ("error", text) of fn(*args); DomainError only."""
    try:
        return "value", fn(*args)
    except DomainError as exc:
        return "error", str(exc)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    a, b = got[1], want[1]
    assert (a == b or (math.isnan(a) and math.isnan(b))), (a, b)
    assert math.copysign(1.0, a) == math.copysign(1.0, b), (a, b)


def assert_compiles_like_evaluate(tree, bindings):
    params = tuple(bindings)
    args = tuple(bindings.values())
    compiled = compile_expression(tree, params)
    assert_same(outcome(compiled, *args), outcome(evaluate, tree, bindings))


@pytest.mark.parametrize(
    "text,bindings", [(t, b) for t, b, _ in EVAL_CASES] + DOMAIN_ERROR_CASES
)
def test_corpus_compiles_like_evaluate(text, bindings):
    assert_compiles_like_evaluate(parse(text), bindings)


@pytest.mark.parametrize("text", HIDDEN_OVERFLOWS)
def test_an_overflow_a_later_node_would_hide_is_reported(text):
    compiled = compile_expression(parse(text), ("x",))
    with pytest.raises(DomainError) as info:
        compiled(1e200)
    assert str(info.value) == "'x * x' evaluated to a non-finite value"


def test_params_must_cover_the_tree():
    with pytest.raises(UnboundVariable):
        compile_expression(parse("x + u"), ("x",))
    with pytest.raises(ValueError):
        compile_expression(parse("x"), ("x", "x"))
    with pytest.raises(ValueError):
        compile_expression(parse("x"), ("x", "y"))


# A left-associative sum is a tree as deep as it is long; its compiled
# source must not nest with it, or CPython refuses more than 200 levels of
# parentheses.
LONG_SUM = " + ".join(["x"] * 299 + ["u"])


def test_a_long_sum_compiles_like_evaluate():
    assert_compiles_like_evaluate(parse(LONG_SUM), {"x": 0.25, "u": -3.0})
    assert_compiles_like_evaluate(parse(LONG_SUM), {"x": 1e306, "u": 0.0})


def test_no_tree_text_reaches_the_source():
    # a number is bound by name, so the compiled function holds no constant
    compiled = compile_expression(parse("2*x + 3.5"), ("x",))
    assert compiled(1.0) == 5.5
    assert not any(isinstance(c, float) for c in compiled.__code__.co_consts)


# A node that can hide a non-finite operand, over an operand that can
# overflow to inf without raising, so that each check compile_expression
# places is exercised often.
overflowing = st.builds(BinOp, st.sampled_from("*+-/"), trees, trees)
hiding_trees = st.one_of(
    st.builds(BinOp, st.just("/"), trees, overflowing),
    st.builds(BinOp, st.just("^"), overflowing, trees),
    st.builds(BinOp, st.just("^"), trees, overflowing),
    st.builds(Call, st.sampled_from(["exp", "tanh"]), overflowing),
    st.builds(Call, st.sampled_from(["exp", "tanh"]), overflowing.map(Neg)),
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(trees, overflowing, hiding_trees),
    st.tuples(*[BINDING_VALUES] * len(PARAMS)),
)
def test_generated_trees_compile_like_evaluate(tree, values):
    assert_compiles_like_evaluate(tree, dict(zip(PARAMS, values)))


def tier_problem(g="log(u) + x", x_end=1.0):
    return parse_config_text(
        f"name = tier\ng = {g}\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = {x_end!r}\n"
    ).build()


def test_tier_matches_evaluate_on_every_call_across_the_switch():
    g = tier_problem().g
    tree = parse("log(u) + x")
    # every third call leaves the domain, so error text is checked on both
    # sides of the switch, and so is a value
    for call in range(1, COMPILE_AFTER + 6):
        x, u = call * 0.125, (-1.0 if call % 3 == 0 else call * 0.5)
        assert_same(outcome(g, x, u), outcome(evaluate, tree, {"x": x, "u": u}))


def test_a_dropped_compiled_problem_leaves_no_reference_cycles():
    # a problem, its trees and its compiled code are freed by reference
    # counting alone, so a sweep of many problems leaves the cyclic
    # collector nothing to find
    def build_and_solve():
        problem = tier_problem()
        solve(problem, build_grid(0.0, 1.0, 1.0, 0.01))
        cells = dict(zip(problem.g.__code__.co_freevars, problem.g.__closure__))
        return cells["compiled"].cell_contents is not None

    assert build_and_solve()  # 100 steps call g 300 times
    gc.collect()
    gc.disable()
    try:
        compiled = build_and_solve()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert compiled


def test_tier_runs_compiled_code_after_compile_after_calls():
    g = tier_problem().g
    compiled = dict(zip(g.__code__.co_freevars, g.__closure__))["compiled"]
    for _ in range(COMPILE_AFTER):
        assert compiled.cell_contents is None
        g(0.5, 2.0)
    assert compiled.cell_contents.__name__ == "_compiled"


@pytest.mark.parametrize("run", [solve, solve_implicit])
def test_a_solve_failing_on_compiled_code_reports_what_evaluate_would(run):
    # log(2 - x) fails at x = 2, first as g(x_{j+1}, .) of step 199, after
    # hundreds of g calls on the compiled path
    problem = tier_problem("log(2 - x) + 0*u", x_end=3.0)
    tree = parse("log(2 - x) + 0*u")
    walking = dataclasses.replace(
        problem, g=lambda x, u: evaluate(tree, {"x": x, "u": u})
    )
    grid = build_grid(0.0, 3.0, 1.0, 0.01)
    failures = []
    for variant in (problem, walking):
        with pytest.raises(DomainError) as info:
            run(variant, grid)
        failures.append((str(info.value), info.value.step_index, info.value.x))
    assert failures[0] == failures[1]
    assert failures[0][1:] == (199, 1.99)
    assert "log(2.0 - x)" in failures[0][0]


def test_tier_matches_evaluate_on_a_long_sum():
    g = tier_problem(LONG_SUM).g
    tree = parse(LONG_SUM)
    for call in range(1, COMPILE_AFTER + 6):
        # every third call the sum overflows part way, at about 180 terms
        x, u = (1e306, 0.0) if call % 3 == 0 else (call * 0.125, -call * 0.5)
        assert_same(outcome(g, x, u), outcome(evaluate, tree, {"x": x, "u": u}))


def test_solve_on_a_long_sum_prints_what_a_walking_solve_prints(
    capsys, tmp_path, monkeypatch
):
    # 80 steps call g 240 times, so g compiles part way; a solve whose g
    # never compiles prints the reference output
    config = tmp_path / "long.cfg"
    config.write_text(
        f"name = long\ng = {LONG_SUM}\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 0.5\n"
    )
    outputs = []
    for compile_after in (COMPILE_AFTER, 10**9):
        monkeypatch.setattr(registry, "COMPILE_AFTER", compile_after)
        code = main(["solve", "--problem", str(config), "--h", "0.00625"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]

