"""compile_expression and the slot functions of a built problem, against
evaluate, and the plans through which loops compile g and K before their
first call.

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
from vdide import expressions, registry, stepper
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
    unparse,
)
from vdide.analysis import max_abs_error, order_study
from vdide.problem import (
    FirstStepMode,
    Trajectory,
    build_grid,
    init_trajectory,
    planned,
)
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


def slot_problem(g="log(u) + x", x_end=1.0):
    return parse_config_text(
        f"name = slot\ng = {g}\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = {x_end!r}\n"
    ).build()


def assert_walk_and_plan_match_evaluate(text, inputs):
    """A fresh slot's walk, and the code a plan compiles for it, against
    evaluate on every (x, u) of inputs."""
    g = slot_problem(text).g
    direct = planned(g, COMPILE_AFTER)
    assert direct is not g
    tree = parse(text)
    for x, u in inputs:
        want = outcome(evaluate, tree, {"x": x, "u": u})
        assert_same(outcome(g, x, u), want)
        assert_same(outcome(direct, x, u), want)


def test_the_walk_and_the_planned_code_match_evaluate_on_every_input():
    # every third input leaves the domain, so error text is checked on both
    # paths, and so is a value
    assert_walk_and_plan_match_evaluate(
        "log(u) + x",
        [(k * 0.125, -1.0 if k % 3 == 0 else k * 0.5) for k in range(1, 40)],
    )


def assert_a_dropped_problem_leaves_no_reference_cycles(h, compiles):
    """A problem, its trees, its slot functions and its compiled code are
    freed by reference counting alone, so a sweep of many problems leaves
    the cyclic collector nothing to find."""

    def build_and_solve():
        problem = slot_problem()
        solve(problem, build_grid(0.0, 1.0, 1.0, h))
        return problem.g.for_calls(0) is not None

    assert build_and_solve() == compiles
    gc.collect()
    gc.disable()
    try:
        compiled = build_and_solve()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert compiled == compiles


def test_a_dropped_compiled_problem_leaves_no_reference_cycles():
    # at h = 0.005 the plans reach COMPILE_AFTER: the solve writes g and K
    # into its generated loop, and for_calls(0) compiles g; phi runs its
    # grid loop at every h
    assert_a_dropped_problem_leaves_no_reference_cycles(0.005, True)


def test_a_dropped_walking_problem_leaves_no_reference_cycles():
    # at h = 0.05 the solve plans 60 calls of g and 21 of K, so both hold a
    # planned total and neither compiles
    assert_a_dropped_problem_leaves_no_reference_cycles(0.05, False)


@pytest.fixture
def compiles(monkeypatch):
    """The params of each compile_expression call a built problem makes."""
    made = []

    def counted(tree, params):
        made.append(params)
        return compile_expression(tree, params)

    monkeypatch.setattr(registry, "compile_expression", counted)
    return made


@pytest.mark.parametrize("walked", [0, 60, COMPILE_AFTER - 1])
def test_a_plan_reaching_compile_after_compiles_before_the_first_call(
    compiles, walked
):
    # unplanned calls before the plan neither count towards it nor compile
    g = slot_problem().g
    for _ in range(walked):
        g(0.5, 2.0)
    assert compiles == []
    direct = planned(g, COMPILE_AFTER)
    assert compiles == [("x", "u")]
    assert direct is not g and direct.__name__ == "_compiled"
    assert planned(g, 1) is direct  # compiled once, handed to every loop
    want = evaluate(parse("log(u) + x"), {"x": 0.5, "u": 2.0})
    assert direct(0.5, 2.0) == g(0.5, 2.0) == want
    assert compiles == [("x", "u")]


def test_plans_add_up_and_compile_once_when_they_reach_compile_after(compiles):
    g = slot_problem().g
    assert planned(g, 50) is g
    assert planned(g, 50) is g
    for _ in range(100):
        g(0.5, 2.0)
    assert compiles == []
    direct = planned(g, 50)  # 150 planned calls
    assert compiles == [("x", "u")] and direct is not g
    assert planned(g, 50) is planned(g, 0) is direct
    assert compiles == [("x", "u")]


@pytest.mark.parametrize("slot", ["g", "kernel", "history", "exact"])
def test_unplanned_calls_compile_nothing(compiles, slot):
    # phi and exact plan nothing at all: a loop over the grid writes them in
    problem = parse_config_text(
        "name = walk\ng = u*x\nK = v - t\nphi = 1 + x\nexact = 1 + x\n"
        "tau = 1\nx0 = 0\nX = 1\n"
    ).build()
    fn = getattr(problem, slot)
    args = {"g": (0.5, 2.0), "kernel": (0.5, 0.25, 2.0)}.get(slot, (0.5,))
    for _ in range(10 * COMPILE_AFTER):
        fn(*args)
    assert compiles == []
    assert planned(fn, 0) is fn
    assert compiles == []


@pytest.mark.parametrize("mode", list(FirstStepMode))
def test_a_solve_plans_the_g_calls_it_makes(monkeypatch, mode):
    # counting plain callables see every call; the DGJ loop makes 3 a step,
    # the oracle at least that many on example2
    plans = {}

    def recording(fn, calls):
        plans[fn] = calls
        return planned(fn, calls)

    monkeypatch.setattr(stepper, "planned", recording)
    problem = registry.builtin_problem("example2").build()
    made = []

    def g(x, u):
        made.append(x)
        return problem.g(x, u)

    counted = dataclasses.replace(problem, g=g)
    grid = build_grid(0.0, 1.0, 1.0, 0.025)
    solve(counted, grid, mode)
    assert len(made) == plans[g] == 3 * grid.steps
    made.clear()
    solve_implicit(counted, grid, mode)
    assert len(made) >= plans[g] == 3 * grid.steps


def test_a_plain_callable_is_its_own_plan():
    def g(x, u):
        return x + u

    assert planned(g, 10**6) is g


STAMP_TEXT = (
    "name = stamp\ng = u\nK = v\nphi = log(x + 0.5)\nexact = log(0.5 - x)\n"
    "tau = 1\nx0 = 0\nX = 1\n"
)


def stamp_failure(slot, h):
    """(message, slot, x) of the DomainError that init_trajectory (phi) or
    max_abs_error (exact) raises at step h."""
    problem = parse_config_text(STAMP_TEXT).build()
    grid = build_grid(0.0, 1.0, 1.0, h)
    with pytest.raises(DomainError) as info:
        if slot == "phi":
            init_trajectory(problem, grid)
        else:
            max_abs_error(zero_trajectory(grid), problem.exact)
    exc = info.value
    return str(exc), exc.slot, exc.x


def zero_trajectory(grid):
    """A filled trajectory of zeros on grid."""
    history = [0.0] * (grid.delay_steps + 1)
    traj = Trajectory(grid, FirstStepMode.LITERAL, history)
    for _ in range(grid.steps):
        traj.append(0.0)
    return traj


@pytest.mark.parametrize(
    "slot, x", [pytest.param("phi", -1.0, id="phi"), pytest.param("exact", 0.5, id="exact")]
)
def test_a_planned_phi_or_exact_names_its_slot_and_x_on_failure(slot, x):
    # the slot's grid loop raises math.log's bare ValueError, and the walk
    # that reruns raises the DomainError with slot and x, on a grid of 201
    # or 200 points (h = 0.005) as on one of 11 or 10 (h = 0.1)
    problem = parse_config_text(STAMP_TEXT).build()
    fn = problem.history if slot == "phi" else problem.exact
    with pytest.raises(DomainError) as info:
        fn(x)
    assert (info.value.slot, info.value.x) == (slot, x)
    grid = build_grid(0.0, 1.0, 1.0, 0.005)
    with pytest.raises(ValueError, match="^math domain error$"):
        if slot == "phi":
            fn.on_grid()(-grid.delay_steps, 0, 0.0, 0.005)
        else:
            fn.on_grid()(zero_trajectory(grid)._values, 200, 1, 200, 0.0, 0.005)
    want = (str(info.value), slot, x)
    assert stamp_failure(slot, 0.005) == stamp_failure(slot, 0.1) == want


def sweep_text(tau, delays, a=0.1234, c=0.3):
    """A problem of perfbench/gen.py's family, u = e^(a x), as its sweep
    writes it."""
    b, d = 2.0 * a * tau, 2.0 * a + 1.0
    return (
        f"name = sweep\ng = {a!r}*u - {c!r}*exp({-b!r} - x)*(exp({d!r}*x) - 1)/{d!r}\n"
        f"K = {c!r}*exp(t - x)*v^2\nphi = exp({a!r}*x)\nexact = exp({a!r}*x)\n"
        f"tau = {tau!r}\nx0 = 0.0\nX = {delays * tau!r}\n"
    )


@pytest.mark.parametrize("tau, delays", [(1.0, 2), (0.5, 3), (0.25, 4)])
def test_a_sweep_op_compiles_g_once_and_k_phi_and_exact_never(
    compiles, tau, delays
):
    # an op's plans reach COMPILE_AFTER for g (3 calls a step: in the order
    # study at four delays, 24 + 48 + 96, and only in solve at two and three)
    # and fall short of it for K (at most 9 + 17 + 33 + 33 + 33 = 125 at
    # four delays); phi and exact run their grid loops and plan nothing
    problem = parse_config_text(sweep_text(tau, delays)).build()
    hs = [tau / 2, tau / 4, tau / 8]
    estimate = order_study(problem, FirstStepMode.LITERAL, hs)
    grid = build_grid(0.0, delays * tau, tau, tau / 8)
    solve(problem, grid)
    solve_implicit(problem, grid)
    assert compiles == [("x", "u")]
    assert abs(estimate.slope - 2.0) < 0.2


@pytest.mark.parametrize("run", [solve, solve_implicit])
def test_a_solve_failing_on_compiled_code_reports_what_evaluate_would(run):
    # log(2 - x) fails at x = 2, first as g(x_{j+1}, .) of step 199, after
    # hundreds of g calls on the compiled path
    problem = slot_problem("log(2 - x) + 0*u", x_end=3.0)
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


def test_the_walk_and_the_planned_code_match_evaluate_on_a_long_sum():
    # every third input the sum overflows part way, at about 180 terms
    assert_walk_and_plan_match_evaluate(
        LONG_SUM,
        [(1e306, 0.0) if k % 3 == 0 else (k * 0.125, -k * 0.5) for k in range(1, 40)],
    )


def test_solve_on_a_long_sum_prints_what_a_walking_solve_prints(
    capsys, tmp_path, monkeypatch
):
    # 80 steps plan 240 calls of g, so g compiles before the loop; a solve
    # whose g never compiles prints the reference output
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



@pytest.mark.parametrize(
    "argv",
    [
        "solve --problem example2 --h 0.005 --first-step corrected",
        "compare --problem example2 --h 0.005",
        "order --problem example2 --h 0.01,0.005",
        "table --problem example2 --h 0.005",
    ],
)
def test_planned_commands_print_what_walking_commands_print(
    capsys, monkeypatch, argv
):
    # at h = 0.005 the plans of g and K (600 and 201 calls) reach
    # COMPILE_AFTER, so the solve runs its tree loop; with the threshold out
    # of reach it runs the call-site loop, whose calls walk.  phi and exact
    # run their grid loops either way
    outputs = []
    for compile_after in (COMPILE_AFTER, 10**9):
        monkeypatch.setattr(registry, "COMPILE_AFTER", compile_after)
        code = main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        lines = captured.out.splitlines()
        outputs.append([ln for ln in lines if not ln.startswith("# elapsed")])
    assert outputs[0] == outputs[1]


# CPython compiles each generated source once per process: the source names
# numbers, constants and functions only through generated globals, so trees
# of one shape share one code object, executed into a namespace per tree.


@pytest.fixture
def code_cache():
    """The compile cache, emptied, so its counters start from zero."""
    expressions._code.cache_clear()
    return expressions._code


# One shape: neither log nor sqrt can hide a non-finite argument, so their
# generated lines agree; the literals differ.
ONE_SHAPE = ["log(x - 0.5)*u + 2", "sqrt(x - 1.5)*u + 0.25", "log(x - 2.5)*u + 4"]


def test_trees_of_one_shape_compile_once_and_keep_their_own_values(code_cache):
    compiled = [compile_expression(parse(text), ("x", "u")) for text in ONE_SHAPE]
    assert code_cache.cache_info()[:2] == (2, 1)  # hits, misses
    assert len({fn.__code__ for fn in compiled}) == 1
    for text, fn in zip(ONE_SHAPE, compiled):
        tree = parse(text)
        # values, a domain error of the call and an overflow of the product
        for x, u in [(3.0, 0.5), (7.25, -2.0), (0.25, 1.0), (100.0, 1e308)]:
            want = outcome(evaluate, tree, {"x": x, "u": u})
            assert_same(outcome(fn, x, u), want)


def test_a_domain_error_names_its_own_trees_text(code_cache):
    compiled = [compile_expression(parse(text), ("x", "u")) for text in ONE_SHAPE]
    for text, fn in zip(ONE_SHAPE, compiled):
        call = unparse(parse(text).left.left)
        with pytest.raises(DomainError) as info:
            fn(0.25, 1.0)
        assert str(info.value).startswith(f"cannot evaluate {call!r} at argument")


def test_the_code_cache_stays_within_its_bound(code_cache):
    # each i spells a different sequence of five operators, so a new shape
    bound = code_cache.cache_info().maxsize
    for i in range(bound + 20):
        ops = ["+-*/"[(i >> (2 * k)) & 3] for k in range(5)]
        compile_expression(parse("x" + "".join(f" {op} x" for op in ops)), ("x",))
    info = code_cache.cache_info()
    assert (info.misses, info.currsize) == (bound + 20, bound)


def test_dropped_problems_sharing_cached_code_leave_no_reference_cycles(
    code_cache,
):
    def build_and_plan(a):
        problem = parse_config_text(sweep_text(1.0, 2, a=a)).build()
        compiled = [planned(fn, COMPILE_AFTER) for fn in (problem.g, problem.kernel)]
        loops = [problem.history.on_grid(), problem.exact.on_grid()]
        return [fn.__name__ for fn in compiled + loops]

    made = ["_compiled", "_compiled", "_loop", "_loop"]
    assert build_and_plan(0.1) == made
    gc.collect()
    gc.disable()
    try:
        for a in (0.2, 0.3, 0.4):
            assert build_and_plan(a) == made
        assert gc.collect() == 0
    finally:
        gc.enable()
    # g, K, phi's history loop and exact's error loop: four shapes
    assert code_cache.cache_info()[:2] == (12, 4)


def test_solves_sharing_cached_code_match_solves_that_compile_afresh(
    compiles, code_cache
):
    # three problems of one shape, at h = tau/80: each problem's solve and
    # oracle write g (720 planned calls) and K (241) into one generated loop
    # shape each, and phi runs its grid loop, made on the problem's first run
    literals = [(0.1234, 0.3), (0.05, 0.7), (0.2, 0.15)]
    texts = [sweep_text(0.5, 3, a, c) for a, c in literals]
    grid = build_grid(0.0, 1.5, 0.5, 0.5 / 80)
    runs = [(solve, 0), (solve_implicit, 1), (solve, 2),
            (solve_implicit, 0), (solve, 1), (solve_implicit, 2)]
    problems = [parse_config_text(text).build() for text in texts]
    shared = [run(problems[i], grid).values for run, i in runs]
    # each closure's three loops share one source, and the three phis one:
    # one miss and two hits each; nothing calls compile_expression
    assert compiles == [] and code_cache.cache_info()[:2] == (6, 3)
    afresh = []
    for run, i in runs:
        code_cache.cache_clear()
        afresh.append(run(parse_config_text(texts[i]).build(), grid).values)
    assert shared == afresh
    assert len(set(shared)) == 6


def test_walked_solves_build_each_call_site_loop_once_outside_the_code_cache(
    code_cache,
):
    # at h = tau/2 no plan reaches COMPILE_AFTER (g: 4 x 18 calls), so both
    # solvers run their call-site loops: one per closure, built on its
    # first solve and kept.  The code cache sees only phi's grid loop, which
    # the problem makes on its first solve and keeps
    problem = parse_config_text(sweep_text(0.5, 3)).build()
    grid = build_grid(0.0, 1.5, 0.5, 0.5 / 2)
    stepper._call_site_loop.cache_clear()
    try:
        shared = [run(problem, grid).values for run in (solve, solve_implicit) * 2]
        assert stepper._call_site_loop.cache_info()[:2] == (2, 2)  # hits, misses
    finally:
        stepper._call_site_loop.cache_clear()
    assert code_cache.cache_info()[:2] == (0, 1)
    assert shared[:2] == shared[2:]
