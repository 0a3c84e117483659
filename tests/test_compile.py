"""The code generated from expression trees (expressions._emit) against
evaluate, in the loops that write it: a grid loop (expressions.grid_loop)
and a solve's tree loop (stepper._step_loop).

evaluate is the reference.  Wherever it returns, a grid loop over the one
point x returns the same float, bit for bit and with the same sign of zero,
and wherever it raises a DomainError, the loop raises one of LOOP_FAILURES.
The solve of a built problem, whose g and K carry their trees, ends as the
solve of the walked problem (helpers.walking): the same doubles, or the
same exception, message, step_index and x (helpers.outcome).
"""

import dataclasses
import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BINDING_VALUES,
    DOMAIN_ERROR_CASES,
    EVAL_CASES,
    HIDDEN_OVERFLOWS,
    PARAMS,
    filled,
    made_once,
    outcome,
    recorded_loops,
    replay,
    slot_problem,
    tree_loop_ends_as_walking,
    trees,
    walking,
    walking_builds,
)
from vdide import expressions, registry, stepper
from vdide.cli import main
from vdide.expressions import (
    LOOP_FAILURES,
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    Var,
    evaluate,
    grid_loop,
    parse,
    unparse,
)
from vdide.analysis import max_abs_error
from vdide.problem import FirstStepMode, build_grid, init_trajectory
from vdide.registry import parse_config_text
from vdide.oracle import solve_implicit
from vdide.stepper import nnm_step, solve


def pinned(tree, bindings, keep=("x",)):
    """tree with every variable not in keep replaced by its value in
    bindings.  A variable and a number are both leaves, which neither
    evaluate nor the generated code checks, so the operations stay the
    same."""
    kind = type(tree)
    if kind is Var:
        return tree if tree.name in keep else Num(bindings[tree.name])
    if kind is BinOp:
        left, right = (pinned(side, bindings, keep) for side in (tree.left, tree.right))
        return BinOp(tree.op, left, right)
    if kind is Call:
        return Call(tree.func, pinned(tree.arg, bindings, keep))
    if kind is Neg:
        return Neg(pinned(tree.operand, bindings, keep))
    return tree


def assert_grid_loop_matches_evaluate(tree, bindings):
    """The grid loop of tree, its variables but x pinned, over the one
    point x, against evaluate at bindings."""
    want = outcome(lambda: evaluate(tree, bindings))
    loop = grid_loop(pinned(tree, bindings))
    try:
        # x0 + 0 * -0.0 is x0 itself, -0.0 included
        values = loop(0, 0, bindings.get("x", 0.0), -0.0)
    except LOOP_FAILURES:
        assert want[0] == "error", "the grid loop raised where evaluate returned"
    else:
        assert outcome(lambda: values) == want


def assert_one_step_solves_like_walking(tree, bindings):
    """The outcome of one step whose g is tree, its t and v pinned, and
    whose K is 0, from x_0 = x and u_0 = u, so that the first evaluation
    is g at bindings: the built problem's solve against the walked one's."""
    x0 = bindings.get("x", 0.0)
    h = max(1.0, abs(x0)) / 1024
    g, phi = pinned(tree, bindings, keep=("x", "u")), Num(bindings.get("u", 1.0))
    problem = slot_problem(g, Num(0.0), phi, tau=h, x0=x0, x_end=x0 + h)
    want = tree_loop_ends_as_walking(solve, problem, build_grid(x0, x0 + h, h, h))
    if outcome(lambda: evaluate(tree, bindings))[0] == "error":
        assert want[0] == "error" and want[3:] == (0, x0, None)
    return want


@pytest.mark.parametrize(
    "text,bindings", [(t, b) for t, b, _ in EVAL_CASES] + DOMAIN_ERROR_CASES
)
def test_the_corpus_runs_in_generated_loops_as_evaluate_runs(text, bindings):
    assert_grid_loop_matches_evaluate(parse(text), bindings)
    assert_one_step_solves_like_walking(parse(text), bindings)


@pytest.mark.parametrize("text", HIDDEN_OVERFLOWS)
def test_an_overflow_a_later_node_would_hide_is_reported(text):
    tree = parse(text)
    with pytest.raises(LOOP_FAILURES):
        grid_loop(tree)(0, 0, 1e200, -0.0)
    assert assert_one_step_solves_like_walking(tree, {"x": 1e200}) == (
        "error", DomainError, "'x * x' evaluated to a non-finite value", 0, 1e200, None
    )


# A left-associative sum is a tree as deep as it is long; its generated
# source must not nest with it, or CPython refuses more than 200 levels of
# parentheses.
LONG_SUM = " + ".join(["x"] * 299 + ["u"])


def test_a_long_sum_runs_in_generated_loops_as_evaluate_runs():
    for bindings in ({"x": 0.25, "u": -3.0}, {"x": 1e306, "u": 0.0}):
        assert_grid_loop_matches_evaluate(parse(LONG_SUM), bindings)
        assert_one_step_solves_like_walking(parse(LONG_SUM), bindings)


# g trees that _emit splits: a sum of 200 terms each with u, and the "^"
# chain at the depth bound, every level of which holds u.
SUM_OF_200 = " + ".join(["u*sin(x)"] * 200)
POWER_CHAIN = "^".join(["u"] + ["1"] * (registry._MAX_DEPTH - 1))


def test_g_is_split_in_one_pass_without_asking_for_variables(monkeypatch):
    # _emit decides bottom-up which lines hold no variable and which no u,
    # from the levels of each node's operands, so it never walks a subtree
    # for its variables
    texts = [(text, bindings) for text, bindings, _ in EVAL_CASES]
    texts += [(text, {}) for text in (SUM_OF_200, POWER_CHAIN, LONG_SUM)]
    gs = [pinned(parse(text), bindings, keep=("x", "u")) for text, bindings in texts]
    K = parse("v")

    def walked(*args):
        raise AssertionError("_emit walked a subtree for its variables")

    monkeypatch.setattr(expressions, "_variables_within", walked)
    for g in gs:
        for shape in itertools.product((True, False), repeat=3):
            stepper._loop_source(*shape, stepper._written(g, K)[0])
        once: list[str] = []
        split: list[str] = []
        body: list[str] = []
        levels = [("_o", once), ("_s", split), ("_v", body)]
        xu = {"x": ("{x}", 1, True, False), "u": ("{u}", 2, None, False)}
        expressions._emit(g, levels, {}, xu, False, [])
        # once holds no variable and split no u; every line of body needs u,
        # directly or not
        assert not any("{" in line or "_s" in line or "_v" in line for line in once)
        assert not any("{u}" in line or "_v" in line for line in split)
        for line in body:
            if not line.startswith("if "):
                value = line.partition(" = ")[2]
                assert "{u}" in value or "_v" in value, line


# A node that can hide a non-finite operand, over an operand that can
# overflow to inf without raising, so that each check _emit places is
# exercised often.
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
def test_generated_trees_run_in_grid_loops_as_evaluate_runs(tree, values):
    assert_grid_loop_matches_evaluate(tree, dict(zip(PARAMS, values)))


def config_problem(g="log(u) + x", x_end=1.0, exact=None):
    exact_line = "" if exact is None else f"exact = {exact}\n"
    return parse_config_text(
        f"name = slot\ng = {g}\nK = v\nphi = 1\n{exact_line}"
        f"tau = 1\nx0 = 0\nX = {x_end!r}\n"
    ).build()


def assert_walk_and_tree_loop_match_evaluate(text, inputs):
    """A built g's walk against evaluate, and one step from each (x, u)
    against the walked step, on every (x, u) of inputs."""
    g = config_problem(text).g
    tree = parse(text)
    for x, u in inputs:
        bindings = {"x": x, "u": u}
        assert outcome(lambda: g(x, u)) == outcome(lambda: evaluate(tree, bindings))
        assert_one_step_solves_like_walking(tree, bindings)


def test_the_walk_and_the_tree_loop_match_evaluate_on_every_input():
    # every third input leaves the domain, so error text is checked on both
    # paths, and so is a value
    assert_walk_and_tree_loop_match_evaluate(
        "log(u) + x",
        [(k * 0.125, -1.0 if k % 3 == 0 else k * 0.5) for k in range(1, 40)],
    )


@pytest.mark.parametrize("mode", list(FirstStepMode))
def test_a_solve_of_plain_callables_calls_g_three_times_a_step(mode):
    # a plain g runs the call-site loop, which calls it for M1 and for the
    # DGJ pair's two substitutions; the oracle at least that often
    problem = registry.builtin_problem("example2").build()
    made = []

    def g(x, u):
        made.append(x)
        return problem.g(x, u)

    counted = dataclasses.replace(problem, g=g)
    grid = build_grid(0.0, 1.0, 1.0, 0.025)
    solve(counted, grid, mode)
    assert len(made) == 3 * grid.steps
    made.clear()
    solve_implicit(counted, grid, mode)
    assert len(made) >= 3 * grid.steps


STAMP_TEXT = (
    "name = stamp\ng = u\nK = v\nphi = log(x + 0.5)\nexact = log(0.5 - x)\n"
    "tau = 1\nx0 = 0\nX = 1\n"
)


def stamp_failure(slot, h):
    """The outcome of init_trajectory (phi) or max_abs_error (exact) at step
    h."""
    problem = parse_config_text(STAMP_TEXT).build()
    grid = build_grid(0.0, 1.0, 1.0, h)
    if slot == "phi":
        return outcome(lambda: init_trajectory(problem, grid))
    return outcome(lambda: max_abs_error(filled(grid, lambda j: 0.0), problem.exact))


@pytest.mark.parametrize(
    "slot, x", [pytest.param("phi", -1.0, id="phi"), pytest.param("exact", 0.5, id="exact")]
)
def test_a_failing_phi_or_exact_grid_loop_names_its_slot_and_x(slot, x):
    # the grid loop of the slot's tree raises math.log's bare ValueError,
    # and the walk that reruns raises the DomainError with slot and x, on a
    # grid of 201 or 200 points (h = 0.005) as on one of 11 or 10 (h = 0.1)
    problem = parse_config_text(STAMP_TEXT).build()
    fn = problem.history if slot == "phi" else problem.exact
    want = outcome(lambda: fn(x))
    assert want[:2] == ("error", DomainError) and want[4:] == (x, slot)
    grid = build_grid(0.0, 1.0, 1.0, 0.005)
    first, last = (-grid.delay_steps, 0) if slot == "phi" else (1, grid.steps)
    with pytest.raises(ValueError, match="^math domain error$"):
        grid_loop(fn.tree)(first, last, 0.0, 0.005)
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


def test_the_diagonal_sample_of_a_sweep_kernel_calls_no_exp():
    # on the diagonal t = x, exp(t - x) is exp(0.0) at every sample, so the
    # step loop evaluates it once per solve and kd_site, the diagonal
    # sample's lines, calls no exp
    problem = parse_config_text(sweep_text(1.0, 2)).build()
    lines, values = stepper._written(problem.g.tree, problem.kernel.tree)
    names, kd_site = lines[0], lines[5]
    exps = [name for name, value in zip(names, values) if value is math.exp]
    assert exps and not any(f"{name}(" in kd_site for name in exps)


def step_loops(mode, row, lines, runs=(solve, solve_implicit)):
    """The shapes (helpers.LoopRecord) of the step loops of runs in mode on
    the row path row, for each of lines."""
    return {(mode, row, run, kind) for run in runs for kind in lines}


@pytest.mark.parametrize("run", [solve, solve_implicit])
def test_a_solve_failing_in_its_tree_loop_reports_what_evaluate_would(run):
    # log(2 - x) fails at x = 2, first as g(x_{j+1}, .) of step 199, after
    # hundreds of g evaluations in the tree loop
    problem = config_problem("log(2 - x) + 0*u", x_end=3.0)
    grid = build_grid(0.0, 3.0, 1.0, 0.01)
    failure = tree_loop_ends_as_walking(run, problem, grid)
    assert failure[:2] == ("error", DomainError)
    assert failure[3:] == (199, 1.99, None)
    assert "log(2.0 - x)" in failure[2]


def test_the_walk_and_the_tree_loop_match_evaluate_on_a_long_sum():
    # every third input the sum overflows part way, at about 180 terms
    assert_walk_and_tree_loop_match_evaluate(
        LONG_SUM,
        [(1e306, 0.0) if k % 3 == 0 else (k * 0.125, -k * 0.5) for k in range(1, 40)],
    )


def commands_print_what_walking_commands_print(capsys, monkeypatch, argv):
    """The output lines of argv, but # elapsed ones, after checking that
    it exits 0 without stderr and prints them with walked builds too."""
    outputs = []
    for walked in (False, True):
        if walked:
            walking_builds(monkeypatch)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        lines = captured.out.splitlines()
        outputs.append([ln for ln in lines if not ln.startswith("# elapsed")])
    assert outputs[0] == outputs[1]
    return outputs[0]


def test_solve_on_a_long_sum_prints_what_a_walking_solve_prints(
    capsys, tmp_path, monkeypatch
):
    # 80 steps, each with the 300 terms of g written in at three call sites;
    # the walked solve prints the reference output: a header and 81 points
    config = tmp_path / "long.cfg"
    config.write_text(
        f"name = long\ng = {LONG_SUM}\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 0.5\n"
    )
    argv = ["solve", "--problem", str(config), "--h", "0.00625"]
    assert len(commands_print_what_walking_commands_print(capsys, monkeypatch, argv)) == 82


@pytest.mark.parametrize(
    "argv",
    [
        "solve --problem example2 --h 0.005 --first-step corrected",
        "compare --problem example2 --h 0.005",
        "compare --problem example1 --h 0.1",
        "order --problem example2 --h 0.01,0.005",
        "table --problem example2 --h 0.005",
    ],
)
def test_built_commands_print_what_walking_commands_print(capsys, monkeypatch, argv):
    # a built problem's solves run their tree loops, a walked one's the
    # call-site loop; phi and exact run their grid loops either way
    commands_print_what_walking_commands_print(capsys, monkeypatch, argv.split())


# One maker makes each generated loop once per process (expressions._loop_of,
# whose lookups helpers.recorded_loops records): the source names numbers,
# constants and functions only through generated names, and a grid loop or
# a step loop takes their values as arguments, so trees of one shape share
# the loop itself.  A slot function keeps its grid loop with its tree's
# values bound (problem.grid_values), and a problem the lines of its g and K
# (problem._loops).  Each test below checks one contract of that cache.


# One shape: neither log nor sqrt can hide a non-finite argument, so their
# generated lines agree; the literals differ.
ONE_SHAPE = ["log(x - 0.5)*u + 2", "sqrt(x - 1.5)*u + 0.25", "log(x - 2.5)*u + 4"]
# values, a domain error of the call and an overflow of the product
ONE_SHAPE_INPUTS = [(3.0, 0.5), (7.25, -2.0), (0.25, 1.0), (100.0, 1e308)]


def test_trees_of_one_shape_share_a_loop_and_keep_their_own_values():
    # a grid loop's code holds no literal: phis of one shape share it, each
    # with its own values bound, and give evaluate's values
    phis = [parse(text) for text in ("sin(3*x) + 0.5", "cos(0.2651*x) + 1")]
    loops = [grid_loop(tree) for tree in phis]
    assert loops[0].func is loops[1].func
    assert not any(isinstance(c, float) for c in loops[0].func.__code__.co_consts)
    for tree, loop in zip(phis, loops):
        want = [evaluate(tree, {"x": 0.25 + j * 0.125}) for j in range(-3, 9)]
        assert outcome(lambda: loop(-3, 8, 0.25, 0.125)) == outcome(lambda: want)

    # twelve one-step problems whose g are of one shape, each solved walked
    # and with g and K written in: the first g makes the loops its shape runs
    # in, on the direct rows, as the problem declares no kernel_x_rate, and
    # the others make none.  At x = 0.25 each fails in its tree loop, reruns
    # in the call-site loop and names its own call
    def solve_all(texts):
        for x, u in ONE_SHAPE_INPUTS:
            for text in texts:
                bindings = {"x": x, "u": u}
                failure = assert_one_step_solves_like_walking(parse(text), bindings)
                if x == 0.25:
                    call = unparse(parse(text).left.left)
                    assert failure[1] is DomainError
                    assert failure[2].startswith(f"cannot evaluate {call!r} at argument")

    made = step_loops(FirstStepMode.LITERAL, "direct", ("calls", "tree"), [solve])
    made.add("grid")
    made_once(made, lambda: solve_all(ONE_SHAPE[:1]), lambda: solve_all(ONE_SHAPE[1:]))


@pytest.mark.parametrize("mode", list(FirstStepMode))
def test_a_sweep_of_one_shape_makes_each_loop_once(mode):
    # three problems of one shape, each solved by both closures at three h
    # and its error taken.  Their first solves make the grid loop phi =
    # exp(a*x) and exact = exp(a*x) share, and each closure's tree loop on
    # the recurrence's rows, as K's kernel_x_rate is -1; each problem writes
    # g and K once, and each of its slots looks its grid loop up on its
    # first use.  A second op makes, writes and looks up no loop but the
    # step loops, the walked problems make the two call-site loops, and
    # every solve is the walked solve and the solve from an emptied cache,
    # bit for bit
    literals = [(0.1234, 0.3), (0.05, 0.7), (0.2, 0.15)]
    texts = [sweep_text(0.5, 3, a, c) for a, c in literals]
    grids = [build_grid(0.0, 1.5, 0.5, h) for h in (0.25, 0.125, 0.0625)]

    def op(problem):
        solves = []
        for grid in grids:
            for run in (solve, solve_implicit):
                traj = run(problem, grid, mode)
                solves.append((traj.values, max_abs_error(traj, problem.exact)))
        return solves

    problems = [parse_config_text(text).build() for text in texts]
    with recorded_loops() as loops:
        ops = [op(problem) for problem in problems]
    assert loops.made() == {"grid"} | step_loops(mode, "recur", ["tree"])
    assert loops.written == [(p.g.tree, p.kernel.tree) for p in problems]
    assert [shape for shape, _ in loops].count("grid") == 2 * len(problems)
    with recorded_loops(empty=False) as loops:
        assert [op(problem) for problem in problems] == ops
    assert (loops.made(), loops.written) == (set(), [])
    assert "grid" not in [shape for shape, _ in loops]
    with recorded_loops(empty=False) as loops:
        assert [op(walking(problem)) for problem in problems] == ops
    assert loops.made() == step_loops(mode, "recur", ["calls"])
    for text, want in zip(texts, ops):
        expressions._loop_of.cache_clear()
        assert op(parse_config_text(text).build()) == want
    assert len({values for solves in ops for values, _ in solves}) == 18


def without_cycles(run):
    """run() with the cyclic collector off, checking that it leaves the
    collector nothing to find."""
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dropped_problems_leave_no_reference_cycles():
    """A problem, its trees, its slot functions, the lines of g and K it
    keeps and the grid loops its phi and exact keep are freed by reference
    counting alone, so a sweep of many problems leaves the cyclic collector
    nothing to find, and the loops the cache keeps refer to none of them.
    Each problem is solved by both closures at two h, the second time with
    the lines and the grid loops kept, and ends as the walked solve ends;
    log(x - 0.5) + u fails at g(x_0, u_0), in the tree loop, at every h.
    The second build of each runs only loops the first one made."""
    refs = []

    def build_and_solve():
        for g in ("log(u) + x", "log(x - 0.5) + u"):
            problem = config_problem(g, exact="exp(x)")
            slots = problem.g, problem.kernel, problem.history, problem.exact
            refs.extend(weakref.ref(obj) for obj in (problem, *slots))
            walked = walking(problem)
            for h in (0.1, 0.005):
                grid = build_grid(0.0, 1.0, 1.0, h)
                for run in (solve, solve_implicit):
                    want = outcome(lambda: run(walked, grid))
                    assert outcome(lambda: run(problem, grid)) == want
                assert max_abs_error(filled(grid, lambda j: 0.0), problem.exact) > 1.0
            assert len(problem._loops) == 1  # g's and K's lines and their values
            assert problem.history.loop and problem.exact.loop

    build_and_solve()
    with recorded_loops(empty=False) as loops:
        without_cycles(build_and_solve)
    assert loops.made() == set()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_the_loop_cache_stays_within_its_bound(loop_cache):
    # each i spells a different sequence of five operators, so a new shape:
    # of phi, a grid loop, for even i, and of g, a step loop, for odd i.
    # The last 20 evict the oldest loops, which reference counting frees:
    # a loop and its namespace do not refer to each other
    bound = loop_cache.cache_info().maxsize
    assert bound == 256
    K = parse("v")

    def make(shapes):
        for i in shapes:
            ops = ["+-*/"[(i >> (2 * k)) & 3] for k in range(5)]
            if i % 2:
                g = parse("u" + "".join(f" {op} u" for op in ops))
                loop_cache(stepper._loop_source, True, False, False, stepper._written(g, K)[0])
            else:
                grid_loop(parse("x" + "".join(f" {op} x" for op in ops)))

    make(range(bound))
    without_cycles(lambda: make(range(bound, bound + 20)))
    info = loop_cache.cache_info()
    assert (info.misses, info.currsize) == (bound + 20, bound)


KEPT_TEXT = (
    "name = kept\ng = u\nK = v\nphi = log(x + 0.5)\nexact = log(x - 0.55)\n"
    "tau = 1\nx0 = 0\nX = 1\n"
)


def test_a_kept_grid_loop_that_fails_falls_back_at_every_use():
    # phi fails at x_{-M} = -1 and exact at x_1 = h: each slot keeps the
    # grid loop its first use makes, and at every use the kept loop fails
    # and the walk reruns, raising the DomainError a walked call raises
    problem = parse_config_text(KEPT_TEXT).build()
    kept = []
    for h in (0.1, 0.05, 0.1):
        grid = build_grid(0.0, 1.0, 1.0, h)
        phi = outcome(lambda: init_trajectory(problem, grid))
        assert phi[:2] == ("error", DomainError)
        assert phi == outcome(lambda: problem.history(-1.0))
        exact = outcome(lambda: max_abs_error(filled(grid, lambda j: 0.0), problem.exact))
        assert exact[:2] == ("error", DomainError)
        assert exact == outcome(lambda: problem.exact(h))
        kept.append((problem.history.loop, problem.exact.loop))
    assert kept == [kept[0]] * 3
    for loop, fn in zip(kept[0], (problem.history, problem.exact)):
        assert loop.func is grid_loop(fn.tree).func


def test_a_failing_tree_loop_reruns_in_the_call_site_loop_a_walked_solve_made():
    # one cache keeps every loop: a walked solve makes the call-site loop of
    # its shape (K = v ignores x: the recurrence's rows), and a built solve
    # of that shape makes phi's grid loop and its tree loop, which fails at
    # x_0 = 0, and reruns in the kept call-site loop
    problem = parse_config_text(
        "name = logg\ng = log(x - 0.5) + u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
    ).build()
    grid = build_grid(0.0, 1.0, 1.0, 0.1)
    calls, tree = (
        (FirstStepMode.LITERAL, "recur", solve, kind) for kind in ("calls", "tree")
    )
    with recorded_loops() as loops:
        want = outcome(lambda: solve(walking(problem), grid))
    assert want[0] == "error" and want[1] is DomainError
    assert loops.made() == {calls}
    with recorded_loops(empty=False) as loops:
        assert outcome(lambda: solve(problem, grid)) == want
    assert loops == [("grid", True), (tree, True), (calls, False)]


def test_a_replaced_problem_starts_with_no_loops_and_solves_as_built():
    # replaced after the original's solves wrote its g and K: lines carried
    # over would write the original's K into the new solve
    text, other_text = sweep_text(0.5, 3), sweep_text(0.5, 3, a=0.2, c=0.15)
    grid = build_grid(0.0, 1.5, 0.5, 0.5 / 8)

    def variants(problem):
        """problem on the direct row path, and with the other text's K."""
        other_kernel = parse_config_text(other_text).build().kernel
        return (
            dataclasses.replace(problem, kernel_x_rate=None),
            dataclasses.replace(problem, kernel=other_kernel),
        )

    problem = parse_config_text(text).build()
    solved = [run(problem, grid).values for run in (solve, solve_implicit)]
    assert len(problem._loops) == 1
    direct, swapped = variants(problem)
    fresh = variants(parse_config_text(text).build())
    for variant, built in zip((direct, swapped), fresh):
        assert variant._loops == {}
        for run in (solve, solve_implicit):
            assert run(variant, grid).values == run(built, grid).values
    assert solve(swapped, grid).values != solved[0]
    # the direct rows are kernel_terms' rows, bit for bit
    traj = replay(nnm_step, direct, grid, FirstStepMode.LITERAL)
    assert solve(direct, grid).values == traj.values
    # equality, hash and repr ignore what a problem keeps
    copy = dataclasses.replace(problem)
    assert (copy._loops, len(problem._loops)) == ({}, 1)
    assert copy == problem and hash(copy) == hash(problem)
    assert repr(copy) == repr(problem) and "_loops" not in repr(problem)
    with pytest.raises(ValueError):
        dataclasses.replace(problem, _loops={})


@pytest.mark.parametrize("slot", ["g", "kernel", "history", "exact"])
def test_single_calls_walk_and_generate_nothing(slot):
    # only loops generate code: a single call walks, however many there are
    problem = parse_config_text(
        "name = walk\ng = u*x\nK = v - t\nphi = 1 + x\nexact = 1 + x\n"
        "tau = 1\nx0 = 0\nX = 1\n"
    ).build()
    fn = getattr(problem, slot)
    args = {"g": (0.5, 2.0), "kernel": (0.5, 0.25, 2.0)}.get(slot, (0.5,))
    with recorded_loops() as loops:
        for _ in range(1280):
            fn(*args)
    assert loops == loops.written == []
