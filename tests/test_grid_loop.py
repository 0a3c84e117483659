"""The grid loops of a built problem's phi and exact against the walk.

init_trajectory and max_abs_error run the grid loop of phi's and exact's
tree (expressions.grid_loop, through problem.grid_values); if a loop
fails, the walk reruns and raises the reference DomainError.  A plain
callable, or a wrapper that hides the slot's tree, is called at every
point.  On every tree and grid these check that a built problem ends as
one whose phi and exact are plain walks of the same trees: the same
doubles, or the same exception class, message, slot and x.
"""

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import trees_over
from vdide import registry
from vdide.analysis import max_abs_error
from vdide.errors import IndexNotYetComputed, VdideError
from vdide.expressions import BinOp, Call, Neg, Num, Var, evaluate, parse
from vdide.problem import (
    DelayProblem,
    FirstStepMode,
    Trajectory,
    build_grid,
    init_trajectory,
)

# Leaves that mostly stay finite; the helpers' own leaves add the values
# that overflow or leave the domain.
TAME = [0.0, -0.0, 0.25, 0.5, -0.75, 1.0, 2.0]
# A power of two, so tau = M h and X = x0 + N h are exact.
H = 0.0078125


def hiding():
    """Trees in x whose value hides an overflow at some x of the grid: the
    product 1e308*(x + c) overflows once |x + c| > 1.8, and exp(-inf) = 0,
    tanh(inf) = 1, a / inf = 0, inf^0 = 1 and 0.5^inf = 0 are finite.  Only
    the generated checks stop such a value."""
    overflow = st.sampled_from([-1.0, 0.5, 1.0]).map(
        lambda c: BinOp("*", Num(1e308), BinOp("+", Var("x"), Num(c)))
    )
    tame = trees_over(("x",), TAME, TAME)
    hidden = st.one_of(
        overflow.map(lambda o: Call("exp", Neg(o))),
        overflow.map(lambda o: Call("tanh", o)),
        st.builds(lambda a, o: BinOp("/", a, o), tame, overflow),
        overflow.map(lambda o: BinOp("^", o, Num(0.0))),
        overflow.map(lambda o: BinOp("^", Num(0.5), o)),
    )
    return st.builds(BinOp, st.sampled_from("+-*"), hidden, tame)


x_trees = st.one_of(
    trees_over(("x",), TAME, TAME), trees_over(("x",)), hiding()
)


def problem_of(phi, exact, x0, m, n):
    """A problem on the grid of step H with M = m and N = n whose phi and
    exact are slot functions of the trees, as a config builds them."""
    return DelayProblem(
        g=lambda x, u: 0.0,
        kernel=lambda x, t, v: 0.0,
        history=registry._slot_function(phi, "phi"),
        tau=m * H,
        x0=x0,
        x_end=x0 + n * H,
        exact=registry._slot_function(exact, "exact"),
    )


def walk(tree):
    """A plain callable walking tree: no grid loop, no stamp of its own."""
    return lambda x: evaluate(tree, {"x": x})


def outcome(run):
    """("values", the result packed as doubles) or ("error", class,
    message, slot, x) of run()."""
    try:
        result = run()
    except VdideError as exc:
        return "error", type(exc), str(exc), exc.slot, exc.x
    values = result._values if hasattr(result, "_values") else [result]
    return "values", struct.pack(f"{len(values)}d", *values)


def forward(grid, seed):
    """A filled trajectory on grid, its forward values spread over [-3, 3],
    some of them equal, so the error's maximum can tie."""
    traj = Trajectory(grid, FirstStepMode.LITERAL, [0.0] * (grid.delay_steps + 1))
    for j in range(1, grid.steps + 1):
        traj.append(((seed * j) % 7 - 3) * 1.0)
    return traj


def check(phi, exact, x0, m, n, seed=1):
    """The history and error outcomes of the built problem, after checking
    them against plain walks of the same trees."""
    problem = problem_of(phi, exact, x0, m, n)
    grid = build_grid(x0, problem.x_end, problem.tau, H)
    assert (grid.delay_steps, grid.steps) == (m, n)
    history = outcome(lambda: init_trajectory(problem, grid))
    walked = dataclasses.replace(problem, history=walk(phi))
    assert outcome(lambda: init_trajectory(walked, grid)) == history
    traj = forward(grid, seed)
    error = outcome(lambda: max_abs_error(traj, problem.exact))
    assert outcome(lambda: max_abs_error(traj, walk(exact))) == error
    return history, error


@settings(max_examples=300, deadline=None)
@given(
    phi=x_trees,
    exact=x_trees,
    x0=st.sampled_from([0.0, -0.5, 0.3]),
    m=st.one_of(st.integers(1, 8), st.integers(120, 140)),
    n=st.one_of(st.integers(1, 8), st.integers(120, 140)),
    seed=st.integers(1, 6),
)
def test_the_grid_loops_match_the_walk(phi, exact, x0, m, n, seed):
    check(phi, exact, x0, m, n, seed)


# phi = log(x + 0.5) fails at its first point, x_{-M} = -1; log(-0.5 - x)
# at x = -0.5, the middle point of M = 128; 1/x at u_0's x = 0, the last.
@pytest.mark.parametrize(
    "text, x",
    [("log(x + 0.5)", -1.0), ("log(-0.5 - x)", -0.5), ("1/x", 0.0)],
    ids=["first", "middle", "last"],
)
def test_a_failing_phi_names_the_point_it_fails_at(text, x):
    history, _ = check(parse(text), parse("x"), 0.0, 128, 4)
    assert history[0] == "error" and history[3:] == ("phi", x)


# exact = log(0.5 - x) fails at x = 0.5, the middle of N = 128; 1/(1 - x)
# at x = 1, the last point, which exact's grid loop must reach.
@pytest.mark.parametrize(
    "text, x", [("log(0.5 - x)", 0.5), ("1/(1 - x)", 1.0)], ids=["middle", "last"]
)
def test_a_failing_exact_names_the_point_it_fails_at(text, x):
    _, error = check(parse("x"), parse(text), 0.0, 4, 128)
    assert error[0] == "error" and error[3:] == ("exact", x)


def test_the_error_loop_reaches_the_last_point():
    # every forward value is -3 (7 j mod 7 = 0), so exact = 10*x - 3 is
    # furthest from the trajectory at x = 1, j = N
    problem = problem_of(parse("x"), parse("10*x - 3"), 0.0, 4, 128)
    grid = build_grid(0.0, 1.0, 4 * H, H)
    assert max_abs_error(forward(grid, 7), problem.exact) == 10.0


def test_a_plain_callable_phi_gives_the_slots_values():
    phi = parse("cos(3*x) - 0.5")
    problem = problem_of(phi, parse("x"), 0.3, 130, 2)
    grid = build_grid(0.3, problem.x_end, problem.tau, H)
    plain = dataclasses.replace(problem, history=lambda x: math.cos(3.0 * x) - 0.5)
    assert init_trajectory(plain, grid).values == init_trajectory(problem, grid).values


def test_a_wrapper_without_a_tree_is_called_at_every_point():
    # perfbench counts phi's calls through such a wrapper
    problem = problem_of(parse("exp(x + 1)"), parse("x"), -0.5, 129, 3)
    grid = build_grid(-0.5, problem.x_end, problem.tau, H)
    calls = []

    def counted(x):
        calls.append(x)
        return problem.history(x)

    wrapped = dataclasses.replace(problem, history=counted)
    traj = init_trajectory(wrapped, grid, FirstStepMode.CORRECTED)
    assert calls == [grid.point(j) for j in range(-129, 1)]
    assert traj.values == init_trajectory(problem, grid).values


# A trajectory filled to u_5 of N = 10 on h = 0.1: exact = log(0.25 - x)
# fails at x_3, before the first missing value, and log(0.75 - x) is fine
# up to x_6 = 0.6, where u_6 is missing, and fails only beyond it.
@pytest.mark.parametrize("built", [True, False], ids=["built", "plain"])
@pytest.mark.parametrize(
    "text, want",
    [
        ("log(0.25 - x)", ("exact", 0.30000000000000004)),
        ("log(0.75 - x)", IndexNotYetComputed),
    ],
    ids=["domain-error", "not-yet-computed"],
)
def test_max_abs_error_on_a_trajectory_that_stops_short(text, want, built):
    grid = build_grid(0.0, 1.0, 1.0, 0.1)
    traj = Trajectory(grid, FirstStepMode.LITERAL, [0.0] * (grid.delay_steps + 1))
    for j in range(1, 6):
        traj.append(0.5 * j)
    tree = parse(text)
    exact = registry._slot_function(tree, "exact") if built else walk(tree)
    if want is IndexNotYetComputed:
        with pytest.raises(IndexNotYetComputed, match="^u_6 requested but values stop at u_5$"):
            max_abs_error(traj, exact)
    else:
        assert outcome(lambda: max_abs_error(traj, exact))[3:] == want
