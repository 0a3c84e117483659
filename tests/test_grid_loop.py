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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mixed, outcome, single_x_trees, slot_problem, walking
from vdide.analysis import max_abs_error
from vdide.errors import IndexNotYetComputed
from vdide.expressions import LOOP_FAILURES, DomainError, Num, evaluate, grid_loop, parse
from vdide.problem import FirstStepMode, Trajectory, build_grid, init_trajectory

# A power of two, so tau = M h and X = x0 + N h are exact.
H = 0.0078125
ZERO = Num(0.0)


def forward(grid, seed):
    """A filled trajectory on grid, its forward values spread over [-3, 3],
    some of them equal, so the error's maximum can tie."""
    traj = Trajectory(grid, FirstStepMode.LITERAL, [0.0] * (grid.delay_steps + 1))
    for j in range(1, grid.steps + 1):
        traj.append(((seed * j) % 7 - 3) * 1.0)
    return traj


def check(phi, exact, x0, m, n, seed=1):
    """The history and error outcomes of the problem on the grid of step H
    with M = m and N = n whose phi and exact are slot functions of the
    trees, after checking them against plain walks of the same trees."""
    problem = slot_problem(ZERO, ZERO, phi, exact, tau=m * H, x0=x0, x_end=x0 + n * H)
    walked = walking(problem)
    grid = build_grid(x0, problem.x_end, problem.tau, H)
    assert (grid.delay_steps, grid.steps) == (m, n)
    history = outcome(lambda: init_trajectory(problem, grid))
    assert outcome(lambda: init_trajectory(walked, grid)) == history
    traj = forward(grid, seed)
    error = outcome(lambda: max_abs_error(traj, problem.exact))
    assert outcome(lambda: max_abs_error(traj, walked.exact)) == error
    return history, error


@settings(max_examples=300, deadline=None)
@given(
    phi=mixed(("x",)),
    exact=mixed(("x",)),
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
    assert history[0] == "error" and history[4:] == (x, "phi")


# exact = log(0.5 - x) fails at x = 0.5, the middle of N = 128; 1/(1 - x)
# at x = 1, the last point, which exact's grid loop must reach.
@pytest.mark.parametrize(
    "text, x", [("log(0.5 - x)", 0.5), ("1/(1 - x)", 1.0)], ids=["middle", "last"]
)
def test_a_failing_exact_names_the_point_it_fails_at(text, x):
    _, error = check(parse("x"), parse(text), 0.0, 4, 128)
    assert error[0] == "error" and error[4:] == (x, "exact")


def test_the_error_loop_reaches_the_last_point():
    # every forward value is -3 (7 j mod 7 = 0), so exact = 10*x - 3 is
    # furthest from the trajectory at x = 1, j = N
    problem = slot_problem(ZERO, ZERO, ZERO, parse("10*x - 3"), tau=4 * H, x0=0.0, x_end=1.0)
    grid = build_grid(0.0, 1.0, 4 * H, H)
    assert max_abs_error(forward(grid, 7), problem.exact) == 10.0


def test_a_plain_callable_phi_gives_the_slots_values():
    phi = parse("cos(3*x) - 0.5")
    problem = slot_problem(ZERO, ZERO, phi, tau=130 * H, x0=0.3, x_end=0.3 + 2 * H)
    grid = build_grid(0.3, problem.x_end, problem.tau, H)
    plain = dataclasses.replace(problem, history=lambda x: math.cos(3.0 * x) - 0.5)
    assert init_trajectory(plain, grid).values == init_trajectory(problem, grid).values


def test_a_wrapper_without_a_tree_is_called_at_every_point():
    # perfbench counts phi's calls through such a wrapper
    phi = parse("exp(x + 1)")
    problem = slot_problem(ZERO, ZERO, phi, tau=129 * H, x0=-0.5, x_end=-0.5 + 3 * H)
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
        ("log(0.25 - x)", (0.30000000000000004, "exact")),
        ("log(0.75 - x)", IndexNotYetComputed),
    ],
    ids=["domain-error", "not-yet-computed"],
)
def test_max_abs_error_on_a_trajectory_that_stops_short(text, want, built):
    grid = build_grid(0.0, 1.0, 1.0, 0.1)
    traj = Trajectory(grid, FirstStepMode.LITERAL, [0.0] * (grid.delay_steps + 1))
    for j in range(1, 6):
        traj.append(0.5 * j)
    problem = slot_problem(ZERO, ZERO, ZERO, parse(text), tau=1.0, x0=0.0, x_end=1.0)
    exact = (problem if built else walking(problem)).exact
    if want is IndexNotYetComputed:
        with pytest.raises(IndexNotYetComputed, match="^u_6 requested but values stop at u_5$"):
            max_abs_error(traj, exact)
    else:
        assert outcome(lambda: max_abs_error(traj, exact))[4:] == want


def bare_loop_matches_the_walk(tree, first, last, x0):
    """The grid loop over j = first .. last against evaluate at each point:
    the same doubles, or a failure where the walk fails somewhere."""
    try:
        want = [evaluate(tree, {"x": x0 + j * H}) for j in range(first, last + 1)]
    except DomainError:
        want = None
    try:
        got = grid_loop(tree)(first, last, x0, H)
    except LOOP_FAILURES:
        assert want is None, "the grid loop raised where the walk returned"
    else:
        assert want is not None, "the grid loop returned where the walk raised"
        assert outcome(lambda: got) == outcome(lambda: want)


# the grids' points run over [x0 - m H, x0 + n H]: with x0 = 0.5 and m = 140
# the history spans [-0.59, 0.5], whose inner point 0 is where x*x and
# 1e307/x reach the values their ends do not
@settings(max_examples=300, deadline=None)
@given(
    phi=single_x_trees(),
    exact=single_x_trees(),
    x0=st.sampled_from([0.0, -0.5, 0.3, 0.5]),
    m=st.one_of(st.integers(1, 8), st.integers(120, 140)),
    n=st.one_of(st.integers(1, 8), st.integers(120, 140)),
)
@example(parse("1e308*(2 - x*x)"), parse("x"), 0.5, 140, 1)  # x*x
@example(parse("1e307/x"), parse("x"), 0.3, 140, 1)  # k/x
# overflows near the last end; near the first, hidden by tanh(inf) = 1
@example(parse("1e308*(x + 1.5)"), parse("tanh(1e308*(2.5 - x))"), 0.5, 140, 140)
@example(parse("tanh(1e308*(3.5*x))"), parse("x"), 0.5, 140, 1)
def test_grid_loop_checks_proved_at_the_grid_ends_fail_where_the_walk_fails(phi, exact, x0, m, n):
    check(phi, exact, x0, m, n)
    bare_loop_matches_the_walk(phi, -m, 0, x0)
    bare_loop_matches_the_walk(exact, 1, n, x0)
