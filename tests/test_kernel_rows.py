"""The solvers' reused kernel rows against the stateless single-step functions.

solve and solve_implicit draw their kernel terms from kernel_rows, which
evaluates each trapezium row once; nnm_step and implicit_step recompute every
row from scratch through kernel_terms.  The two must agree bit for bit.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from vdide import (
    DelayProblem,
    FirstStepMode,
    build_grid,
    implicit_step,
    init_trajectory,
    kernel_terms,
    nnm_step,
    solve,
    solve_implicit,
)
from vdide.stepper import kernel_rows

TAU = 0.5

coefficient = st.floats(-1.0, 1.0, allow_nan=False)
frequency = st.floats(0.3, 2.0, allow_nan=False)


@st.composite
def delay_problems(draw):
    """(problem, grid, mode): a smooth problem whose interval spans 2-4 delays.

    Later delayed reads then hit computed values and cross the breakpoints
    x0 + k tau.  |dg/du| <= 1 keeps the oracle's iteration a contraction at
    every drawn step size.  Half the kernels ignore x and say so.
    """
    a0, a1, b0, b2 = (draw(coefficient) for _ in range(4))
    cu, du = (draw(st.floats(-0.5, 0.5)) for _ in range(2))
    w, b1 = draw(frequency), draw(frequency)
    cv = draw(st.floats(0.2, 1.0))
    p0, p1 = draw(st.floats(0.5, 1.5)), draw(st.floats(-0.5, 0.5))
    x_free = draw(st.booleans())

    def g(x, u):
        return a0 + a1 * math.sin(w * x) + cu * math.cos(u) + du * u

    if x_free:
        def kernel(x, t, v):
            return b0 * math.cos(b2 * t) + cv * math.sin(v)
    else:
        def kernel(x, t, v):
            return b0 * math.cos(b1 * x + b2 * t) + cv * math.sin(v)

    def history(x):
        return p0 + p1 * math.cos(w * x)

    delays = draw(st.integers(2, 4))
    problem = DelayProblem(
        g=g,
        kernel=kernel,
        history=history,
        tau=TAU,
        x0=0.0,
        x_end=delays * TAU,
        kernel_ignores_x=x_free,
    )
    grid = build_grid(0.0, problem.x_end, TAU, TAU / draw(st.integers(1, 6)))
    return problem, grid, draw(st.sampled_from(FirstStepMode))


@settings(max_examples=60, deadline=None)
@given(delay_problems())
def test_solve_equals_nnm_step_replay(case):
    problem, grid, mode = case
    replay = init_trajectory(problem, grid, mode)
    for j in range(grid.steps):
        replay.append(nnm_step(problem, replay, j))
    assert solve(problem, grid, mode).values == replay.values


@settings(max_examples=60, deadline=None)
@given(delay_problems())
def test_solve_implicit_equals_implicit_step_replay(case):
    problem, grid, mode = case
    replay = init_trajectory(problem, grid, mode)
    for j in range(grid.steps):
        replay.append(implicit_step(problem, replay, j))
    assert solve_implicit(problem, grid, mode).values == replay.values


@settings(max_examples=30, deadline=None)
@given(delay_problems())
def test_rows_equal_kernel_terms_step_by_step(case):
    problem, grid, mode = case
    traj = solve(problem, grid, mode)
    rows = kernel_rows(problem, traj)
    for j in range(grid.steps):
        assert next(rows) == kernel_terms(problem, traj, j, mode)
    assert next(rows, None) is None
