"""The solvers' reused kernel rows against the stateless single-step functions.

solve and solve_implicit run the step loop of stepper._loop_source, which
evaluates each trapezium row once, or, for a kernel with a declared
kernel_x_rate lam, scales the previous row by e^(lam h) and adds one sample;
nnm_step and implicit_step recompute every row from scratch through
kernel_terms.  They must agree as helpers.assert_agree says: bit for bit
when the rate is None or 0.0, and within helpers.RTOL relative to the
largest value compared when lam < 0, where the recurrence rounds
differently.  Either way a failing kernel must fail at the same step, with
the same error, as on the O(N^2) rows (helpers.row_paths_end_alike).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_agree, plain_problem, replay, row_paths_end_alike
from vdide import (
    FirstStepMode,
    build_grid,
    parse_config_text,
    solve,
    solve_implicit,
)
from vdide.expressions import DomainError
from vdide.oracle import implicit_step
from vdide.stepper import nnm_step

TAU = 0.5

coefficient = st.floats(-1.0, 1.0, allow_nan=False)
frequency = st.floats(0.3, 2.0, allow_nan=False)


@st.composite
def delay_problems(draw):
    """(problem, grid, mode): a smooth problem whose interval spans 2-4 delays.

    Later delayed reads then hit computed values and cross the breakpoints
    x0 + k tau.  |dg/du| <= 1 keeps the oracle's iteration a contraction at
    every drawn step size.  A third of the kernels read x in a way no rate
    describes, a third ignore x and a third are c exp(-lam (x - t)) b(t, v)
    with lam in [0, 3]; the last two declare their kernel_x_rate.
    """
    a0, a1, b0, b2 = (draw(coefficient) for _ in range(4))
    cu, du = (draw(st.floats(-0.5, 0.5)) for _ in range(2))
    w, b1 = draw(frequency), draw(frequency)
    cv = draw(st.floats(0.2, 1.0))
    p0, p1 = draw(st.floats(0.5, 1.5)), draw(st.floats(-0.5, 0.5))
    family = draw(st.sampled_from(["x", "free", "exp"]))

    def g(x, u):
        return a0 + a1 * math.sin(w * x) + cu * math.cos(u) + du * u

    if family == "x":
        rate = None

        def kernel(x, t, v):
            return b0 * math.cos(b1 * x + b2 * t) + cv * math.sin(v)

    elif family == "free":
        rate = 0.0

        def kernel(x, t, v):
            return b0 * math.cos(b2 * t) + cv * math.sin(v)

    else:
        # |c| kept from 0, where every row is zero on either path
        lam = draw(st.floats(0.0, 3.0))
        c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 1.0))
        rate = -lam

        def kernel(x, t, v):
            b = b0 * math.cos(b2 * t) + cv * math.sin(v)
            return c * math.exp(-lam * (x - t)) * b

    def history(x):
        return p0 + p1 * math.cos(w * x)

    delays = draw(st.integers(2, 4))
    problem = plain_problem(
        g=g, kernel=kernel, history=history, tau=TAU, x_end=delays * TAU, kernel_x_rate=rate
    )
    grid = build_grid(0.0, problem.x_end, TAU, TAU / draw(st.integers(1, 6)))
    return problem, grid, draw(st.sampled_from(FirstStepMode))


@settings(max_examples=60, deadline=None)
@given(delay_problems())
def test_solve_equals_nnm_step_replay(case):
    problem, grid, mode = case
    want = replay(nnm_step, problem, grid, mode).values
    assert_agree(solve(problem, grid, mode).values, want, problem.kernel_x_rate)


@settings(max_examples=60, deadline=None)
@given(delay_problems())
def test_solve_implicit_equals_implicit_step_replay(case):
    problem, grid, mode = case
    want = replay(implicit_step, problem, grid, mode).values
    assert_agree(solve_implicit(problem, grid, mode).values, want, problem.kernel_x_rate)


@pytest.mark.parametrize("run", [solve, solve_implicit])
@pytest.mark.parametrize("mode", list(FirstStepMode))
@pytest.mark.parametrize(
    "kernel, rate, step",
    [
        # the history read v = 0.3 - x reaches 0 at the diagonal sample x_6
        ("exp(t - x)*log(v)", -1.0, 5),
        # the history drives u_1 to about 1e305, so e^709.5 v overflows when
        # the diagonal sample at x_11 first reads it
        ("exp(2*(t - x) + 709.5)*v", -2.0, 10),
    ],
)
def test_failing_kernel_fails_at_the_same_step_on_both_row_paths(
    run, mode, kernel, rate, step
):
    problem = parse_config_text(
        f"name = k\ng = -u\nK = {kernel}\nphi = -x - 0.2\n"
        "tau = 0.5\nx0 = 0\nX = 1\n"
    ).build()
    assert problem.kernel_x_rate == rate
    failure = row_paths_end_alike(run, problem, build_grid(0.0, 1.0, 0.5, 0.05), mode)
    assert failure[:2] == ("error", DomainError) and failure[3] == step


@pytest.mark.parametrize("run", [solve, solve_implicit])
@pytest.mark.parametrize("mode", list(FirstStepMode))
@pytest.mark.parametrize(
    "kernel", ["exp(1e308*(t - x))*v", "exp((1e308*(t - x))/10)*v"]
)
def test_overflow_inside_an_exponent_fails_at_the_same_step_on_both_row_paths(
    run, mode, kernel
):
    # 1e308*(t - x) is finite on the diagonal and overflows once x - t = 2,
    # first at the corner sample K(x_4, x_0, u_{-M}) of step 3, which the
    # recurrence would skip
    problem = parse_config_text(
        f"name = k\ng = -u\nK = {kernel}\nphi = 1\ntau = 0.5\nx0 = 0\nX = 3\n"
    ).build()
    failure = row_paths_end_alike(run, problem, build_grid(0.0, 3.0, 0.5, 0.5), mode)
    assert failure[:2] == ("error", DomainError) and failure[3] == 3
    assert "1e+308 * (t - x)" in failure[2]


@pytest.mark.parametrize("run", [solve, solve_implicit])
def test_a_kernel_failing_at_the_literal_corner_fails_at_step_0(run):
    # a LITERAL solve takes K(x0, x0, u_{-M}) before its loop; the history
    # value u_{-M} = phi(0.5) = -0.7 makes log(v) fail there
    problem = parse_config_text(
        "name = k\ng = -u\nK = exp(t - x)*log(v)\nphi = x - 1.2\n"
        "tau = 0.5\nx0 = 1\nX = 2\n"
    ).build()
    assert problem.kernel_x_rate == -1.0
    grid = build_grid(1.0, 2.0, 0.5, 0.1)
    assert row_paths_end_alike(run, problem, grid, FirstStepMode.LITERAL) == (
        "error", DomainError,
        "cannot evaluate 'log(v)' at argument -0.7: math domain error", 0, 1.0, None,
    )

