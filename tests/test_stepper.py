import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import plain_problem, random_smooth_problem, replay
from vdide import (
    FirstStepMode,
    build_grid,
    builtin_problem,
    kernel_terms,
    solve,
    solve_implicit,
    step_residual,
)
from vdide.errors import IndexNotYetComputed, NonFiniteState
from vdide.problem import init_trajectory
from vdide.registry import ProblemConfig
from vdide.stepper import nnm_step, predictor


# u' = integral of 1, so the running integral forces u = x^2/2
CONSTANT_KERNEL = plain_problem(kernel=lambda x, t, v: 1.0, exact=lambda x: x * x / 2)


# Kernels with K(0, 0, v) = 0 for every v, so with x0 = 0 both first-step
# modes agree; each maps to the kernel_x_rate it builds with: None for the
# direct row path, 0.0 for the recurrence of a kernel that ignores x.
ORIGIN_ZERO_KERNELS = {
    "sin({a}*(x - t))*{f}": None,
    "({a})*(x - t)*{f}": None,
    "x*t*{f}": None,
    "t*{f}": 0.0,
    "({a})*t^2*{f}": 0.0,
}


class TestKernelTerms:
    def test_first_step_literal_counts_the_origin_twice(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid, FirstStepMode.LITERAL)
        corner, s1, s2 = kernel_terms(problem, traj, 0, FirstStepMode.LITERAL)
        h2 = grid.h * grid.h
        assert corner == h2  # (h^2/4) * 4 kernel values of 1
        assert s1 == 0.0 and s2 == 0.0

    def test_first_step_corrected_keeps_half_the_corner(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid, FirstStepMode.CORRECTED)
        corner, s1, s2 = kernel_terms(problem, traj, 0, FirstStepMode.CORRECTED)
        assert corner == grid.h * grid.h / 2
        assert s1 == 0.0 and s2 == 0.0

    def test_interior_sums_count_interior_nodes(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = replay(nnm_step, problem, grid, FirstStepMode.LITERAL, stop=3)
        corner, s1, s2 = kernel_terms(problem, traj, 3, traj.mode)
        assert corner == grid.h * grid.h
        assert s1 == 2.0  # i = 1, 2
        assert s2 == 3.0  # i = 1, 2, 3

    def test_modes_agree_from_step_one_on(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        lit = solve(problem, grid, FirstStepMode.LITERAL)
        cor = solve(problem, grid, FirstStepMode.CORRECTED)
        # the first-step stencil differs, later increments do not
        h2 = grid.h * grid.h
        assert lit.value(1) == h2
        assert cor.value(1) == h2 / 2
        for traj in (lit, cor):
            assert traj.value(2) - traj.value(1) == pytest.approx(
                1.5 * h2, rel=1e-14
            )

    def test_negative_step_index_rejected(self):
        problem = CONSTANT_KERNEL
        traj = init_trajectory(problem, build_grid(0.0, 1.0, 1.0, 0.1))
        with pytest.raises(ValueError):
            kernel_terms(problem, traj, -1, traj.mode)

    def test_step_index_past_the_grid_rejected(self):
        # j = N would evaluate K beyond x_end; every single-step function
        # refuses it through kernel_terms
        problem = builtin_problem("example1").build()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid)
        n = grid.steps
        for step_fn in (
            lambda: kernel_terms(problem, traj, n, traj.mode),
            lambda: predictor(problem, traj, n),
            lambda: step_residual(problem, traj, n),
        ):
            with pytest.raises(ValueError, match=f"step index {n} is out of range"):
                step_fn()


class TestQuadratureExactness:
    def test_literal_mode_carries_the_first_step_offset(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid, FirstStepMode.LITERAL)
        h2 = grid.h * grid.h
        # the extra h^2/2 from the duplicated origin never decays
        for j in range(1, grid.steps + 1):
            x = grid.point(j)
            assert traj.value(j) - x * x / 2 == pytest.approx(h2 / 2, rel=1e-10)


class TestStep:
    @settings(max_examples=60)
    @given(
        # |a| >= 0.01 keeps expm1(a h) / a, the exact flow's b factor, accurate
        a=st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01)),
        b=st.floats(-2.0, 2.0),
        u0=st.floats(-2.0, 2.0),
        h=st.sampled_from([0.1, 0.05, 0.025]),
    )
    @example(a=1.0, b=0.0, u0=1.0, h=0.1)
    def test_pure_ode_step_matches_closed_form(self, a, b, u0, h):
        # with K = 0 and g = a u + b, c = a h / 2, each step is exactly
        # u_{j+1} = (1 + 2c + 2c^2 + c^3) u_j + (h b / 2)(2 + 2c + c^2)
        problem = plain_problem(g=lambda x, u: a * u + b, history=lambda x: u0)
        traj = solve(problem, build_grid(0.0, 1.0, 1.0, h))
        c = a * h / 2
        flow = h if a == 0 else math.expm1(a * h) / a
        for j in range(traj.grid.steps):
            u_j, u_next = traj.value(j), traj.value(j + 1)
            scale = abs(u_j) + h * abs(b)
            closed = (1 + 2 * c + 2 * c * c + c**3) * u_j + h * b / 2 * (
                2 + 2 * c + c * c
            )
            assert abs(u_next - closed) <= 1e-12 * scale
            # third-order accurate against the exact flow of u' = a u + b,
            # whose leading error is (a^3 u_j + a^2 b) h^3 / 24
            exact = u_j * math.exp(a * h) + b * flow
            bound = h**3 * (abs(a) ** 3 * abs(u_j) + a * a * abs(b)) / 12
            assert abs(u_next - exact) <= bound + 1e-12 * scale

    def test_predictor_and_step_relations(self):
        rng = random.Random(5)
        problem = random_smooth_problem(rng)
        grid = build_grid(0.0, 1.0, 0.5, 0.1)
        traj = solve(problem, grid, FirstStepMode.LITERAL)
        h = grid.h
        for j in range(grid.steps):
            corner, s1, s2 = kernel_terms(problem, traj, j, traj.mode)
            u_j = traj.value(j)
            m1 = predictor(problem, traj, j)
            assert m1 == (
                u_j
                + 0.5 * h * problem.g(grid.point(j), u_j)
                + corner
                + 0.5 * h * h * (s1 + s2)
            )
            x_next = grid.point(j + 1)
            m2 = m1 + 0.5 * h * problem.g(x_next, m1)
            assert nnm_step(problem, traj, j) == m1 + 0.5 * h * problem.g(x_next, m2)

    def test_quiescent_problem_stays_put(self):
        problem = plain_problem(history=lambda x: 3.25)
        grid = build_grid(0.0, 1.0, 1.0, 0.2)
        traj = solve(problem, grid)
        assert traj.values == (3.25,) * (grid.delay_steps + grid.steps + 1)

    def test_step_index_out_of_range(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.5)
        traj = solve(problem, grid)
        with pytest.raises(ValueError):
            nnm_step(problem, traj, grid.steps)

    def test_step_requires_prior_values(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        with pytest.raises(IndexNotYetComputed):
            nnm_step(problem, traj, 2)

    def test_blow_up_raises_with_step_index(self):
        # u^2 overflows in M1; with g = u, M1 = 1.5e308 is finite and M2 is not
        cases = [(lambda x, u: u * u, 1e160, 0.1), (lambda x, u: u, 1e308, 1.0)]
        for g, u0, h in cases:
            problem = plain_problem(g=g, history=lambda x: u0)
            traj = init_trajectory(problem, build_grid(0.0, 1.0, 1.0, h))
            with pytest.raises(NonFiniteState) as info:
                nnm_step(problem, traj, 0)
            assert info.value.step_index == 0


class TestSolve:
    def test_deterministic(self):
        rng = random.Random(23)
        problem = random_smooth_problem(rng)
        grid = build_grid(0.0, 1.0, 0.5, 0.05)
        a = solve(problem, grid, FirstStepMode.LITERAL)
        b = solve(problem, grid, FirstStepMode.LITERAL)
        assert a.values == b.values

    @settings(max_examples=60)
    @given(
        kernel=st.sampled_from(sorted(ORIGIN_ZERO_KERNELS)),
        factor=st.sampled_from(["v", "v^2", "cos(v)", "(1 + v)"]),
        a=st.floats(-2.0, 2.0),
        b=st.floats(-1.0, 1.0),
        x_end=st.sampled_from([1.0, 2.0]),
        h=st.sampled_from([0.1, 0.05]),
    )
    @example(kernel="x*t*{f}", factor="(1 + v)", a=0.0, b=0.3, x_end=1.0, h=0.1)
    def test_modes_identical_when_origin_kernel_vanishes(
        self, kernel, factor, a, b, x_end, h
    ):
        # K(x_0, x_0, .) = 0 makes the literal corner equal the corrected
        # one, on the direct row path and on the recurrence
        problem = ProblemConfig(
            name="origin_zero",
            g=f"{b!r}*u",
            K=kernel.format(a=repr(a), f=factor),
            phi="cos(x)",
            tau=0.5,
            x0=0.0,
            X=x_end,
        ).build()
        assert problem.kernel_x_rate == ORIGIN_ZERO_KERNELS[kernel]
        grid = build_grid(0.0, x_end, 0.5, h)
        lit = solve(problem, grid, FirstStepMode.LITERAL)
        cor = solve(problem, grid, FirstStepMode.CORRECTED)
        assert lit.values == cor.values

    def test_kernel_evaluation_count_is_quadratic(self):
        # step 0 costs 3 corner samples in literal mode, whose two x_0
        # samples K(x_0, x_0, u_{-M}) are one sample taken once, and 2 in
        # corrected mode; a later step j reuses the x_j samples and the
        # previous row, so it costs the 2 new x_{j+1} corner samples plus a
        # j-term row
        calls = 0

        def counting_kernel(x, t, v):
            nonlocal calls
            calls += 1
            return 1.0

        problem = plain_problem(kernel=counting_kernel)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        n = grid.steps
        counts = []
        for mode, first in ((FirstStepMode.LITERAL, 3), (FirstStepMode.CORRECTED, 2)):
            calls = 0
            solve(problem, grid, mode)
            assert calls == first + 2 * (n - 1) + n * (n - 1) // 2
            counts.append(calls)
        assert counts == [66, 65]

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    @pytest.mark.parametrize("run", [solve, solve_implicit])
    @pytest.mark.parametrize("mode", list(FirstStepMode))
    @pytest.mark.parametrize("h", [0.125, 0.025])
    def test_kernel_evaluation_count_is_linear_when_kernel_ignores_x(
        self, run, mode, h, rate
    ):
        # K(., x_0, u_{-M}) once, then one new diagonal sample
        # K(x_{j+1}, x_{j+1}, u_{j+1-M}) per step: N + 1 in either mode,
        # whether the kernel ignores x or decays like e^(rate (x - t))
        calls = 0

        def counting_kernel(x, t, v):
            nonlocal calls
            calls += 1
            return math.exp(rate * (x - t)) * (t * v + 1.0)

        problem = plain_problem(
            g=lambda x, u: -u,
            kernel=counting_kernel,
            history=lambda x: 1.0,
            tau=0.25,
            kernel_x_rate=rate,
        )
        grid = build_grid(0.0, 1.0, 0.25, h)
        run(problem, grid, mode)
        assert calls == grid.steps + 1

    def test_each_forward_value_comes_from_one_step(self):
        problem = CONSTANT_KERNEL
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid, FirstStepMode.CORRECTED)
        assert replay(nnm_step, problem, grid, FirstStepMode.CORRECTED).values == traj.values


# example2 at h = 0.1: u_1 and u_10 of each first-step mode.
EXAMPLE2_AT = {
    FirstStepMode.LITERAL: (3.009336949281507, 7.40593135227227),
    FirstStepMode.CORRECTED: (3.004074449281507, 7.392992530190458),
}


@pytest.mark.parametrize("mode", list(FirstStepMode))
def test_a_mode_given_by_its_value_runs_that_modes_stencil(mode):
    # "literal" and "corrected" enter as FirstStepMode("literal") and so on:
    # the solve and the single step run the same stencil
    problem = builtin_problem("example2").build()
    grid = build_grid(0.0, 1.0, 1.0, 0.1)
    by_value = solve(problem, grid, mode.value)
    assert by_value.mode is mode
    assert (by_value.value(1), by_value.value(10)) == EXAMPLE2_AT[mode]
    assert by_value.values == solve(problem, grid, mode).values
    traj = init_trajectory(problem, grid, mode.value)
    assert traj.mode is mode
    assert nnm_step(problem, traj, 0) == EXAMPLE2_AT[mode][0]
    assert kernel_terms(problem, traj, 0, mode.value) == kernel_terms(problem, traj, 0, mode)


def test_an_unknown_mode_is_refused():
    problem = builtin_problem("example2").build()
    grid = build_grid(0.0, 1.0, 1.0, 0.1)
    traj = init_trajectory(problem, grid)
    calls = [
        lambda: solve(problem, grid, "bogus"),
        lambda: init_trajectory(problem, grid, "bogus"),
        lambda: kernel_terms(problem, traj, 0, "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'bogus' is not a valid FirstStepMode"):
            call()
