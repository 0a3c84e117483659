import math
import random

import pytest

from helpers import dgj_solve, random_smooth_problem
from vdide import (
    DelayProblem,
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
from vdide.stepper import nnm_step, predictor


def constant_kernel_problem():
    """u' = integral of 1, so the running integral forces u = x^2/2."""
    return DelayProblem(
        g=lambda x, u: 0.0,
        kernel=lambda x, t, v: 1.0,
        history=lambda x: 0.0,
        tau=1.0,
        x0=0.0,
        x_end=1.0,
        exact=lambda x: x * x / 2,
    )


def pure_ode_problem(g, u0=1.0, x_end=1.0, exact=None):
    return DelayProblem(
        g=g,
        kernel=lambda x, t, v: 0.0,
        history=lambda x: u0,
        tau=1.0,
        x0=0.0,
        x_end=x_end,
        exact=exact,
    )


class TestKernelTerms:
    def test_first_step_literal_counts_the_origin_twice(self):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid, FirstStepMode.LITERAL)
        corner, s1, s2 = kernel_terms(problem, traj, 0, FirstStepMode.LITERAL)
        h2 = grid.h * grid.h
        assert corner == h2  # (h^2/4) * 4 kernel values of 1
        assert s1 == 0.0 and s2 == 0.0

    def test_first_step_corrected_keeps_half_the_corner(self):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid, FirstStepMode.CORRECTED)
        corner, s1, s2 = kernel_terms(problem, traj, 0, FirstStepMode.CORRECTED)
        assert corner == grid.h * grid.h / 2
        assert s1 == 0.0 and s2 == 0.0

    def test_interior_sums_count_interior_nodes(self):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid, FirstStepMode.LITERAL)
        traj.append(nnm_step(problem, traj, 0))
        traj.append(nnm_step(problem, traj, 1))
        traj.append(nnm_step(problem, traj, 2))
        corner, s1, s2 = kernel_terms(problem, traj, 3, traj.mode)
        assert corner == grid.h * grid.h
        assert s1 == 2.0  # i = 1, 2
        assert s2 == 3.0  # i = 1, 2, 3

    def test_modes_agree_from_step_one_on(self):
        problem = constant_kernel_problem()
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
        problem = constant_kernel_problem()
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
    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_corrected_mode_integrates_linear_growth_exactly(self, h):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, h)
        traj = solve(problem, grid, FirstStepMode.CORRECTED)
        for j in range(1, grid.steps + 1):
            x = grid.point(j)
            assert traj.value(j) == pytest.approx(x * x / 2, rel=1e-12)

    def test_literal_mode_carries_the_first_step_offset(self):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid, FirstStepMode.LITERAL)
        h2 = grid.h * grid.h
        # the extra h^2/2 from the duplicated origin never decays
        for j in range(1, grid.steps + 1):
            x = grid.point(j)
            assert traj.value(j) - x * x / 2 == pytest.approx(h2 / 2, rel=1e-10)


class TestStep:
    def test_pure_ode_step_matches_closed_form(self):
        problem = pure_ode_problem(lambda x, u: u)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        h = grid.h
        expected = 1.0 + h + h * h / 2 + h**3 / 8
        assert nnm_step(problem, traj, 0) == pytest.approx(expected, rel=1e-14)
        # third-order accurate against the true exponential
        assert abs(nnm_step(problem, traj, 0) - math.exp(h)) < h**3

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
        problem = pure_ode_problem(lambda x, u: 0.0, u0=3.25)
        grid = build_grid(0.0, 1.0, 1.0, 0.2)
        traj = solve(problem, grid)
        assert traj.values == (3.25,) * (grid.delay_steps + grid.steps + 1)

    def test_step_index_out_of_range(self):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.5)
        traj = solve(problem, grid)
        with pytest.raises(ValueError):
            nnm_step(problem, traj, grid.steps)

    def test_step_requires_prior_values(self):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        with pytest.raises(IndexNotYetComputed):
            nnm_step(problem, traj, 2)

    def test_blow_up_raises_with_step_index(self):
        problem = pure_ode_problem(lambda x, u: u * u, u0=1e160)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
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

    def test_modes_identical_when_origin_kernel_vanishes(self):
        # K(x_0, x_0, .) = 0 makes the literal corner equal the corrected one
        problem = DelayProblem(
            g=lambda x, u: 0.3 * u,
            kernel=lambda x, t, v: x * t * (1.0 + v),
            history=math.cos,
            tau=0.5,
            x0=0.0,
            x_end=1.0,
        )
        grid = build_grid(0.0, 1.0, 0.5, 0.1)
        lit = solve(problem, grid, FirstStepMode.LITERAL)
        cor = solve(problem, grid, FirstStepMode.CORRECTED)
        assert lit.values == cor.values

    def test_kernel_evaluation_count_is_quadratic(self):
        # step 0 costs 4 corner samples in literal mode and 2 in corrected
        # mode; a later step j reuses the x_j samples and the previous row,
        # so it costs the 2 new x_{j+1} corner samples plus a j-term row
        calls = 0

        def counting_kernel(x, t, v):
            nonlocal calls
            calls += 1
            return 1.0

        problem = DelayProblem(
            g=lambda x, u: 0.0,
            kernel=counting_kernel,
            history=lambda x: 0.0,
            tau=1.0,
            x0=0.0,
            x_end=1.0,
        )
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        n = grid.steps
        counts = []
        for mode, first in ((FirstStepMode.LITERAL, 4), (FirstStepMode.CORRECTED, 2)):
            calls = 0
            solve(problem, grid, mode)
            assert calls == first + 2 * (n - 1) + n * (n - 1) // 2
            counts.append(calls)
        assert counts == [67, 65]

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

        problem = DelayProblem(
            g=lambda x, u: -u,
            kernel=counting_kernel,
            history=lambda x: 1.0,
            tau=0.25,
            x0=0.0,
            x_end=1.0,
            kernel_x_rate=rate,
        )
        grid = build_grid(0.0, 1.0, 0.25, h)
        run(problem, grid, mode)
        assert calls == grid.steps + 1

    def test_each_forward_value_comes_from_one_step(self):
        problem = constant_kernel_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid, FirstStepMode.CORRECTED)
        replay = init_trajectory(problem, grid, FirstStepMode.CORRECTED)
        for j in range(grid.steps):
            replay.append(nnm_step(problem, replay, j))
        assert replay.values == traj.values


class TestClosureEquivalence:
    def test_step_equals_three_term_series(self):
        # the explicit step must be the 3-term series of its own fixed-point
        # form, checked across randomized problems, steps, and both modes
        rng = random.Random(91217)
        checks = 0
        for trial in range(12):
            problem = random_smooth_problem(rng)
            mode = FirstStepMode.LITERAL if trial % 2 else FirstStepMode.CORRECTED
            grid = build_grid(0.0, 1.0, 0.5, 0.1)
            traj = init_trajectory(problem, grid, mode)
            for j in range(grid.steps):
                x_next = grid.point(j + 1)
                series = dgj_solve(
                    predictor(problem, traj, j),
                    lambda w, x=x_next: 0.5 * grid.h * problem.g(x, w),
                    3,
                )
                stepped = nnm_step(problem, traj, j)
                assert series == pytest.approx(stepped, rel=1e-12, abs=1e-13)
                traj.append(stepped)
                checks += 1
        assert checks == 120
