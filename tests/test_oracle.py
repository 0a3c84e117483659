import math
import random

import pytest

from helpers import random_smooth_problem
from vdide import (
    DelayProblem,
    FirstStepMode,
    build_grid,
    builtin_problem,
    solve,
    solve_implicit,
    step_residual,
)
from vdide.errors import NoConvergence, NonFiniteState
from vdide.oracle import OracleConfig, implicit_step
from vdide.problem import init_trajectory
from vdide.stepper import nnm_step, predictor


def pure_ode_problem(g, u0=1.0, tau=1.0, x_end=1.0):
    return DelayProblem(
        g=g,
        kernel=lambda x, t, v: 0.0,
        history=lambda x: u0,
        tau=tau,
        x0=0.0,
        x_end=x_end,
    )


class TestImplicitStep:
    def test_linear_case_matches_closed_form(self):
        # u = M1 + (h/2) u has the solution M1 / (1 - h/2)
        problem = pure_ode_problem(lambda x, u: u)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        m1 = predictor(problem, traj, 0)
        assert m1 == 1.05
        u = implicit_step(problem, traj, 0)
        assert u == pytest.approx(m1 / (1 - 0.05), rel=1e-12)

    def test_zero_g_returns_the_predictor_bitwise(self):
        problem = DelayProblem(
            g=lambda x, u: 0.0,
            kernel=lambda x, t, v: v * math.cos(x) + t,
            history=math.sin,
            tau=0.5,
            x0=0.0,
            x_end=1.0,
        )
        grid = build_grid(0.0, 1.0, 0.5, 0.1)
        explicit = solve(problem, grid, FirstStepMode.LITERAL)
        implicit = solve_implicit(problem, grid, FirstStepMode.LITERAL)
        assert explicit.values == implicit.values

    def test_no_convergence_when_step_is_too_large(self):
        # contraction factor h/2 * dg/du = 1.25 > 1
        problem = pure_ode_problem(lambda x, u: u, tau=2.5, x_end=2.5)
        grid = build_grid(0.0, 2.5, 2.5, 2.5)
        traj = init_trajectory(problem, grid)
        with pytest.raises(NoConvergence):
            implicit_step(problem, traj, 0)

    @pytest.mark.parametrize("j", [0, 1])
    def test_no_convergence_names_its_step(self, j):
        # as NonFiniteState does; a solve also stamps x_j, a single step not
        problem = pure_ode_problem(lambda x, u: u, tau=2.5, x_end=5.0)
        grid = build_grid(0.0, 5.0, 2.5, 2.5)
        traj = init_trajectory(problem, grid)
        traj.append(1.0)
        with pytest.raises(NoConvergence) as info:
            implicit_step(problem, traj, j)
        assert (info.value.step_index, info.value.x) == (j, None)
        assert str(info.value).startswith(f"implicit step {j} did not reach")

    def test_iteration_cap_is_configurable(self):
        problem = pure_ode_problem(lambda x, u: u)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        with pytest.raises(NoConvergence):
            implicit_step(problem, traj, 0, OracleConfig(tol=1e-13, max_iter=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(tol=0.0)
        with pytest.raises(ValueError):
            OracleConfig(max_iter=0)
        # an infinite tol would accept every step's seed M1 unchanged, and a
        # fractional max_iter would fail only inside the solve
        for tol in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                OracleConfig(tol=tol)
        with pytest.raises(ValueError, match="an integer"):
            OracleConfig(max_iter=2.5)
        assert OracleConfig(tol=1e300, max_iter=1).max_iter == 1

    @pytest.mark.parametrize(
        "g, u0",
        [(lambda x, u: math.nan, 1.0), (lambda x, u: u * u, 1e160)],
        ids=["nan", "overflow"],
    )
    def test_non_finite_iterate_is_not_a_convergence_failure(self, g, u0):
        problem = pure_ode_problem(g, u0=u0)
        traj = init_trajectory(problem, build_grid(0.0, 1.0, 1.0, 0.1))
        with pytest.raises(NonFiniteState) as info:
            implicit_step(problem, traj, 0)
        assert info.value.step_index == 0

    def test_both_solvers_report_the_same_non_finite_step(self):
        # g turns NaN from x = 0.5 on, first reached as x_{j+1} at step 4
        problem = pure_ode_problem(lambda x, u: math.nan if x > 0.45 else u)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        steps = []
        for run in (solve, solve_implicit):
            with pytest.raises(NonFiniteState) as info:
                run(problem, grid)
            steps.append(info.value.step_index)
        assert steps == [4, 4]

    def test_both_solvers_report_where_a_solve_failed(self):
        # the same NaN as above, as the solve loop reports it: step 4, x_4
        problem = pure_ode_problem(lambda x, u: math.nan if x > 0.45 else u)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        for run in (solve, solve_implicit):
            with pytest.raises(NonFiniteState) as info:
                run(problem, grid)
            assert (info.value.step_index, info.value.x) == (4, 0.4)

    def test_step_index_out_of_range(self):
        problem = pure_ode_problem(lambda x, u: u)
        grid = build_grid(0.0, 1.0, 1.0, 0.5)
        traj = solve_implicit(problem, grid)
        with pytest.raises(ValueError):
            implicit_step(problem, traj, grid.steps)


class TestResiduals:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_builtin_problems_meet_tolerance(self, name, h):
        problem = builtin_problem(name).build()
        grid = build_grid(0.0, 1.0, 1.0, h)
        traj = solve_implicit(problem, grid, FirstStepMode.LITERAL)
        for j in range(grid.steps):
            assert step_residual(problem, traj, j) <= 1e-13

    def test_random_problems_meet_tolerance(self):
        rng = random.Random(31)
        for _ in range(5):
            problem = random_smooth_problem(rng)
            grid = build_grid(0.0, 1.0, 0.5, 0.1)
            traj = solve_implicit(problem, grid, FirstStepMode.CORRECTED)
            for j in range(grid.steps):
                assert step_residual(problem, traj, j) <= 1e-13

    def test_explicit_step_leaves_an_h_cubed_residual(self):
        # the closure's residual is (h/2) |g(x, m1+..) - g(x, m2)| ~ h^3,
        # far above the oracle's 1e-13 but still small
        problem = builtin_problem("example2").build()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid, FirstStepMode.LITERAL)
        residuals = [step_residual(problem, traj, j) for j in range(grid.steps)]
        assert max(residuals) > 1e-6
        assert max(residuals) < 1e-3


class TestLocalScaling:
    def test_closure_error_shrinks_eightfold_per_halving(self):
        problem = builtin_problem("example2").build()
        diffs = {}
        for h in (0.1, 0.05, 0.025):
            grid = build_grid(0.0, 1.0, 1.0, h)
            traj = init_trajectory(problem, grid, FirstStepMode.LITERAL)
            j_star = round(0.5 / h)
            for j in range(j_star):
                traj.append(nnm_step(problem, traj, j))
            diffs[h] = abs(
                nnm_step(problem, traj, j_star)
                - implicit_step(problem, traj, j_star)
            )
        assert 6.5 <= diffs[0.1] / diffs[0.05] <= 9.5
        assert 6.5 <= diffs[0.05] / diffs[0.025] <= 9.5

    def test_trajectory_difference_accumulates_at_second_order(self):
        problem = builtin_problem("example1").build()
        gaps = {}
        for h in (0.1, 0.05):
            grid = build_grid(0.0, 1.0, 1.0, h)
            a = solve(problem, grid, FirstStepMode.LITERAL)
            b = solve_implicit(problem, grid, FirstStepMode.LITERAL)
            gaps[h] = max(
                abs(a.value(j) - b.value(j)) for j in range(grid.steps + 1)
            )
        assert gaps[0.1] < 1e-2
        assert 3.5 <= gaps[0.1] / gaps[0.05] <= 9.5
