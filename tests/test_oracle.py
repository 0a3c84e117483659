import math
import random

import pytest

from helpers import plain_problem, random_smooth_problem
from vdide import (
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
from vdide.stepper import predictor


def one(x):
    return 1.0


class TestImplicitStep:
    def test_linear_case_matches_closed_form(self):
        # u = M1 + (h/2) u has the solution M1 / (1 - h/2)
        problem = plain_problem(g=lambda x, u: u, history=one)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        m1 = predictor(problem, traj, 0)
        assert m1 == 1.05
        u = implicit_step(problem, traj, 0)
        assert u == pytest.approx(m1 / (1 - 0.05), rel=1e-12)

    def test_zero_g_returns_the_predictor_bitwise(self):
        problem = plain_problem(
            kernel=lambda x, t, v: v * math.cos(x) + t, history=math.sin, tau=0.5
        )
        grid = build_grid(0.0, 1.0, 0.5, 0.1)
        explicit = solve(problem, grid, FirstStepMode.LITERAL)
        implicit = solve_implicit(problem, grid, FirstStepMode.LITERAL)
        assert explicit.values == implicit.values

    def test_no_convergence_when_step_is_too_large(self):
        # contraction factor h/2 * dg/du = 1.25 > 1
        problem = plain_problem(g=lambda x, u: u, history=one, tau=2.5, x_end=2.5)
        grid = build_grid(0.0, 2.5, 2.5, 2.5)
        traj = init_trajectory(problem, grid)
        with pytest.raises(NoConvergence):
            implicit_step(problem, traj, 0)

    @pytest.mark.parametrize("j", [0, 1])
    def test_no_convergence_names_its_step(self, j):
        # as NonFiniteState does; a solve also stamps x_j, a single step not
        problem = plain_problem(g=lambda x, u: u, history=one, tau=2.5, x_end=5.0)
        grid = build_grid(0.0, 5.0, 2.5, 2.5)
        traj = init_trajectory(problem, grid)
        traj.append(1.0)
        with pytest.raises(NoConvergence) as info:
            implicit_step(problem, traj, j)
        assert (info.value.step_index, info.value.x) == (j, None)
        assert str(info.value).startswith(f"implicit step {j} did not reach")

    def test_iteration_cap_is_configurable(self):
        problem = plain_problem(g=lambda x, u: u, history=one)
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
        assert OracleConfig(tol=1, max_iter=1).tol == 1
        assert OracleConfig(tol=1e300, max_iter=1).max_iter == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_iter", True, "max_iter must be an integer, got True"),
            ("max_iter", False, "max_iter must be an integer, got False"),
            ("tol", True, "tol must be positive and finite, got True"),
            ("tol", False, "tol must be positive and finite, got False"),
        ],
    )
    def test_config_refuses_a_bool(self, field, value, message):
        # a bool is an int: max_iter=True would load and then report "did
        # not reach tol=1e-13 in True iterations"
        with pytest.raises(ValueError) as info:
            OracleConfig(**{field: value})
        assert str(info.value) == message

    def test_both_solvers_report_where_a_solve_failed(self):
        # g turns NaN from x = 0.5 on, first reached as x_{j+1} at step 4,
        # which the solve loop reports with x_4
        problem = plain_problem(g=lambda x, u: math.nan if x > 0.45 else u, history=one)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        for run in (solve, solve_implicit):
            with pytest.raises(NonFiniteState) as info:
                run(problem, grid)
            assert (info.value.step_index, info.value.x) == (4, 0.4)


class TestResiduals:
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

