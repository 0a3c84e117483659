import builtins
import math
import random
import time
from types import SimpleNamespace

import pytest

from vdide import analysis
from vdide import (
    DelayProblem,
    FirstStepMode,
    build_grid,
    builtin_problem,
    error_table,
    order_study,
    solve,
)
from vdide.analysis import grid_index, max_abs_error, observed_order, timed_solve
from vdide.errors import DegenerateError, OffGridSample
from vdide.problem import Trajectory


def exp_ode_problem():
    return DelayProblem(
        g=lambda x, u: u,
        kernel=lambda x, t, v: 0.0,
        history=lambda x: math.exp(x),
        tau=1.0,
        x0=0.0,
        x_end=1.0,
        exact=math.exp,
    )


def exactly_integrable_problem():
    return DelayProblem(
        g=lambda x, u: 0.0,
        kernel=lambda x, t, v: 1.0,
        history=lambda x: 0.0,
        tau=1.0,
        x0=0.0,
        x_end=1.0,
        exact=lambda x: x * x / 2,
    )


class TestGridIndex:
    def test_exact_and_nearby_points(self):
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        assert grid_index(grid, 0.0) == 0
        assert grid_index(grid, 0.3) == 3
        assert grid_index(grid, 1.0) == 10
        # build_grid accepts this grid within its relative slack; its last
        # point is 999.99999999, and x_end must still match it
        far = build_grid(0.0, 1000.0, 1.0, 0.33333333333)
        assert grid_index(far, 1000.0) == far.steps == 3000

    def test_off_grid_point_raises(self):
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        with pytest.raises(OffGridSample) as info:
            grid_index(grid, 0.15)
        assert "0.15" in str(info.value)

    @pytest.mark.parametrize("x", [-0.5, -0.1, 1.1, 2.0, math.inf, math.nan])
    def test_points_outside_the_solved_interval_raise(self, x):
        # the history segment [-1, 0) and points past X are not tabulated
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        with pytest.raises(OffGridSample, match=r"outside .*\[0\.0, 1\.0\]"):
            grid_index(grid, x)

    def test_points_survive_decimal_to_binary_drift(self):
        # 0.3 is not representable, yet must land on index 15 of an h=0.02 grid
        grid = build_grid(0.0, 1.0, 1.0, 0.02)
        assert grid_index(grid, 0.3) == 15


class TestErrorTable:
    def test_zero_errors_for_exactly_stored_solution(self):
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        hist = [math.exp(grid.point(j)) for j in range(-10, 1)]
        traj = Trajectory(grid, FirstStepMode.LITERAL, hist)
        for j in range(1, 11):
            traj.append(math.exp(grid.point(j)))
        # sample at the stored abscissas so no decimal-to-binary drift leaks in
        xs = [grid.point(j) for j in range(1, 11)]
        table = error_table(traj, math.exp, xs)
        assert all(err == 0.0 for _, err in table.rows)

    def test_rows_sorted_and_nonnegative(self):
        problem = exp_ode_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid)
        table = error_table(traj, problem.exact, [1.0, 0.5, 0.1])
        assert [x for x, _ in table.rows] == [0.1, 0.5, 1.0]
        assert all(err >= 0.0 for _, err in table.rows)
        assert table.h == 0.1
        assert table.mode is FirstStepMode.LITERAL

    @pytest.mark.parametrize("x", [-0.5, 2.0])
    def test_points_outside_the_solved_interval_raise(self, x):
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(exp_ode_problem(), grid)
        with pytest.raises(OffGridSample):
            error_table(traj, math.exp, [0.5, x])

    def test_timed_solve_returns_the_solve_and_its_time(self):
        problem = exp_ode_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.2)
        traj, elapsed = timed_solve(problem, grid, FirstStepMode.LITERAL)
        assert traj.values == solve(problem, grid, FirstStepMode.LITERAL).values
        assert elapsed >= 0.0

    @pytest.mark.parametrize("h", [0.1, 0.005])
    def test_timed_solve_compiles_before_its_clock_starts(
        self, monkeypatch, loop_cache, h
    ):
        # from a cleared cache a solve compiles phi's grid loop and its step
        # loop, the tree loop at every h; the clock reads the solve alone
        events = []
        compile_ = builtins.compile

        def compile(*args, **kwargs):
            events.append("compile")
            return compile_(*args, **kwargs)

        def perf_counter():
            events.append("clock")
            return time.perf_counter()

        monkeypatch.setattr(builtins, "compile", compile)
        monkeypatch.setattr(analysis, "time", SimpleNamespace(perf_counter=perf_counter))
        problem = builtin_problem("example2").build()
        grid = build_grid(0.0, 1.0, 1.0, h)
        traj, _ = timed_solve(problem, grid, FirstStepMode.LITERAL)
        assert events == ["compile", "compile", "clock", "clock"]
        assert traj.values == solve(problem, grid).values

    def test_builtin_errors_grow_monotonically(self):
        # for the built-in problems the error accumulates along x
        problem = builtin_problem("example1").build()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid, FirstStepMode.LITERAL)
        table = error_table(traj, problem.exact, [i / 10 for i in range(1, 11)])
        errs = [err for _, err in table.rows]
        assert all(a <= b for a, b in zip(errs, errs[1:]))


class TestObservedOrder:
    def test_printed_ratio_example(self):
        assert observed_order(1.83692e-4, 4.6129e-5, 2.0) == pytest.approx(
            1.994, abs=1e-3
        )

    def test_exact_powers_of_two(self):
        rng = random.Random(3)
        for _ in range(10):
            e = rng.uniform(1e-8, 1e-2)
            assert observed_order(8 * e, e, 2.0) == 3.0
            assert observed_order(e, e, 2.0) == 0.0

    def test_any_step_ratio(self):
        # a third-order error at h and h/5, a second-order one at h and h/2.5
        assert observed_order(125.0, 1.0, 5.0) == pytest.approx(3.0, rel=1e-15)
        assert observed_order(0.1 * 2.5**2, 0.1, 2.5) == pytest.approx(2.0, rel=1e-15)

    def test_scale_invariance(self):
        a, b = 3.7e-4, 8.9e-5
        base = observed_order(a, b, 2.0)
        for s in (1e-6, 2.5, 1e5):
            assert observed_order(s * a, s * b, 2.0) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize(
        "pair", [(0.0, 1e-5), (1e-5, 0.0), (math.nan, 1e-5), (1e-5, math.inf), (-1e-5, 1e-5)]
    )
    def test_degenerate_inputs(self, pair):
        with pytest.raises(DegenerateError):
            observed_order(*pair, 2.0)


class TestOrderStudy:
    def test_second_order_on_smooth_ode(self):
        est = order_study(
            exp_ode_problem(),
            FirstStepMode.LITERAL,
            [0.1, 0.05, 0.025, 0.0125],
        )
        assert 1.8 <= est.slope <= 2.2
        hs = [h for h, _ in est.pairs]
        assert hs == sorted(hs, reverse=True)
        errs = [e for _, e in est.pairs]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_exactness_is_degenerate(self):
        # dyadic step sizes make the accumulated sums exact, so every error
        # is literally zero and no slope exists
        with pytest.raises(DegenerateError):
            order_study(
                exactly_integrable_problem(),
                FirstStepMode.CORRECTED,
                [0.25, 0.125],
            )

    def test_needs_two_step_sizes(self):
        with pytest.raises(ValueError):
            order_study(exp_ode_problem(), FirstStepMode.LITERAL, [0.1])

    def test_needs_exact_solution(self):
        problem = DelayProblem(
            g=lambda x, u: 0.0,
            kernel=lambda x, t, v: 0.0,
            history=lambda x: 1.0,
            tau=1.0,
            x0=0.0,
            x_end=1.0,
        )
        with pytest.raises(ValueError):
            order_study(problem, FirstStepMode.LITERAL, [0.1, 0.05])

    def test_max_abs_error_scans_all_forward_points(self):
        problem = exp_ode_problem()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid)
        worst = max_abs_error(traj, problem.exact)
        assert worst == max(
            abs(problem.exact(grid.point(j)) - traj.value(j)) for j in range(1, 11)
        )
        assert worst > 0.0
