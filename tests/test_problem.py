import dataclasses
import math
import random

import pytest

from vdide import DelayProblem, FirstStepMode, build_grid, delayed_value
from vdide.errors import (
    IndexNotYetComputed,
    NonCommensurateDelay,
    NonCommensurateInterval,
    ZeroDelaySteps,
)
from vdide.problem import GridSpec, Trajectory, init_trajectory


def make_problem(phi, tau=1.0, x0=0.0, x_end=1.0):
    return DelayProblem(
        g=lambda x, u: 0.0,
        kernel=lambda x, t, v: 0.0,
        history=phi,
        tau=tau,
        x0=x0,
        x_end=x_end,
    )


class TestBuildGrid:
    def test_unit_interval(self):
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        assert grid.steps == 10
        assert grid.delay_steps == 10
        assert grid.h == 0.1
        assert grid.x0 == 0.0

    def test_delay_shorter_than_interval(self):
        grid = build_grid(0.0, 1.0, 0.3, 0.1)
        assert grid.steps == 10
        assert grid.delay_steps == 3

    def test_inexact_float_ratios_still_commensurate(self):
        # 1/0.0125 and 0.3/0.1 are not exact in binary but land within 1e-9
        assert build_grid(0.0, 1.0, 1.0, 0.0125).steps == 80
        assert build_grid(0.0, 0.3, 0.3, 0.1).steps == 3

    def test_incommensurate_delay(self):
        with pytest.raises(NonCommensurateDelay):
            build_grid(0.0, 1.0, 0.25, 0.1)

    def test_incommensurate_interval(self):
        with pytest.raises(NonCommensurateInterval):
            build_grid(0.0, 0.95, 0.5, 0.1)

    @pytest.mark.parametrize(
        "x0,x_end,tau,h,error",
        [
            (0.0, 1.0, 1.0, 1e-320, NonCommensurateInterval),
            (0.0, 1e300, 1e300, 1e-10, NonCommensurateInterval),
            (-1e308, 1e308, 1.0, 1.0, NonCommensurateInterval),
            (0.0, 1.0, 1e300, 1e-10, NonCommensurateDelay),
            # a delay under the 1e-9 slack that spans no whole step either
            (0.0, 1e-12, 1e-10, 1e-320, NonCommensurateDelay),
        ],
    )
    def test_a_ratio_that_overflows_is_not_a_whole_number_of_steps(
        self, x0, x_end, tau, h, error
    ):
        # round() raises OverflowError on the infinite ratio
        with pytest.raises(error) as info:
            build_grid(x0, x_end, tau, h)
        assert str(info.value).endswith("/h = inf is not a whole number of steps")

    def test_delay_spanning_zero_steps(self):
        # tau tiny enough to round to zero steps yet pass the relative check
        with pytest.raises(ZeroDelaySteps):
            build_grid(0.0, 1.0, 1e-10, 0.1)

    @pytest.mark.parametrize(
        "x0,x_end,tau,h",
        [
            (0.0, 1.0, 1.0, 0.0),
            (0.0, 1.0, 1.0, -0.1),
            (0.0, 1.0, 0.0, 0.1),
            (0.0, 1.0, -1.0, 0.1),
            (0.0, 0.0, 1.0, 0.1),
            (1.0, 0.5, 1.0, 0.1),
            (0.0, 1.0, 1.0, math.nan),
            (0.0, 1.0, math.nan, 0.1),
        ],
    )
    def test_invalid_scalars(self, x0, x_end, tau, h):
        with pytest.raises(ValueError):
            build_grid(x0, x_end, tau, h)

    def test_point_arithmetic(self):
        grid = build_grid(0.5, 1.5, 0.5, 0.25)
        assert grid.point(0) == 0.5
        assert grid.point(4) == 1.5
        assert grid.point(-2) == 0.0
        assert grid.point(1) == 0.75

    def test_gridspec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(h=0.1, steps=0, delay_steps=1, x0=0.0)
        with pytest.raises(ValueError):
            GridSpec(h=0.1, steps=5, delay_steps=0, x0=0.0)
        with pytest.raises(ValueError):
            GridSpec(h=-0.1, steps=5, delay_steps=1, x0=0.0)


class TestDelayProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(lambda x: 0.0, tau=0.0)
        with pytest.raises(ValueError):
            make_problem(lambda x: 0.0, tau=-1.0)
        with pytest.raises(ValueError):
            make_problem(lambda x: 0.0, x0=1.0, x_end=1.0)
        for rate in (math.nan, -math.inf):
            with pytest.raises(ValueError):
                dataclasses.replace(make_problem(lambda x: 0.0), kernel_x_rate=rate)

    def test_initial_value_comes_from_history(self):
        problem = make_problem(lambda x: math.exp(x + 1.0))
        assert problem.initial_value == math.e


class TestTrajectory:
    def test_history_prefill_is_bit_exact(self):
        problem = make_problem(math.exp)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        for j in range(-grid.delay_steps, 1):
            assert traj.value(j) == math.exp(grid.point(j))
        assert traj.value(-10) == math.exp(-1.0)
        assert traj.value(0) == 1.0
        assert traj.last_index == 0

    def test_shifted_exponential_history_starts_at_e(self):
        problem = make_problem(lambda x: math.exp(x + 1.0))
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        assert traj.value(0) == math.e
        assert traj.value(-10) == 1.0

    def test_zero_history(self):
        problem = make_problem(lambda x: 0.0)
        grid = build_grid(0.0, 1.0, 1.0, 0.2)
        traj = init_trajectory(problem, grid)
        assert traj.values == (0.0,) * 6

    def test_reading_ahead_raises(self):
        traj = init_trajectory(make_problem(math.cos), build_grid(0.0, 1.0, 1.0, 0.1))
        with pytest.raises(IndexNotYetComputed):
            traj.value(1)

    def test_reading_before_history_raises(self):
        traj = init_trajectory(make_problem(math.cos), build_grid(0.0, 1.0, 1.0, 0.1))
        with pytest.raises(IndexError):
            traj.value(-11)

    def test_append_then_read(self):
        traj = init_trajectory(make_problem(math.cos), build_grid(0.0, 1.0, 1.0, 0.1))
        traj.append(1.25)
        traj.append(1.5)
        assert traj.last_index == 2
        assert traj.value(1) == 1.25
        assert traj.value(2) == 1.5

    def test_append_past_the_grid_raises(self):
        problem = make_problem(math.cos, x_end=0.2)
        traj = init_trajectory(problem, build_grid(0.0, 0.2, 1.0, 0.1))
        traj.append(1.0)
        traj.append(2.0)
        with pytest.raises(ValueError):
            traj.append(3.0)

    def test_values_snapshot_is_immutable(self):
        traj = init_trajectory(make_problem(math.cos), build_grid(0.0, 1.0, 1.0, 0.5))
        snap = traj.values
        assert isinstance(snap, tuple)
        traj.append(9.0)
        assert snap != traj.values

    def test_mode_is_recorded(self):
        problem = make_problem(math.cos)
        grid = build_grid(0.0, 1.0, 1.0, 0.5)
        assert init_trajectory(problem, grid).mode is FirstStepMode.LITERAL
        traj = init_trajectory(problem, grid, FirstStepMode.CORRECTED)
        assert traj.mode is FirstStepMode.CORRECTED

    def test_history_length_validated(self):
        grid = build_grid(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            Trajectory(grid, FirstStepMode.LITERAL, [0.0, 0.0])

    def test_grid_must_match_problem(self):
        problem = make_problem(math.cos, tau=1.0)
        grid = build_grid(0.0, 1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            init_trajectory(problem, grid)
        grid2 = build_grid(0.5, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            init_trajectory(problem, grid2)


class TestDelayedValue:
    def test_reads_history_before_any_step(self):
        problem = make_problem(math.sin)
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = init_trajectory(problem, grid)
        for j in range(0, grid.delay_steps + 1):
            assert delayed_value(traj, j) == math.sin(grid.point(j - 10))

    def test_reads_computed_values_once_past_the_delay(self):
        problem = make_problem(math.sin, tau=0.2)
        grid = build_grid(0.0, 1.0, 0.2, 0.1)
        traj = init_trajectory(problem, grid)
        traj.append(42.0)
        assert delayed_value(traj, 3) == 42.0

    def test_negative_index_rejected(self):
        traj = init_trajectory(make_problem(math.sin), build_grid(0.0, 1.0, 1.0, 0.1))
        with pytest.raises(ValueError):
            delayed_value(traj, -1)

    def test_future_lookup_raises(self):
        problem = make_problem(math.sin, tau=0.1)
        grid = build_grid(0.0, 1.0, 0.1, 0.1)
        traj = init_trajectory(problem, grid)
        with pytest.raises(IndexNotYetComputed):
            delayed_value(traj, 2)

    def test_lag_always_lands_on_grid(self):
        rng = random.Random(2024)
        for _ in range(20):
            m = rng.randint(1, 8)
            n = rng.randint(1, 12)
            h = rng.choice([0.05, 0.1, 0.2, 0.25])
            problem = make_problem(math.cos, tau=m * h, x0=0.0, x_end=n * h)
            grid = build_grid(0.0, n * h, m * h, h)
            assert grid.delay_steps == m
            assert grid.steps == n
            traj = init_trajectory(problem, grid)
            for k in range(1, n + 1):
                traj.append(100.0 + k)
            # every forward index can look back without leaving the grid:
            # history for j <= M, computed values beyond
            for j in range(0, n + 1):
                if j <= m:
                    assert delayed_value(traj, j) == math.cos(grid.point(j - m))
                else:
                    assert delayed_value(traj, j) == 100.0 + (j - m)
