"""Reference stepper: the implicit relation solved to tolerance.

The explicit stepper closes u = M1 + (h/2) g(x_{j+1}, u) with a fixed
three-term expansion.  Here the same scalar equation is solved by plain
fixed-point iteration seeded at M1 and run until successive iterates agree
to tolerance, which gives a ground truth for measuring what the truncated
closure costs.  The iteration map has contraction factor (h/2) dg/du, so it
converges for the same step sizes the explicit closure is accurate at, and
NoConvergence on a sane problem is a sign h is far too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NoConvergence, NonFiniteState
from .problem import DelayProblem, FirstStepMode, GridSpec, Trajectory, init_trajectory
from .stepper import Closure, predictor, run_steps


@dataclass(frozen=True)
class OracleConfig:
    """Stopping rule for the fixed-point iteration."""

    tol: float = 1e-13
    max_iter: int = 100

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


DEFAULT_CONFIG = OracleConfig()


def _fixed_point_closure(
    g: Callable[[float, float], float], h: float, config: OracleConfig
) -> Closure:
    """close(j, x_next, M1): iterate u <- M1 + (h/2) g(x_next, u) from
    u = M1 to tolerance."""
    half_h = 0.5 * h

    def close(j: int, x_next: float, m1: float) -> float:
        u = m1
        for _ in range(config.max_iter):
            fu = m1 + half_h * g(x_next, u)
            if abs(fu - u) <= config.tol:
                return u
            if not math.isfinite(fu):
                raise NonFiniteState(
                    f"non-finite iterate in implicit step {j}", step_index=j
                )
            u = fu
        raise NoConvergence(
            f"implicit step {j} did not reach tol={config.tol!r} in "
            f"{config.max_iter} iterations; h may be too large for this g"
        )

    return close


def implicit_step(
    problem: DelayProblem,
    traj: Trajectory,
    j: int,
    config: OracleConfig = DEFAULT_CONFIG,
) -> float:
    """Solve u = M1 + (h/2) g(x_{j+1}, u) by iteration from the seed M1.

    Returns the first iterate u with |M1 + (h/2) g(x_{j+1}, u) - u| <= tol,
    so the returned value itself satisfies the residual bound.  Raises
    NonFiniteState as soon as an iterate is NaN or infinite, and
    NoConvergence after max_iter sweeps without meeting the bound.
    """
    grid = traj.grid
    close = _fixed_point_closure(problem.g, grid.h, config)
    return close(j, grid.point(j + 1), predictor(problem, traj, j))


def step_residual(problem: DelayProblem, traj: Trajectory, j: int) -> float:
    """Fixed-point residual |M1 + (h/2) g(x_{j+1}, u_{j+1}) - u_{j+1}|.

    Measures how well the stored value u_{j+1} satisfies the implicit step
    relation, using the same arithmetic as the iteration's stopping test.
    """
    m1 = predictor(problem, traj, j)
    u_next = traj.value(j + 1)
    half_h = 0.5 * traj.grid.h
    return abs(m1 + half_h * problem.g(traj.grid.point(j + 1), u_next) - u_next)


def solve_implicit(
    problem: DelayProblem,
    grid: GridSpec,
    mode: FirstStepMode = FirstStepMode.LITERAL,
    config: OracleConfig = DEFAULT_CONFIG,
) -> Trajectory:
    """Run the implicit reference stepper over the whole grid.

    Equal to appending implicit_step(problem, traj, j, config) for each j:
    bit for bit unless the problem declares a nonzero kernel_x_rate.
    """
    traj = init_trajectory(problem, grid, mode)
    return run_steps(problem, traj, lambda g, h: _fixed_point_closure(g, h, config))
