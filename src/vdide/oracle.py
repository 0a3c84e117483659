"""Reference stepper: the implicit relation solved to tolerance.

The explicit stepper closes u = M1 + (h/2) g(x_{j+1}, u) with a fixed
three-term expansion.  Here the same scalar equation is solved by plain
fixed-point iteration seeded at M1 and run until successive iterates agree
to tolerance, which gives a ground truth for measuring what the truncated
closure costs.  The iteration map has contraction factor (h/2) dg/du, so it
converges for the same step sizes the explicit closure is accurate at, and
NoConvergence on a sane problem is a sign h is far too large.

solve_implicit runs the stepper's step loop (stepper._step_loop), tree loop
included, closed by this iteration; implicit_step stays the stateless
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoConvergence, NonFiniteState
from .problem import DelayProblem, FirstStepMode, GridSpec, Trajectory, init_trajectory
from .stepper import _step_loop, predictor


@dataclass(frozen=True)
class OracleConfig:
    """Stopping rule for the fixed-point iteration."""

    tol: float = 1e-13
    max_iter: int = 100

    def __post_init__(self):
        # an infinite tol accepts the seed M1 as every step's value
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not isinstance(self.max_iter, int):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


DEFAULT_CONFIG = OracleConfig()


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
    m1 = predictor(problem, traj, j)
    half_h, x_next = 0.5 * traj.grid.h, traj.grid.point(j + 1)
    u = m1
    for _ in range(config.max_iter):
        fu = m1 + half_h * problem.g(x_next, u)
        if abs(fu - u) <= config.tol:
            return u
        if not math.isfinite(fu):
            raise NonFiniteState(
                f"non-finite iterate in implicit step {j}", step_index=j
            )
        u = fu
    raise NoConvergence(
        f"implicit step {j} did not reach tol={config.tol!r} in "
        f"{config.max_iter} iterations; h may be too large for this g",
        step_index=j,
    )


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
    return _step_loop(problem, grid, mode, (config.tol, config.max_iter))(traj)
