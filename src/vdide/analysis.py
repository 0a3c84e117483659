"""Error tables against a known solution and observed convergence order."""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DegenerateError, OffGridSample
from .problem import (
    COMMENSURABILITY_RTOL,
    DelayProblem,
    FirstStepMode,
    GridSpec,
    Trajectory,
    build_grid,
    grid_values,
    init_trajectory,
)
from .stepper import _step_loop, solve


@dataclass(frozen=True)
class ErrorTable:
    """Absolute errors |exact(x) - u| at chosen grid points, ascending in x."""

    rows: tuple[tuple[float, float], ...]
    h: float
    mode: FirstStepMode


@dataclass(frozen=True)
class OrderEstimate:
    """(h, error) pairs ordered by decreasing h and the fitted log-log slope."""

    pairs: tuple[tuple[float, float], ...]
    slope: float


def grid_index(grid: GridSpec, x: float) -> int:
    """The index j in 0 .. N with grid.point(j) == x, or OffGridSample.

    x must lie on the solved interval [x0, X], so points in the history
    segment and past the end are rejected too.  On the grid means within
    1e-9 relative, the slack build_grid allows.
    """
    position = (x - grid.x0) / grid.h
    if not -0.5 < position < grid.steps + 0.5:  # NaN too
        raise OffGridSample(
            f"x = {x!r} lies outside the solved interval "
            f"[{grid.x0!r}, {grid.point(grid.steps)!r}]"
        )
    j = round(position)
    if abs(grid.point(j) - x) > COMMENSURABILITY_RTOL * max(1.0, abs(x)):
        raise OffGridSample(f"x = {x!r} is not a grid point at h = {grid.h!r}")
    return j


def error_table(
    traj: Trajectory,
    exact: Callable[[float], float],
    sample_xs: Iterable[float],
) -> ErrorTable:
    """Tabulate |exact(x) - u(x)| at each requested grid point."""
    rows = []
    for x in sorted(sample_xs):
        j = grid_index(traj.grid, x)
        rows.append((x, abs(exact(x) - traj.value(j))))
    return ErrorTable(rows=tuple(rows), h=traj.grid.h, mode=traj.mode)


def max_abs_error(traj: Trajectory, exact: Callable[[float], float]) -> float:
    """Largest error over the forward grid points j = 1 .. N.

    exact's values come from problem.grid_values, a built problem's from its
    grid loop, so a DomainError leaves with slot "exact" and the x it failed
    at.  On a trajectory that stops at u_k short of N, exact is taken at
    j = 1 .. k + 1 and u_{k+1} then raises IndexNotYetComputed, the order
    in which a walk over the points meets the two.
    """
    grid = traj.grid
    last = min(grid.steps, traj.last_index + 1)
    values = grid_values(exact, "exact", 1, last, grid)
    traj.value(last)  # IndexNotYetComputed if traj stops short of N
    u = traj._values[grid.delay_steps + 1 :]
    return max(map(abs, map(operator.sub, values, u)))


def observed_order(e1: float, e2: float, ratio: float) -> float:
    """The order p with e1 / e2 = ratio^p, for errors at step sizes h1 and
    h2 = h1 / ratio.

    Both errors must be finite and positive; an exactly-zero error means the
    scheme is exact on this problem and no order can be read off.
    """
    if not (math.isfinite(e1) and math.isfinite(e2)) or e1 <= 0 or e2 <= 0:
        raise DegenerateError(f"cannot estimate order from errors {e1!r} and {e2!r}")
    return math.log(e1 / e2) / math.log(ratio)


def order_study(
    problem: DelayProblem,
    mode: FirstStepMode,
    h_list: Sequence[float],
) -> OrderEstimate:
    """Solve at several step sizes and fit the global convergence slope.

    The error at each h is the maximum over the grid.  The slope comes from
    a least-squares fit of log(error) against log(h), so the h values need
    not halve.
    """
    if problem.exact is None:
        raise ValueError("order study needs a problem with an exact solution")
    hs = sorted(set(h_list), reverse=True)
    if len(hs) < 2:
        raise ValueError(f"order study needs at least two step sizes, got {h_list!r}")
    pairs = []
    for h in hs:
        grid = build_grid(problem.x0, problem.x_end, problem.tau, h)
        err = max_abs_error(solve(problem, grid, mode), problem.exact)
        if not math.isfinite(err) or err <= 0:
            raise DegenerateError(
                f"error {err!r} at h = {h!r} cannot anchor a log-log fit "
                "(the scheme may be exact on this problem)"
            )
        pairs.append((h, err))
    import statistics  # here, as it costs milliseconds of every package import
    fit = statistics.linear_regression(
        [math.log(h) for h, _ in pairs], [math.log(e) for _, e in pairs]
    )
    return OrderEstimate(pairs=tuple(pairs), slope=fit.slope)


def timed_solve(
    problem: DelayProblem,
    grid: GridSpec,
    mode: FirstStepMode,
) -> tuple[Trajectory, float]:
    """Solve and return (trajectory, elapsed seconds on a monotonic clock).

    The clock times the step loop alone: the loop is made and the history
    filled before it starts, so no compile and no value of phi falls inside
    it.
    """
    fill = _step_loop(problem, grid, mode)
    traj = init_trajectory(problem, grid, mode)
    start = time.perf_counter()
    fill(traj)
    return traj, time.perf_counter() - start
