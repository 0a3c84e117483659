"""Error tables against a known solution and observed convergence order."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import DegenerateError, OffGridSample
from .expressions import DomainError
from .problem import (
    COMMENSURABILITY_RTOL,
    DelayProblem,
    FirstStepMode,
    GridSpec,
    Trajectory,
    build_grid,
    planned,
)
from .stepper import solve


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

    Its N calls of exact are planned, and a DomainError they raise leaves
    with slot "exact" and the x it failed at.
    """
    exact = planned(exact, traj.grid.steps)
    try:
        return max(
            abs(exact(x := traj.grid.point(j)) - traj.value(j))
            for j in range(1, traj.grid.steps + 1)
        )
    except DomainError as exc:
        exc.slot, exc.x = "exact", x
        raise


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
    at_x: Optional[float] = None,
) -> OrderEstimate:
    """Solve at several step sizes and fit the global convergence slope.

    The error at each h is the maximum over the grid, or the error at the
    single point at_x when given.  The slope comes from a least-squares fit
    of log(error) against log(h), so the h values need not halve.
    """
    if problem.exact is None:
        raise ValueError("order study needs a problem with an exact solution")
    hs = sorted(set(h_list), reverse=True)
    if len(hs) < 2:
        raise ValueError(f"order study needs at least two step sizes, got {h_list!r}")
    pairs = []
    for h in hs:
        grid = build_grid(problem.x0, problem.x_end, problem.tau, h)
        traj = solve(problem, grid, mode)
        if at_x is None:
            err = max_abs_error(traj, problem.exact)
        else:
            err = abs(problem.exact(at_x) - traj.value(grid_index(grid, at_x)))
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
    """Solve and return (trajectory, elapsed seconds on a monotonic clock)."""
    start = time.perf_counter()
    traj = solve(problem, grid, mode)
    return traj, time.perf_counter() - start
