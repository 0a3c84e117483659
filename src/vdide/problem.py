"""Problem statement, uniform grid, and solution container.

The continuous problem is a Volterra integro-differential equation whose
kernel sees the state one constant delay in the past:

    u'(x) = g(x, u(x)) + F(x),    F(x) = integral of K(x, t, u(t - tau))
                                         for t from x0 to x,
    u(x)  = history(x)            on [x0 - tau, x0],

posed on [x0, x_end] with delay tau > 0.  Solvers in this package work on a
uniform grid chosen so that both the interval length and the delay are whole
numbers of steps.  The delayed argument x_j - tau then lands exactly on the
grid point x_{j-M}, and no interpolation into the past is ever needed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (
    IndexNotYetComputed,
    NonCommensurateDelay,
    NonCommensurateInterval,
    ZeroDelaySteps,
)
from .expressions import LOOP_FAILURES, DomainError, grid_loop

# Relative slack when checking that a ratio is a whole number of steps.
COMMENSURABILITY_RTOL = 1e-9


class FirstStepMode(enum.Enum):
    """How the kernel integral is discretized on the very first step.

    LITERAL applies the same trapezium stencil at j = 0 as at every later
    step.  The stencil's corner term then counts the kernel at x_0 twice even
    though the inner integral F(x_0) is exactly zero, which injects an O(h^2)
    perturbation into the first step only.  CORRECTED honours F(x_0) = 0 and
    keeps just the terms belonging to F(x_1).  Both modes agree whenever
    K(x_0, x_0, u(x_0 - tau)) happens to vanish.
    """

    LITERAL = "literal"
    CORRECTED = "corrected"


@dataclass(frozen=True)
class DelayProblem:
    """One instance of the continuous problem.

    g, kernel, and history are plain callables: g(x, u), kernel(x, t, v)
    where v stands for the delayed state u(t - tau), and history(x) for
    x <= x0.  exact, when given, is the known closed-form solution used by
    error tables and order studies.

    kernel_x_rate, when not None, declares the rate lam with
    kernel(x + d, t, v) = e^(lam d) kernel(x, t, v) for all arguments: 0.0
    for a kernel that ignores x, lam < 0 for one whose x-dependence is a
    decaying exponential such as e^(lam (x - t)) c(v).  The solvers then get
    each trapezium row from the previous one, scaled by e^(lam h), plus one
    sample, which makes a solve O(N) in kernel evaluations instead of
    O(N^2).  Results are bit-identical for 0.0 and agree to about 1e-12
    relative for lam < 0.  A rate the kernel does not have gives wrong
    answers; the default None is always safe.

    _loops is the problem's own memo of the lines of g and K that its tree
    loops write in and of their values (stepper._step_loop), which
    equality, hash and repr ignore; dataclasses.replace starts it empty.
    """

    g: Callable[[float, float], float]
    kernel: Callable[[float, float, float], float]
    history: Callable[[float], float]
    tau: float
    x0: float
    x_end: float
    exact: Optional[Callable[[float], float]] = None
    kernel_x_rate: Optional[float] = None
    _loops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if not self.x_end > self.x0:
            raise ValueError(
                f"x_end must exceed x0, got x0={self.x0!r}, x_end={self.x_end!r}"
            )
        if self.kernel_x_rate is not None and not math.isfinite(self.kernel_x_rate):
            raise ValueError(
                f"kernel_x_rate must be finite or None, got {self.kernel_x_rate!r}"
            )

    @property
    def initial_value(self) -> float:
        """u(x0), taken from the history segment."""
        return self.history(self.x0)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid x_j = x0 + j*h for j = -delay_steps .. steps.

    steps is the number of forward steps N, delay_steps the number of steps M
    spanning one delay.  Negative indices address the history segment.
    """

    h: float
    steps: int
    delay_steps: int
    x0: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h!r}")
        if self.steps < 1:
            raise ValueError(f"need at least one forward step, got {self.steps!r}")
        if self.delay_steps < 1:
            raise ValueError(
                f"delay must span at least one step, got {self.delay_steps!r}"
            )

    def point(self, j: int) -> float:
        """Grid point x_j; meaningful for -delay_steps <= j <= steps."""
        return self.x0 + j * self.h


def build_grid(x0: float, x_end: float, tau: float, h: float) -> GridSpec:
    """Build the uniform grid, enforcing commensurability of interval and delay.

    (x_end - x0)/h and tau/h must both be integers to within 1e-9 relative.
    The second condition is what lets delayed lookups stay on-grid; violating
    either, or a ratio that overflows, is a hard error rather than a silent
    rounding.  So is an h below the spacing of doubles over the grid, from
    x0 - tau to x_end.
    """
    if not h > 0:
        raise ValueError(f"h must be positive, got {h!r}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    if x_end <= x0:
        raise ValueError(f"x_end must exceed x0, got x0={x0!r}, x_end={x_end!r}")

    span = x_end - x0
    slack = COMMENSURABILITY_RTOL * max(1.0, abs(span))
    ratio = span / h
    n = round(ratio) if math.isfinite(ratio) else None
    if n is None or n < 1 or abs(n * h - span) > slack:
        raise NonCommensurateInterval(
            f"(x_end - x0)/h = {ratio!r} is not a whole number of steps"
        )
    ratio = tau / h
    m = round(ratio) if math.isfinite(ratio) else None
    if m is None or abs(m * h - tau) > COMMENSURABILITY_RTOL * max(1.0, tau):
        raise NonCommensurateDelay(f"tau/h = {ratio!r} is not a whole number of steps")
    if m == 0:
        raise ZeroDelaySteps(
            f"tau = {tau!r} spans zero steps of h = {h!r}; delayed lookups "
            "would reference the future"
        )
    # below the spacing of doubles, neighbouring grid points would be the
    # same number; the checks above pass such an h, since n*h still rounds
    # to the span
    extent = max(abs(x0 - tau), abs(x_end))
    if h < math.ulp(extent):
        raise ValueError(
            f"h = {h!r} is below the spacing of doubles near {extent!r}; "
            "neighbouring grid points would be the same number"
        )
    return GridSpec(h=h, steps=n, delay_steps=m, x0=x0)


class Trajectory:
    """Solution values on the grid, indexed j = -M .. N.

    The history segment j = -M .. 0 is fixed at construction.  Forward values
    are appended one at a time in index order and never rewritten, so an
    instance is safe to share once filled.

    The values live in the list _values, where index i holds u_{i-M}: the
    history u_{-M} .. u_0 first, then u_1, u_2, ...; values is a snapshot of
    it.  The step loop of both solvers (stepper._loop_source) reads and
    appends to that list directly, without the bounds checks of value and
    append, and the CLI slices it for output.
    """

    def __init__(self, grid: GridSpec, mode: FirstStepMode, history: list[float]):
        if len(history) != grid.delay_steps + 1:
            raise ValueError(
                f"history must hold {grid.delay_steps + 1} values "
                f"(j = -{grid.delay_steps} .. 0), got {len(history)}"
            )
        self.grid = grid
        self.mode = FirstStepMode(mode)
        self._values = [float(v) for v in history]

    @property
    def values(self) -> tuple[float, ...]:
        """All stored values, history first, as an immutable snapshot."""
        return tuple(self._values)

    @property
    def last_index(self) -> int:
        """Largest grid index j whose value is present."""
        return len(self._values) - 1 - self.grid.delay_steps

    def value(self, j: int) -> float:
        """Stored u_j; IndexNotYetComputed if the solve has not reached j."""
        if j < -self.grid.delay_steps:
            raise IndexError(
                f"index {j} precedes the history start -{self.grid.delay_steps}"
            )
        if j > self.last_index:
            raise IndexNotYetComputed(
                f"u_{j} requested but values stop at u_{self.last_index}"
            )
        return self._values[j + self.grid.delay_steps]

    @classmethod
    def _holding(cls, grid: GridSpec, mode: FirstStepMode, values: list[float]):
        """A trajectory whose _values is values itself, the M + 1 history
        floats, neither checked nor copied."""
        traj = cls.__new__(cls)
        traj.grid, traj.mode, traj._values = grid, mode, values
        return traj

    def append(self, u: float) -> None:
        """Store the next forward value."""
        if self.last_index >= self.grid.steps:
            raise ValueError("trajectory already holds all grid values")
        self._values.append(float(u))


def init_trajectory(
    problem: DelayProblem,
    grid: GridSpec,
    mode: FirstStepMode = FirstStepMode.LITERAL,
) -> Trajectory:
    """Create a trajectory with the history segment prefilled.

    values[j] = history(x_j) for j = -M .. 0; in particular the initial value
    u_0 is history(x0), whatever the problem's g would say about it.  The
    values come from grid_values, as floats, and the list becomes the
    trajectory's own.
    """
    _check_grid_matches(problem, grid)
    mode = FirstStepMode(mode)
    values = grid_values(problem.history, "phi", -grid.delay_steps, 0, grid)
    return Trajectory._holding(grid, mode, values)


def grid_values(
    fn: Callable[[float], float], slot: str, first: int, last: int, grid: GridSpec
) -> list[float]:
    """[float(fn(x_j)) for j = first .. last], for phi or exact.

    A function that carries its tree, as a built problem's slot functions
    do (registry._slot_function), runs its grid loop (grid_loop), on float
    x0 and h, so its values are floats on an integer grid too.  The loop is
    made on the first use and kept on fn as fn.loop, for every grid and
    index range after it.  If the loop fails, or fn is a plain callable, fn
    is called at every point in order, its values go through float(), and a
    DomainError leaves stamped with slot and the x it failed at.  Only this
    and stepper._step_loop read a slot function's tree.
    """
    tree = getattr(fn, "tree", None)
    x0, h = grid.x0, grid.h
    if tree is not None:
        loop = getattr(fn, "loop", None)
        if loop is None:
            loop = fn.loop = grid_loop(tree)
        try:
            return loop(first, last, float(x0), float(h))
        except LOOP_FAILURES:
            pass
    try:
        return [float(fn(x := x0 + j * h)) for j in range(first, last + 1)]
    except DomainError as exc:
        exc.slot, exc.x = slot, x
        raise


def delayed_value(traj: Trajectory, j: int) -> float:
    """u(x_j - tau), read as the stored value at index j - M.

    Valid for j >= 0; j - M >= -M always holds, so the lookup can only fail
    forward, raising IndexNotYetComputed.
    """
    if j < 0:
        raise ValueError(f"delayed lookups are defined for j >= 0, got {j}")
    return traj.value(j - traj.grid.delay_steps)


def _check_grid_matches(problem: DelayProblem, grid: GridSpec) -> None:
    tol = COMMENSURABILITY_RTOL
    if abs(grid.x0 - problem.x0) > tol * max(1.0, abs(problem.x0)):
        raise ValueError(
            f"grid origin {grid.x0!r} does not match problem x0 {problem.x0!r}"
        )
    if abs(grid.delay_steps * grid.h - problem.tau) > tol * max(1.0, problem.tau):
        raise ValueError(
            f"grid delay span {grid.delay_steps * grid.h!r} does not match "
            f"problem tau {problem.tau!r}"
        )
    end = grid.point(grid.steps)
    if abs(end - problem.x_end) > tol * max(1.0, abs(problem.x_end)):
        raise ValueError(
            f"grid endpoint {end!r} does not match problem x_end {problem.x_end!r}"
        )
