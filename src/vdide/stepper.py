"""Trapezoidal stepper with an explicit three-evaluation closure.

Integrating the equation across one step [x_j, x_{j+1}] and applying the
trapezium rule to the outer integral gives

    u_{j+1} = u_j + (h/2) (g(x_j, u_j) + g(x_{j+1}, u_{j+1}))
                  + (h/2) (F(x_j) + F(x_{j+1})),

where F(x) is the inner kernel integral.  Discretizing F by the trapezium
rule as well, every kernel argument u(x_i - tau) is the already-known grid
value u_{i-M}, so everything except the g(x_{j+1}, u_{j+1}) term is explicit.
Collecting the known part into a predictor M1, the step is the scalar fixed
point u = M1 + (h/2) g(x_{j+1}, u), closed here by the three-term series of
Daftardar-Gejji and Jafari (J. Math. Anal. Appl. 316, 2006), which
telescopes to two corrector substitutions:

    M2      = M1 + (h/2) g(x_{j+1}, M1)
    u_{j+1} = M1 + (h/2) g(x_{j+1}, M2)

The per-step truncation of this closure scales as h^3 while the trapezium
discretization error keeps the accumulated error at second order, so the
closure never dominates.

The interior sum s2 of step j is, term for term and in the same order, the
sum s1 of step j + 1, and the two kernel samples at x_{j+1} recur in the next
step's corner.  The solve loop, run_steps, therefore evaluates each row
once: N^2/2 + O(N) kernel evaluations over a solve, formed with the same
additions in the same order as the stateless kernel_terms, which stays as
the reference, so the output is bit-identical.  When the problem declares a
rate lam with K(x + d, t, v) = e^(lam d) K(x, t, v), a row is
rho = e^(lam h) times the previous row plus one term, already evaluated as
a corner sample, and a solve costs N + 1 kernel evaluations.  For lam = 0,
a kernel that ignores x, every product with rho = 1.0 is exact and the
output stays bit-identical; for lam < 0 the recurrence rounds differently
and agrees with kernel_terms to about 1e-12 relative.

run_steps indexes the Trajectory's list directly (its layout is in the
Trajectory docstring) and forms x_j = x0 + j h inline, since the loop range
already keeps every index in bounds; the arithmetic and its order are those
of kernel_terms, predictor and nnm_step, which stay the reference.  A
solver is a closure factory, closure(g, h) -> close(j, x_{j+1}, M1): the
loop and the single-step function of each solver share it.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NonFiniteState, _Located
from .problem import (
    DelayProblem,
    FirstStepMode,
    GridSpec,
    Trajectory,
    delayed_value,
    init_trajectory,
    planned,
)

# A step's closure: close(j, x_{j+1}, M1) -> u_{j+1}.
Closure = Callable[[int, float, float], float]


def kernel_terms(
    problem: DelayProblem,
    traj: Trajectory,
    j: int,
    mode: FirstStepMode,
) -> tuple[float, float, float]:
    """Corner term and interior sums of the discretized kernel integrals.

    Returns (corner, s1, s2) with

        corner = (h^2/4) (K(x_j, x_0, u_{-M}) + K(x_j, x_j, u_{j-M})
                          + K(x_{j+1}, x_0, u_{-M}) + K(x_{j+1}, x_{j+1}, u_{j+1-M}))
        s1     = sum over i = 1 .. j-1 of K(x_j, x_i, u_{i-M})
        s2     = sum over i = 1 .. j   of K(x_{j+1}, x_i, u_{i-M})

    In CORRECTED mode the j = 0 stencil drops the two K(x_0, ...) corner
    values, honouring F(x_0) = 0; at j = 0 both sums are empty either way.
    The delayed index j + 1 - M never exceeds j because M >= 1, so every
    kernel argument is already known.  A j outside the grid's steps
    0 .. N-1 raises ValueError, for every single-step function built on this.
    """
    grid = traj.grid
    if not 0 <= j < grid.steps:
        raise ValueError(
            f"step index {j} is out of range; the grid ends after step "
            f"{grid.steps - 1}"
        )
    h = grid.h
    K = problem.kernel
    x_j = grid.point(j)
    x_next = grid.point(j + 1)
    x_start = grid.point(0)
    u_oldest = delayed_value(traj, 0)
    quarter_h2 = h * h / 4.0

    if mode is FirstStepMode.CORRECTED and j == 0:
        corner = quarter_h2 * (
            K(x_next, x_start, u_oldest)
            + K(x_next, x_next, delayed_value(traj, 1))
        )
        return corner, 0.0, 0.0

    corner = quarter_h2 * (
        K(x_j, x_start, u_oldest)
        + K(x_j, x_j, delayed_value(traj, j))
        + K(x_next, x_start, u_oldest)
        + K(x_next, x_next, delayed_value(traj, j + 1))
    )
    s1 = 0.0
    for i in range(1, j):
        s1 += K(x_j, grid.point(i), delayed_value(traj, i))
    s2 = 0.0
    for i in range(1, j + 1):
        s2 += K(x_next, grid.point(i), delayed_value(traj, i))
    return corner, s1, s2


def predictor(problem: DelayProblem, traj: Trajectory, j: int) -> float:
    """M1: every explicit contribution to the step.

    M1 = u_j + (h/2) g(x_j, u_j) + corner + (h^2/2) (s1 + s2), using the
    trajectory's first-step mode.  What remains of the step update is the
    implicit half-weight of g at x_{j+1}.
    """
    corner, s1, s2 = kernel_terms(problem, traj, j, traj.mode)  # checks j first
    h, u_j = traj.grid.h, traj.value(j)
    g_j = problem.g(traj.grid.point(j), u_j)
    return u_j + 0.5 * h * g_j + corner + 0.5 * h * h * (s1 + s2)


def _dgj_closure(g: Callable[[float, float], float], h: float) -> Closure:
    """close(j, x_next, M1): the closure of nnm_step for one g and h.

    Raises NonFiniteState as soon as M1, M2 or u_{j+1} stops being finite.
    """
    half_h = 0.5 * h
    isfinite = math.isfinite

    def close(j: int, x_next: float, m1: float) -> float:
        m2 = m1 + half_h * g(x_next, m1)
        u_next = m1 + half_h * g(x_next, m2)
        if not (isfinite(m1) and isfinite(m2) and isfinite(u_next)):
            raise NonFiniteState(
                f"non-finite value while advancing from step {j}", step_index=j
            )
        return u_next

    return close


def nnm_step(problem: DelayProblem, traj: Trajectory, j: int) -> float:
    """Advance one step explicitly: u_{j+1} = M1 + (h/2) g(x_{j+1}, M2).

    Raises NonFiniteState as soon as any intermediate stops being finite, so
    a blow-up is reported at the step that caused it.
    """
    grid = traj.grid
    close = _dgj_closure(problem.g, grid.h)
    return close(j, grid.point(j + 1), predictor(problem, traj, j))


def solve(
    problem: DelayProblem,
    grid: GridSpec,
    mode: FirstStepMode = FirstStepMode.LITERAL,
) -> Trajectory:
    """Run the stepper over the whole grid and return the filled trajectory.

    Equal to appending nnm_step(problem, traj, j) for each j: bit for bit
    unless the problem declares a nonzero kernel_x_rate.
    """
    traj = init_trajectory(problem, grid, mode)
    return run_steps(problem, traj, _dgj_closure)


def run_steps(
    problem: DelayProblem,
    traj: Trajectory,
    closure: Callable[[Callable[[float, float], float], float], Closure],
) -> Trajectory:
    """Fill traj, holding u_{-M} .. u_0, from u_0 on: u_{j+1} =
    close(j, x_{j+1}, M1) with close = closure(problem.g, h).

    Step j takes the previous step's s2 as its s1 and its two x_{j+1}
    samples as its x_j corner samples.  With a kernel_x_rate lam and
    rho = e^(lam h) it evaluates only the diagonal sample:

        K(x_{j+1}, x_0, u_{-M}) = rho K(x_j, x_0, u_{-M})
        s2                      = rho (s1 + K(x_j, x_j, u_{j-M}))

    Every sample evaluated is one kernel_terms evaluates at the same step,
    before g.  For lam <= 0 (see expressions.x_rate) a skipped sample has
    the t and v of a diagonal sample evaluated no later, so a failing
    kernel fails at the same step, unless an x-term inside an exponent is
    already near overflow on the diagonal, as 1e308 + 1e308*(x - t) is.  A
    NumericalError or DomainError raised while advancing from step j,
    including the LITERAL corner samples at x_0 taken before the loop,
    leaves with step_index = j and x = x_j.

    g and K are planned (problem.planned) for the calls the DGJ loop
    makes: 3 of g a step, one for M1 and two in the closure, and N + 1 of K
    with a rate, N (N + 3) / 2 without.  The oracle's closure makes at least
    one g call a step and in practice more.
    """
    grid = traj.grid
    h = grid.h
    x0 = grid.x0
    u = traj._values
    n = grid.steps
    rate = problem.kernel_x_rate
    recur = rate is not None
    g = planned(problem.g, 3 * n)
    K = planned(problem.kernel, n + 1 if recur else n * (n + 3) // 2)
    close = closure(g, h)
    rho = math.exp(rate * h) if recur else 1.0
    half_h = 0.5 * h
    half_h2 = 0.5 * h * h
    quarter_h2 = h * h / 4.0
    x_j = x_start = grid.point(0)
    u_oldest = u[0]
    u_j = u[grid.delay_steps]
    # grid points x_i and delayed values u_{i-M} of the row, i = 1 .. j,
    # kept only when rows are evaluated
    row_x: list[float] = []
    row_v: list[float] = []
    s2 = 0.0
    literal = traj.mode is FirstStepMode.LITERAL
    j = 0
    try:
        # the two samples at x_j: K(x_j, x_0, u_{-M}) and K(x_j, x_j, u_{j-M}),
        # the same sample at j = 0
        if literal:
            k_start = K(x_start, x_start, u_oldest)
            k_diag = k_start if recur else K(x_start, x_start, u_oldest)
        for j in range(n):
            x_next = x0 + (j + 1) * h
            v_next = u[j + 1]
            if j == 0 and not literal:
                k_start = K(x_next, x_start, u_oldest)
                k_diag = K(x_next, x_next, v_next)
                corner = quarter_h2 * (k_start + k_diag)
                s1 = 0.0
            else:
                k_start_next = rho * k_start if recur else K(x_next, x_start, u_oldest)
                k_diag_next = K(x_next, x_next, v_next)
                corner = quarter_h2 * (k_start + k_diag + k_start_next + k_diag_next)
                s1 = s2
                if not recur:
                    s2 = 0.0
                    for t, v in zip(row_x, row_v):
                        s2 += K(x_next, t, v)
                elif j > 0:
                    s2 = rho * (s1 + k_diag)
                k_start, k_diag = k_start_next, k_diag_next
            if not recur:
                row_x.append(x_next)
                row_v.append(v_next)
            m1 = u_j + half_h * g(x_j, u_j) + corner + half_h2 * (s1 + s2)
            u_j = close(j, x_next, m1)
            u.append(u_j)
            x_j = x_next
    except _Located as exc:
        exc.step_index = j
        exc.x = x_j
        raise
    return traj
