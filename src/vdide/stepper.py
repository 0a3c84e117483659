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
step's corner.  solve therefore draws its kernel terms from kernel_rows,
which evaluates each row once: N^2/2 + O(N) kernel evaluations over a solve,
formed with the same additions in the same order as the stateless
kernel_terms, which stays as the reference, so the output is bit-identical.
When the problem declares a rate lam with K(x + d, t, v) = e^(lam d) K(x, t, v),
a row is rho = e^(lam h) times the previous row plus one term, already
evaluated as a corner sample, and a solve costs N + 1 kernel evaluations.
For lam = 0, a kernel that ignores x, every product with rho = 1.0 is exact
and the output stays bit-identical; for lam < 0 the recurrence rounds
differently and agrees with kernel_terms to about 1e-12 relative.

run_steps and kernel_rows index the Trajectory's list directly (its layout
is in the Trajectory docstring) and form x_j = x0 + j h inline, since the
loop range already keeps every index in bounds; the arithmetic and its order
are those of kernel_terms, predictor and nnm_step, which stay the reference.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from .errors import NonFiniteState
from .expressions import DomainError
from .problem import (
    DelayProblem,
    FirstStepMode,
    GridSpec,
    Trajectory,
    delayed_value,
    init_trajectory,
)


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


def kernel_rows(
    problem: DelayProblem, traj: Trajectory
) -> Iterator[tuple[float, float, float]]:
    """Yield kernel_terms(problem, traj, j, traj.mode) for j = 0 .. N-1.

    Each kernel sample is evaluated once per solve: step j takes the
    previous step's s2 as its s1 and the previous step's two x_{j+1} samples
    as its x_j corner samples, and only evaluates the new row, with values
    bit-identical to the stateless function.  When problem.kernel_x_rate is
    a rate lam, the new row is not evaluated either: with rho = e^(lam h),

        K(x_{j+1}, x_0, u_{-M}) = rho K(x_j, x_0, u_{-M})
        s2                      = rho (s1 + K(x_j, x_j, u_{j-M}))

    and a step evaluates only its diagonal sample K(x_{j+1}, x_{j+1},
    u_{j+1-M}).  Bit-identical for lam = 0, within about 1e-12 relative
    otherwise.  Either way every sample evaluated here is one the stateless
    function evaluates at the same step.  For lam <= 0 (see
    expressions.x_rate) a sample skipped here has the t and v of a diagonal
    sample evaluated no later, and no x-term inside an exponent moves by a
    non-finite amount over [x0, X], so a failing kernel fails at the same
    step, unless such a term is already within that amount of overflowing
    on the diagonal, as 1e308 + 1e308*(x - t) is.

    Step j reads u_{j+1-M}, so advance the generator only once the
    trajectory holds u_j.
    """
    grid = traj.grid
    h = grid.h
    x0 = grid.x0
    u = traj._values
    K = problem.kernel
    rate = problem.kernel_x_rate
    recur = rate is not None
    rho = math.exp(rate * h) if recur else 1.0
    quarter_h2 = h * h / 4.0
    x_start = grid.point(0)
    u_oldest = u[0]
    # grid points x_i and delayed values u_{i-M} of the row, i = 1 .. j,
    # kept only when rows are evaluated
    row_x: list[float] = []
    row_v: list[float] = []
    s2 = 0.0

    # the two samples at x_j: K(x_j, x_0, u_{-M}) and K(x_j, x_j, u_{j-M}),
    # the same sample at j = 0
    literal = traj.mode is FirstStepMode.LITERAL
    if literal:
        k_start = K(x_start, x_start, u_oldest)
        k_diag = k_start if recur else K(x_start, x_start, u_oldest)

    for j in range(grid.steps):
        x_next = x0 + (j + 1) * h
        v_next = u[j + 1]
        if j == 0 and not literal:
            k_start = K(x_next, x_start, u_oldest)
            k_diag = K(x_next, x_next, v_next)
            yield quarter_h2 * (k_start + k_diag), 0.0, 0.0
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
            yield corner, s1, s2
            k_start, k_diag = k_start_next, k_diag_next
        if not recur:
            row_x.append(x_next)
            row_v.append(v_next)


def m1_from_terms(
    g: Callable[[float, float], float],
    h: float,
    x_j: float,
    u_j: float,
    terms: tuple[float, float, float],
) -> float:
    """M1 = u_j + (h/2) g(x_j, u_j) + corner + (h^2/2) (s1 + s2).

    terms is the (corner, s1, s2) triple of step j.  Every solver path forms
    M1 here, so all of them round it the same way.
    """
    corner, s1, s2 = terms
    return u_j + 0.5 * h * g(x_j, u_j) + corner + 0.5 * h * h * (s1 + s2)


def predictor(problem: DelayProblem, traj: Trajectory, j: int) -> float:
    """M1: every explicit contribution to the step.

    M1 = u_j + (h/2) g(x_j, u_j) + corner + (h^2/2) (s1 + s2), using the
    trajectory's first-step mode.  What remains of the step update is the
    implicit half-weight of g at x_{j+1}.
    """
    terms = kernel_terms(problem, traj, j, traj.mode)  # checks j first
    grid = traj.grid
    return m1_from_terms(problem.g, grid.h, grid.point(j), traj.value(j), terms)


def _close(problem: DelayProblem, grid: GridSpec, j: int, m1: float) -> float:
    """The closure of nnm_step, given the predictor M1 of step j."""
    x_next = grid.point(j + 1)
    half_h = 0.5 * grid.h
    m2 = m1 + half_h * problem.g(x_next, m1)
    u_next = m1 + half_h * problem.g(x_next, m2)
    if not (math.isfinite(m1) and math.isfinite(m2) and math.isfinite(u_next)):
        raise NonFiniteState(
            f"non-finite value while advancing from step {j}", step_index=j
        )
    return u_next


def nnm_step(problem: DelayProblem, traj: Trajectory, j: int) -> float:
    """Advance one step explicitly: u_{j+1} = M1 + (h/2) g(x_{j+1}, M2).

    Raises NonFiniteState as soon as any intermediate stops being finite, so
    a blow-up is reported at the step that caused it.
    """
    return _close(problem, traj.grid, j, predictor(problem, traj, j))


def solve(
    problem: DelayProblem,
    grid: GridSpec,
    mode: FirstStepMode = FirstStepMode.LITERAL,
) -> Trajectory:
    """Run the stepper over the whole grid and return the filled trajectory.

    Equal to appending nnm_step(problem, traj, j) for each j, with the
    kernel terms drawn from kernel_rows: bit for bit unless the problem
    declares a nonzero kernel_x_rate.
    """
    traj = init_trajectory(problem, grid, mode)
    return run_steps(problem, traj, _close)


def run_steps(
    problem: DelayProblem,
    traj: Trajectory,
    close: Callable[[DelayProblem, GridSpec, int, float], float],
) -> Trajectory:
    """Fill traj from u_0 on: u_{j+1} = close(problem, grid, j, M1), with M1
    formed from kernel_rows.

    The loop both solvers share; traj holds u_{-M} .. u_0, as
    init_trajectory leaves it.  A DomainError raised while advancing from
    step j leaves with step_index = j, as NonFiniteState does.
    """
    grid = traj.grid
    g = problem.g
    h = grid.h
    x0 = grid.x0
    u = traj._values
    offset = grid.delay_steps
    rows = kernel_rows(problem, traj)
    for j in range(grid.steps):
        try:
            m1 = m1_from_terms(g, h, x0 + j * h, u[j + offset], next(rows))
            u.append(close(problem, grid, j, m1))
        except DomainError as exc:
            exc.step_index = j
            raise
    return traj
