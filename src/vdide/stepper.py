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

When the plans of a solve reach compiled code for both g and K
(problem.planned_tree), solve runs neither run_steps nor the closure but a
loop generated for the two trees (_loop_source): run_steps line for line,
with g's and K's own lines written out at every call site and the closure
inlined, so a step calls no Python function for g, K or the closure.  The
three g calls of a step sit at two abscissae, x_j for M1 and x_{j+1} for
M2 and u_{j+1}, and the next step's M1 is again at x_{j+1}; so the loop
evaluates the maximal subtrees of g that do not contain u once per grid
point, right after M1, and reuses them up to the next step's M1.  It makes
the same float operations on the same values in the same order as
run_steps, so its values are bit-identical, and it evaluates nothing
run_steps does not, so it needs no error logic: if it raises, solve cuts
the trajectory back to its history and reruns run_steps, which raises the
reference exception with its step_index and x.  run_steps stays the
reference, the loop of the oracle and of every solve whose plans fall
short, such as a traced one.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NonFiniteState, _Located
from .expressions import Expression, _code, _emit, _NonFinite
from .problem import (
    DelayProblem,
    FirstStepMode,
    GridSpec,
    Trajectory,
    delayed_value,
    init_trajectory,
    planned,
    planned_tree,
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
    unless the problem declares a nonzero kernel_x_rate.  When the plans of
    g and K both reach compiled code (planned_tree), the steps run in a
    loop generated for the two trees (_inlined_steps), with the same
    values; if it raises, the trajectory goes back to its history and
    run_steps raises the reference exception.  Otherwise run_steps.
    """
    traj = init_trajectory(problem, grid, mode)
    n = grid.steps
    g_tree = planned_tree(problem.g, 3 * n)
    k_tree = None if g_tree is None else planned_tree(
        problem.kernel, _kernel_calls(n, problem.kernel_x_rate)
    )
    if k_tree is not None:
        try:
            _inlined_steps(problem, traj, g_tree, k_tree)
            return traj
        except (_NonFinite, ValueError, ZeroDivisionError, OverflowError):
            del traj._values[grid.delay_steps + 1 :]
    return run_steps(problem, traj, _dgj_closure)


def _kernel_calls(n: int, rate: float | None) -> int:
    """Kernel calls of run_steps over n steps, kernel_x_rate rate."""
    return n + 1 if rate is not None else n * (n + 3) // 2


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
    with a rate, N (N + 3) / 2 without (_kernel_calls).  The oracle's
    closure makes at least one g call a step and in practice more.
    """
    grid = traj.grid
    h = grid.h
    x0 = grid.x0
    u = traj._values
    n = grid.steps
    rate = problem.kernel_x_rate
    recur = rate is not None
    g = planned(problem.g, 3 * n)
    K = planned(problem.kernel, _kernel_calls(n, rate))
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


def _inlined_steps(
    problem: DelayProblem, traj: Trajectory, g_tree: Expression, k_tree: Expression
) -> None:
    """Fill traj as run_steps(problem, traj, _dgj_closure) does, bit for
    bit, in the loop _loop_source generates for g_tree and k_tree, the
    trees of problem.g and problem.kernel.

    A failure raises whatever the generated lines raise, unlocated, and
    leaves the values appended so far; solve reruns run_steps for the
    reference exception.
    """
    grid = traj.grid
    h = grid.h
    rate = problem.kernel_x_rate
    source, names = _loop_source(
        g_tree, k_tree, traj.mode is FirstStepMode.LITERAL, rate is not None
    )
    namespace: dict = {}
    exec(_code(source), namespace)
    u = traj._values
    # popped, so the function and its globals do not refer to each other
    namespace.pop("_steps")(
        u, grid.steps, grid.x0, h, grid.point(0), u[0], u[grid.delay_steps],
        math.exp(rate * h) if rate is not None else 1.0,
        0.5 * h, 0.5 * h * h, h * h / 4.0,
        *names.values(),
    )


def _loop_source(
    g_tree: Expression, k_tree: Expression, literal: bool, recur: bool
) -> tuple[str, dict]:
    """The source of run_steps' loop with g and K written out, and the
    values of the further names it takes.

    _steps(u, n, x0, h, x_start, u_oldest, u_j, rho, half_h, half_h2,
    quarter_h2, *names) mirrors run_steps line for line: its branches on
    the first-step mode and the row path are taken here, every g and K
    call is the expression's own lines (expressions._emit) with its
    variables mapped to the call's arguments, and the closure is inlined.
    g's maximal subtrees without u are evaluated once per grid point, at
    x_0 before the loop and at x_{j+1} after M1, which reuses them at x_j.
    Compiled code's isfinite checks where a later node could hide a
    non-finite value stay, and a failed one raises _NonFinite.  Those of
    the values of g and K themselves go: such a value reaches M1, M2 or
    u_{j+1} of the same step through + and * only, and the closure's
    check stops it there.  Numbers, constants and functions are
    parameters, so the source depends only on the trees' shapes and the
    two branches, and CPython compiles each source once (expressions._code).
    """
    names = {"_isfinite": math.isfinite, "_pow": math.pow, "_NonFinite": _NonFinite}
    k_body: list[str] = []
    k_out = _emit(k_tree, k_body, names, False, {"x": "{x}", "t": "{t}", "v": "{v}"})
    g_body: list[str] = []
    g_free: list[str] = []
    g_out = _emit(g_tree, g_body, names, False, {"x": "{x}", "u": "{u}"}, g_free)
    # each call site's lines are one of these filled in, {i} its indent
    k_lines, g_lines, free_lines = (
        "".join(f"{{i}}{line}\n" for line in body) for body in (k_body, g_body, g_free)
    )

    def K(i, target, x, t, v):
        """The lines of target = K(x, t, v), or of s2 += K(x, t, v)."""
        lines = k_lines.format(i=i, x=x, t=t, v=v)
        return f"{lines}{i}{target} {k_out.format(x=x, t=t, v=v)}\n"

    def g(i, x, u):
        """(lines, value) of g(x, u)."""
        return g_lines.format(i=i, x=x, u=u), g_out.format(x=x, u=u)

    def rows(i):
        """The K samples and row sums of a step other than the corrected j = 0."""
        if recur:
            src = f"{i}k_start_next = rho * k_start\n"
        else:
            src = K(i, "k_start_next =", "x_next", "x_start", "u_oldest")
        src += K(i, "k_diag_next =", "x_next", "x_next", "v_next")
        src += (
            f"{i}corner = quarter_h2 * "
            "(k_start + k_diag + k_start_next + k_diag_next)\n"
            f"{i}s1 = s2\n"
        )
        if not recur:
            src += f"{i}s2 = 0.0\n{i}for t, v in zip(row_x, row_v):\n"
            src += K(i + "    ", "s2 +=", "x_next", "t", "v")
        elif literal:
            src += f"{i}if j > 0:\n{i}    s2 = rho * (s1 + k_diag)\n"
        else:
            src += f"{i}s2 = rho * (s1 + k_diag)\n"
        return src + f"{i}k_start, k_diag = k_start_next, k_diag_next\n"

    a, b, c = "    ", " " * 8, " " * 12
    src = (
        "def _steps(u, n, x0, h, x_start, u_oldest, u_j, rho, half_h, half_h2, "
        f"quarter_h2, {', '.join(names)}):\n"
        f"{a}x_j = x_start\n"
        f"{a}append = u.append\n"
        f"{a}s2 = 0.0\n"
    )
    if not recur:
        src += f"{a}row_x = []\n{a}row_v = []\n"
    if literal:
        src += K(a, "k_start =", "x_start", "x_start", "u_oldest")
        src += f"{a}k_diag = k_start\n"
    src += free_lines.format(i=a, x="x_j")
    src += (
        f"{a}for j in range(n):\n"
        f"{b}x_next = x0 + (j + 1) * h\n"
        f"{b}v_next = u[j + 1]\n"
    )
    if literal:
        src += rows(b)
    else:
        src += f"{b}if j == 0:\n"
        src += K(c, "k_start =", "x_next", "x_start", "u_oldest")
        src += K(c, "k_diag =", "x_next", "x_next", "v_next")
        src += f"{c}corner = quarter_h2 * (k_start + k_diag)\n{c}s1 = 0.0\n{b}else:\n"
        src += rows(c)
    if not recur:
        src += f"{b}row_x.append(x_next)\n{b}row_v.append(v_next)\n"
    lines, value = g(b, "x_j", "u_j")
    src += f"{lines}{b}m1 = u_j + half_h * {value} + corner + half_h2 * (s1 + s2)\n"
    src += free_lines.format(i=b, x="x_next")
    lines, value = g(b, "x_next", "m1")
    src += f"{lines}{b}m2 = m1 + half_h * {value}\n"
    lines, value = g(b, "x_next", "m2")
    src += (
        f"{lines}{b}u_j = m1 + half_h * {value}\n"
        f"{b}if not (_isfinite(m1) and _isfinite(m2) and _isfinite(u_j)):\n"
        f"{c}raise _NonFinite\n"
        f"{b}append(u_j)\n"
        f"{b}x_j = x_next\n"
    )
    return src, names
