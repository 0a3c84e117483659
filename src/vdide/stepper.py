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
step's corner.  The solve loop therefore evaluates each row once:
N^2/2 + O(N) kernel evaluations over a solve, formed with the same
additions in the same order as the stateless kernel_terms, which stays as
the reference, so the output is bit-identical.  When the problem declares a
rate lam with K(x + d, t, v) = e^(lam d) K(x, t, v), a row is
rho = e^(lam h) times the previous row plus one term, already evaluated as
a corner sample, and a solve costs N + 1 kernel evaluations.  For lam = 0,
a kernel that ignores x, every product with rho = 1.0 is exact and the
output stays bit-identical; for lam < 0 the recurrence rounds differently
and agrees with kernel_terms to about 1e-12 relative.

Both solvers, this one and the oracle, fill the trajectory in a loop
generated from one template (_loop_source) and closed by the DGJ pair or by
the oracle's fixed-point iteration; kernel_terms, predictor, nnm_step and
oracle.implicit_step stay the stateless reference.  A built problem's g and
K carry their trees, and its solve runs the tree loop, which writes their
lines in (expressions._emit), so a step calls no Python function and does
only what changes per step.  The lines of g and K are written once per
problem and kept on the problem.  The call-site loop, which calls g and K
and runs for a problem of plain callables, is the step loop of the lines
_CALLS, two calls.  One maker and one bounded cache, _tree_loop, make each
step loop once per process, for each shape and lines, whatever the trees'
numbers and the h.  The tree loop makes the same float operations in the
same order as the call-site loop; if the tree loop raises, the call-site
loop reruns and raises the reference exception (_step_loop).  phi
and exact run in grid loops (expressions.grid_loop), outside the step loop,
with the same fallback (problem.grid_values), and keep them.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .errors import NoConvergence, NonFiniteState, NumericalError, _Located
from .expressions import LOOP_FAILURES, Expression, _define, _emit, _loop_names
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
    grid, mode = traj.grid, FirstStepMode(mode)
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


def nnm_step(problem: DelayProblem, traj: Trajectory, j: int) -> float:
    """Advance one step explicitly: u_{j+1} = M1 + (h/2) g(x_{j+1}, M2).

    Raises NonFiniteState as soon as any intermediate stops being finite, so
    a blow-up is reported at the step that caused it.
    """
    m1 = predictor(problem, traj, j)
    grid = traj.grid
    half_h, x_next = 0.5 * grid.h, grid.point(j + 1)
    m2 = m1 + half_h * problem.g(x_next, m1)
    u_next = m1 + half_h * problem.g(x_next, m2)
    if not (math.isfinite(m1) and math.isfinite(m2) and math.isfinite(u_next)):
        raise NonFiniteState(
            f"non-finite value while advancing from step {j}", step_index=j
        )
    return u_next


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
    return _step_loop(problem, grid, mode)(traj)


def _step_loop(
    problem: DelayProblem,
    grid: GridSpec,
    mode: FirstStepMode,
    fixed_point: tuple[float, int] | None = None,
) -> Callable[[Trajectory], Trajectory]:
    """fill(traj), which fills traj, holding u_{-M} .. u_0, from u_0 on and
    returns it, closed by the DGJ pair, or by the oracle's iteration with
    fixed_point = (tol, max_iter).

    fill runs the tree loop when problem.g and problem.kernel both carry
    their trees, as a built problem's do (registry._slot_function), and
    the call-site loop, the step loop of _CALLS, otherwise.  If the tree
    loop raises, traj goes back to its history and the call-site loop
    raises the reference exception.  Both come from _tree_loop.  The loop
    fill runs first is made here, so a caller can time fill alone; the
    lines of g and K are kept in problem._loops with their values.
    """
    h, n, m = grid.h, grid.steps, grid.delay_steps
    rate, literal = problem.kernel_x_rate, FirstStepMode(mode) is FirstStepMode.LITERAL
    shape = (literal, rate is not None, fixed_point is not None)
    constants = (
        n, grid.x0, h, grid.point(0),
        math.exp(rate * h) if rate is not None else 1.0,
        0.5 * h, 0.5 * h * h, h * h / 4.0, *(fixed_point or (None, None)),
    )
    functions = (problem.g, problem.kernel)
    trees = [getattr(fn, "tree", None) for fn in functions]
    if None in trees:
        lines, values = _CALLS, (*_HELPERS, *functions)
    else:
        loops = problem._loops
        if not loops:
            loops["written"] = _written(*trees)
        lines, values = loops["written"]
    steps = _tree_loop(*shape, lines)

    def fill(traj: Trajectory) -> Trajectory:
        u = traj._values
        args = (u, u[0], u[m], *constants)
        try:
            steps(*args, *values)
        except (NumericalError, *LOOP_FAILURES):
            if lines is _CALLS:
                raise
            del u[m + 1 :]
            _tree_loop(*shape, _CALLS)(*args, *_HELPERS, *functions)
        return traj

    return fill


@functools.lru_cache(maxsize=256)
def _tree_loop(literal: bool, recur: bool, implicit: bool, written: tuple):
    """The function _steps of the step loop of one shape and of written,
    the lines that _written gives first or _CALLS, made once per process,
    with the exceptions it raises or locates as its globals.

    The loop takes the values of the names as arguments, so trees of one
    shape share it, and it refers to no problem."""
    namespace = {
        "_Located": _Located, "NonFiniteState": NonFiniteState,
        "NoConvergence": NoConvergence,
    }
    source = _loop_source(literal, recur, implicit, written)
    return _define(compile(source, "<vdide step loop>", "exec"), "_steps", namespace)


# The variables of K and of g as _emit takes them: x, t and v per sample,
# and x - t and t - x on a level of their own; x per abscissa, u per call.
_XTV = {p: ("{%s}" % p, 2, None, False) for p in "xtv"}
_XTV |= dict.fromkeys(("{x} - {t}", "{t} - {x}"), (None, 1))
_XU = {"x": ("{x}", 1, True, False), "u": ("{u}", 2, None, False)}

# _written's lines for g and K as calls of the last two names: the call-site
# loop, the step loop of a problem of plain callables, which takes the values
# _HELPERS and then g and K.
_K_CALL = "{i}{target} K({x}, {t}, {v})\n"
_CALLS = ((*_loop_names(), "g", "K"), "", "", "", _K_CALL, _K_CALL, "", "g({x}, {u})")
_HELPERS = tuple(_loop_names().values())


def _written(g_tree: Expression, k_tree: Expression) -> tuple:
    """((names, once, ends, free, k_site, kd_site, g_lines, g_out), values)
    of the trees g and K, for every shape of _loop_source.

    Each template is filled in with {i}, its indent, and the arguments of
    a call site.  k_site is a K call site: K's lines, then the line
    "{i}{target} <K's value>" for a target such as "s2 +=", and kd_site
    the same on the diagonal t = x; g_lines are g's lines and g_out its
    value.  _CALLS has the same form.  free are g's parts without u at an
    abscissa {x}, ends their checks proved at the grid's ends, and once the
    variable-free parts of all three.  K's parts that reach x and t only through x - t or t - x are
    lines of their own, _d, which k_site runs at every sample.  At every
    finite x, x - x is +0.0 (an x_j overflows only for an h whose h*h does,
    which fails step 0 anyway), so on the diagonal those parts take the same
    bits at every sample: once runs them, as _l, at x = t = x_0, and
    kd_site the rest (the lag-0 fold).  names are the further names the
    lines take, and values their values.
    """
    names, once, ends, lag, k, g, free = _loop_names(), [], [], [], [], [], []
    k_out = _emit(k_tree, [("_o", once), ("_d", lag), ("_v", k)], names, _XTV)[0]
    g_levels = [("_o", once), ("_s", free), ("_v", g)]
    g_out = _emit(g_tree, g_levels, names, _XU, False, ends)[0]
    once, ends, lag, k, g, free = (
        "{i}" + "\n{i}".join(body) + "\n" if body else ""
        for body in (once, ends, lag, k, g, free)
    )
    site = f"{k}{{i}}{{target}} {k_out}\n"
    once += lag.replace("_d", "_l")
    k_sites = lag + site, site.replace("_d", "_l")
    return (tuple(names), once, ends, free, *k_sites, g, g_out), tuple(names.values())


def _loop_source(literal: bool, recur: bool, implicit: bool, written: tuple) -> str:
    """The source of a step loop.

    _steps(u, u_oldest, u_j, n, x0, h, x_start, rho, half_h, half_h2,
    quarter_h2, tol, max_iter, *names) fills u, the Trajectory's list, from
    u_0 on.  literal is the first-step mode, recur the row path of a
    kernel_x_rate and implicit the closure: the oracle's iteration to tol in
    at most max_iter sweeps, or the DGJ pair.  Step j takes the previous
    step's s2 as its s1 and its two x_{j+1} samples as its x_j corner
    samples.  With a kernel_x_rate lam and rho = e^(lam h) it evaluates only
    the diagonal sample:

        K(x_{j+1}, x_0, u_{-M}) = rho K(x_j, x_0, u_{-M})
        s2                      = rho (s1 + K(x_j, x_j, u_{j-M}))

    Every sample evaluated is one kernel_terms evaluates at the same step,
    before g.  For lam <= 0 (see expressions.x_rate) a skipped sample has
    the t and v of a diagonal sample evaluated no later, so a failing
    kernel fails at the same step, unless an x-term inside an exponent is
    already near overflow on the diagonal, as 1e308 + 1e308*(x - t) is.  A
    _Located error raised while advancing from step j, the LITERAL corner
    samples at x_0 taken before the loop included, leaves with step_index
    j and x x_j.

    written is _CALLS, whose call sites call g and K, the last two names,
    or the lines of _written(g_tree, k_tree), whose call sites are the
    expressions' own lines, so the loop does per point only what changes
    per point.  Before its first step it runs the variable-free lines, and
    the checks of g's parts without u at x_0 and x_N: x0 + j h runs
    monotonically for finite h, and an infinite h makes x_0 nan, which
    they reject.  Those parts are evaluated once per grid point, at x_0
    and at each x_{j+1} after M1, and every diagonal sample K(x, x, v),
    LITERAL's first k_start and each k_diag, runs the diagonal lines.  A
    part evaluated early fails only where every solve fails, and the
    loop of two calls reruns to raise the reference exception.
    The generated lines' isfinite checks stay and raise _NonFinite, but for
    those on the values of g and K: such a value reaches M1, M2 or u_{j+1}
    of the same step through + and * only, and the closure's check stops
    it there.  Numbers, constants and functions are names, so the source
    depends only on the trees' shapes and the three branches.
    """
    names, once, ends, free_lines, k_site, kd_site, g_lines, g_out = written

    def K(i, target, x, t, v):
        """The lines of target = K(x, t, v), or of s2 += K(x, t, v); on
        the diagonal, t = x, the diagonal lines."""
        site = kd_site if t == x else k_site
        return site.format(i=i, target=target, x=x, t=t, v=v)

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

    a, b, c, d, e = (" " * k for k in (4, 8, 12, 16, 20))
    src = (
        "def _steps(u, u_oldest, u_j, n, x0, h, x_start, rho, half_h, half_h2, "
        f"quarter_h2, tol, max_iter, {', '.join(names)}):\n"
        f"{a}x_j = x_start\n"
        f"{a}append = u.append\n"
        f"{a}s2 = 0.0\n"
    ) + once.format(i=a, x="x_start", t="x_start")
    if ends:
        src += f"{a}for x_e in (x_start, x0 + n * h):\n" + ends.format(i=b, x="x_e")
    if not recur:
        src += f"{a}row_x = []\n{a}row_v = []\n"
    src += f"{a}j = 0\n{a}try:\n"
    # the two samples at x_j: K(x_j, x_0, u_{-M}) and K(x_j, x_j, u_{j-M}),
    # the same sample at j = 0
    if literal:
        src += K(b, "k_start =", "x_start", "x_start", "u_oldest")
        if recur:
            src += f"{b}k_diag = k_start\n"
        else:
            src += K(b, "k_diag =", "x_start", "x_start", "u_oldest")
    src += free_lines.format(i=b, x="x_j")
    src += (
        f"{b}for j in range(n):\n"
        f"{c}x_next = x0 + (j + 1) * h\n"
        f"{c}v_next = u[j + 1]\n"
    )
    if literal:
        src += rows(c)
    else:
        src += f"{c}if j == 0:\n"
        src += K(d, "k_start =", "x_next", "x_start", "u_oldest")
        src += K(d, "k_diag =", "x_next", "x_next", "v_next")
        src += f"{d}corner = quarter_h2 * (k_start + k_diag)\n{d}s1 = 0.0\n{c}else:\n"
        src += rows(d)
    if not recur:
        src += f"{c}row_x.append(x_next)\n{c}row_v.append(v_next)\n"
    lines, value = g(c, "x_j", "u_j")
    src += f"{lines}{c}m1 = u_j + half_h * {value} + corner + half_h2 * (s1 + s2)\n"
    src += free_lines.format(i=c, x="x_next")
    if implicit:
        # iterate u <- M1 + (h/2) g(x_{j+1}, u) from u = M1 to tol
        lines, value = g(d, "x_next", "u_j")
        src += (
            f"{c}u_j = m1\n"
            f"{c}for _ in range(max_iter):\n"
            f"{lines}{d}fu = m1 + half_h * {value}\n"
            f"{d}if abs(fu - u_j) <= tol:\n{e}break\n"
            f"{d}if not _isfinite(fu):\n"
            f'{e}raise NonFiniteState(f"non-finite iterate in implicit step {{j}}", '
            "step_index=j)\n"
            f"{d}u_j = fu\n"
            f"{c}else:\n"
            f'{d}raise NoConvergence(f"implicit step {{j}} did not reach tol={{tol!r}} '
            'in {max_iter} iterations; h may be too large for this g")\n'
        )
    else:
        lines, value = g(c, "x_next", "m1")
        src += f"{lines}{c}m2 = m1 + half_h * {value}\n"
        lines, value = g(c, "x_next", "m2")
        src += (
            f"{lines}{c}u_j = m1 + half_h * {value}\n"
            f"{c}if not (_isfinite(m1) and _isfinite(m2) and _isfinite(u_j)):\n"
            f'{d}raise NonFiniteState(f"non-finite value while advancing from step '
            '{j}", step_index=j)\n'
        )
    return src + (
        f"{c}append(u_j)\n"
        f"{c}x_j = x_next\n"
        f"{a}except _Located as exc:\n"
        f"{b}exc.step_index = j\n"
        f"{b}exc.x = x_j\n"
        f"{b}raise\n"
    )
