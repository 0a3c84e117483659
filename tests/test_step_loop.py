"""Both solvers' step loops, generated from one template, against each other
and against the stateless single steps.

A built problem's g and K carry their trees, and its solve runs the tree
loop, with their own lines written in; a problem of plain callables runs
the call-site loop, which calls g and K.  If the tree loop raises, the
solve reruns the call-site loop, which raises the reference exception
(stepper._step_loop).  For solve and solve_implicit alike these check that

- the bare tree loop, whenever it returns, returns the call-site loop's
  values;
- the built problem's solve ends as the solve of walking(problem), whose
  plain callables walk the trees in the call-site loop: the same doubles,
  or the same exception class, message, step_index and x;
- a tree loop that raises where the walk returns leaves the call-site loop
  only the history, and the solve ends as the walk;
- with no kernel_x_rate or a zero one, the call-site loop ends as the
  single-step replay (helpers.replay of nnm_step or implicit_step) does:
  the same doubles, or the same exception class and message;
- on the problems of helpers.CLOSED_FORMS, the rate rows end as the direct
  rows (helpers.row_paths_end_alike).
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    SEEDS,
    closed_form,
    mixed,
    outcome,
    replay,
    row_paths_end_alike,
    single_x_trees,
    slot_problem,
    tree_loop_ends_as_walking,
    walking,
)
from vdide.expressions import BinOp, Call, DomainError, Num, Var, parse, x_rate
from vdide.oracle import implicit_step, solve_implicit
from vdide.analysis import order_study
from vdide.problem import FirstStepMode, build_grid
from vdide.stepper import _written, nnm_step, solve

PHIS = ["1 + x/2", "exp(-x)", "cos(3*x) - 0.5"]
ROW_PATHS = ("rate-0", "rate-negative", "direct")
# each solver with the single step it equals
SOLVERS = {
    "solve": (solve, nnm_step),
    "solve_implicit": (solve_implicit, implicit_step),
}


def check_loops(solver, g, K, phi, rate, x0, delays, m, mode):
    """The outcome of solver on the walked problem, after checking the built
    problem's solve and its bare tree loop against it, and it against the
    single-step replay."""
    run, step = SOLVERS[solver]
    tau = 0.25
    problem = slot_problem(g, K, phi, rate=rate, tau=tau, x0=x0, x_end=x0 + delays * tau)
    grid = build_grid(x0, problem.x_end, tau, tau / m)
    want = tree_loop_ends_as_walking(run, problem, grid, mode)
    if rate is None or rate == 0.0:
        got = outcome(lambda: replay(step, walking(problem), grid, mode))
        assert got[:3] == want[:3]
    return want


def kernel_on(path, draw):
    """(K, kernel_x_rate) on one row path."""
    if path == "direct":
        return draw(kernels_xtv), None
    rest = draw(kernels_tv)
    if path == "rate-0":
        return rest, 0.0
    c = draw(st.sampled_from([0.5, 1.0, 3.0]))
    decay = Call("exp", BinOp("*", Num(-c), BinOp("-", Var("x"), Var("t"))))
    return BinOp("*", decay, rest), -c


g_trees = mixed(("x", "u"))
kernels_tv = mixed(("t", "v"))
kernels_xtv = mixed(("x", "t", "v"))


@st.composite
def cases(draw):
    path = draw(st.sampled_from(ROW_PATHS))
    K, rate = kernel_on(path, draw)
    return dict(
        g=draw(g_trees),
        K=K,
        phi=parse(draw(st.sampled_from(PHIS))),
        rate=rate,
        x0=draw(st.sampled_from([0.0, -0.5, 0.3])),
        delays=draw(st.integers(2, 4)),
        m=draw(st.integers(1, 4)),
        mode=draw(st.sampled_from(list(FirstStepMode))),
    )


@settings(max_examples=300, deadline=None)
@given(cases())
def test_the_tree_loop_matches_the_call_site_loop(case):
    for solver in SOLVERS:
        check_loops(solver, **case)


# Named cases on every row path and in both modes: values over four delays,
# a u-free part of g that leaves its domain mid-solve, a kernel that
# overflows mid-solve, and a state that overflows while g stays finite.
NAMED = {
    "values": ("-exp(x)*sinh(x) + u*cos(x)", "(v^2 + t)/4", "1 + x/2", True),
    "g-domain": ("log(0.5 - x) + u", "v/2", "1 + x/2", False),
    "K-overflow": ("-u + sin(x)", "exp(800*t)*v", "1 + x/2", False),
    "non-finite": ("1e308 + 0*u", "v/1e10", "1.7e308", False),
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("mode", list(FirstStepMode))
@pytest.mark.parametrize("path", ROW_PATHS)
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases_match_the_call_site_loop(name, path, mode, solver):
    g, K, phi, runs = NAMED[name]
    K = parse(K)
    if path == "direct":
        K, rate = BinOp("*", K, Call("cos", BinOp("-", Var("x"), Var("t")))), None
    elif path == "rate-negative":
        K = BinOp("*", Call("exp", BinOp("-", Var("t"), Var("x"))), K)
        rate = x_rate(K, 1.0)
        assert rate == -1.0
    else:
        rate = 0.0
    want = check_loops(solver, parse(g), K, parse(phi), rate, 0.0, 4, 40, mode)
    assert (want[0] == "values") == runs
    if not runs:
        assert want[3] > 0  # a failure past the first step


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_tree_loop_that_raises_where_the_walk_returns_ends_as_the_walk(solver):
    # the tree loop's isfinite turns false after 20 checks, part way along,
    # and the call-site loop reruns from u_0
    problem = slot_problem(parse("-u + sin(x)"), parse("sin(x - t)*v"), parse("1 + x/2"),
                           tau=0.25, x0=0.0, x_end=1.0)
    grid = build_grid(0.0, 1.0, 0.25, 0.025)
    run = lambda p: SOLVERS[solver][0](p, grid, FirstStepMode.LITERAL)
    want = outcome(lambda: run(walking(problem)))
    lines, values = _written(problem.g.tree, problem.kernel.tree)
    checks = iter(range(20))
    failing = lambda v: next(checks, None) is not None and math.isfinite(v)
    problem._loops["written"] = lines, [failing if v is math.isfinite else v for v in values]
    assert outcome(lambda: run(problem)) == want and next(checks, None) is None


# g with x once in its part without u, through +, -, *, / and unary minus,
# with constants that overflow part way along the solve: the loop checks
# that part at x_0 and x_N only (expressions._emit), and must fail where the
# walk fails.  The seeds x*x and 1e307/x are not monotone in x.  K samples
# x - t, whose diagonal samples the loop folds to one value per solve.
LAG_KERNELS = {
    "exp(t - x)*v": -1.0,
    "0.5*exp(x - t - 1)*v^2": None,
    "sin(x - t)*v": None,
    "log(2 + (x - t))*v": None,
    "(x - t)*v/(1 + (t - x)^2)": None,
    "v/2": 0.0,
}


@st.composite
def single_x_cases(draw):
    part = draw(single_x_trees(SEEDS))
    g = BinOp("+", part, BinOp("*", Num(-0.5), Var("u")))
    K = draw(st.sampled_from(sorted(LAG_KERNELS)))
    return dict(
        g=g,
        K=parse(K),
        phi=parse(draw(st.sampled_from(PHIS))),
        rate=LAG_KERNELS[K],
        x0=draw(st.sampled_from([0.0, -0.5, 0.3])),
        delays=draw(st.integers(2, 4)),
        m=draw(st.integers(1, 4)),
        mode=draw(st.sampled_from(list(FirstStepMode))),
    )


@settings(max_examples=200, deadline=None)
@given(single_x_cases())
# x runs over [0, 1] (four delays of 0.25) from x0 = 0: 1e308*(x + 1.5)
# overflows from x = 0.3 on and 1e308*(x - 2) up to x = 0.2; x*x - 2 over
# [-0.5, 0.5] and 1e307/x over [-0.3, 0.7] pass their ends and overflow at
# or near 0.
# tanh(inf) = 1 and exp(-inf) = 0 hide each overflow but for the checks.
@example(dict(g=parse("tanh(1e308*(x + 1.5)) - 0.5*u"), K=parse("sin(x - t)*v"),
              phi=parse("1 + x/2"), rate=None, x0=0.0, delays=4, m=4,
              mode=FirstStepMode.LITERAL))
@example(dict(g=parse("exp(1e308*(x - 2)) - 0.5*u"), K=parse("v/2"), phi=parse("1 + x/2"),
              rate=0.0, x0=0.0, delays=4, m=4, mode=FirstStepMode.CORRECTED))
@example(dict(g=parse("tanh(1e308*(x*x - 2)) - 0.5*u"), K=parse("v/2"),
              phi=parse("1 + x/2"), rate=0.0, x0=-0.5, delays=4, m=4,
              mode=FirstStepMode.LITERAL))
@example(dict(g=parse("tanh(1e307/x) - 0.5*u"), K=parse("v/2"), phi=parse("1 + x/2"),
              rate=0.0, x0=-0.3, delays=4, m=4, mode=FirstStepMode.LITERAL))
def test_step_loop_checks_proved_at_the_grid_ends_fail_where_the_walk_fails(case):
    for solver in SOLVERS:
        check_loops(solver, **case)


# The max abs error of each helpers.CLOSED_FORMS family's order study at
# tau/8 and tau/16, per first-step mode (LITERAL, CORRECTED); the two agree
# where K(x_0, x_0, v) is 0, as on lag, sine and xfactor.
CLOSED_FORM_ERRORS = {
    "cosx": ((1.06490e-4, 2.66751e-5), (1.21091e-6, 3.00842e-7)),
    "decay": ((2.20138e-4, 5.51534e-5), (7.83006e-6, 1.95262e-6)),
    "fixed": ((1.24293e-4, 3.11116e-5), (9.94749e-6, 2.48613e-6)),
    "lag": ((3.90134e-5, 9.72439e-6), (3.90134e-5, 9.72439e-6)),
    "sine": ((9.51625e-6, 2.37250e-6), (9.51625e-6, 2.37250e-6)),
    "xfactor": ((1.55354e-6, 3.75634e-7), (1.55354e-6, 3.75634e-7)),
}


# The problems of helpers.CLOSED_FORMS, whose exact solutions are known: the
# built problem ends as the walked one and, on the direct rows, as its rate
# rows, its fitted slope is 2, and its max errors at tau/8 and tau/16 are
# those of CLOSED_FORM_ERRORS within 10%.
@pytest.mark.parametrize("mode", list(FirstStepMode))
def test_x_dependent_kernels_over_several_delays(closed_form, mode):
    problem = closed_form.build()
    tau = problem.tau
    grid = build_grid(0.0, problem.x_end, tau, tau / 8)
    for run in (solve, solve_implicit):
        assert tree_loop_ends_as_walking(run, problem, grid, mode)[0] == "values"
        row_paths_end_alike(run, problem, grid, mode)
    estimate = order_study(problem, mode, [tau / 8, tau / 16, tau / 32])
    assert abs(estimate.slope - 2.0) <= 0.05
    pinned = CLOSED_FORM_ERRORS[closed_form.name][list(FirstStepMode).index(mode)]
    for (_, err), want in zip(estimate.pairs, pinned):
        assert abs(err / want - 1.0) <= 0.10, (estimate.pairs, pinned)


@pytest.mark.parametrize("slot", ["g", "K"])
@pytest.mark.parametrize("mode", list(FirstStepMode))
def test_x_dependent_kernels_fail_alike_on_every_path(closed_form, mode, slot):
    # log(c0 - x) leaves its domain at c0, a third of a step past x_k, five
    # eighths of the way along the grid: g, or K on the direct rows, first
    # reads x_{k+1} in step k.  On the rate rows K takes log(c0 - t), which
    # keeps its rate and fails first at the diagonal sample at x_{k+1}.
    tau, x_end = closed_form.tau, closed_form.X
    h = tau / 8
    k = round(0.625 * x_end / h)
    c0 = k * h + h / 3
    rate = closed_form.build().kernel_x_rate
    if slot == "g":
        failing = dict(g=f"{closed_form.g} + log({c0!r} - x)")
    else:
        failing = dict(K=f"{closed_form.K}*log({c0!r} - {'x' if rate is None else 't'})")
    problem = dataclasses.replace(closed_form, **failing).build()
    assert problem.kernel_x_rate == rate
    grid = build_grid(0.0, x_end, tau, h)
    for run in (solve, solve_implicit):
        want = tree_loop_ends_as_walking(run, problem, grid, mode)
        assert row_paths_end_alike(run, problem, grid, mode) == want
        assert want[:2] == ("error", DomainError) and want[3:5] == (k, grid.point(k))
