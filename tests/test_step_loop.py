"""Both solvers' step loops, generated from one template, against each other
and against the stateless single steps.

A built problem's g and K carry their trees, and its solve runs the tree
loop, with their own lines written in; a problem of plain callables runs
the call-site loop, which calls g and K.  If the tree loop raises, the
solve reruns the call-site loop, which raises the reference exception
(stepper._step_loop).  For solve and solve_implicit alike these check that

- the bare tree loop, whenever it returns, returns the call-site loop's
  values;
- the built problem's solve ends as the solve of walking(problem, g, K),
  whose plain callables walk the trees in the call-site loop: the same
  doubles, or the same exception class, message, step_index and x;
- with no kernel_x_rate or a zero one, the call-site loop ends as appending
  nnm_step or implicit_step for each j does: the same doubles, or the same
  exception class and message.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import solve_outcome, tree_loop_ends_as_walking, trees_over, walking
from test_grid_loop import SEEDS, single_x_trees
from vdide import registry
from vdide.expressions import BinOp, Call, Neg, Num, Var, parse, x_rate
from vdide.oracle import implicit_step, solve_implicit
from vdide.analysis import order_study
from vdide.problem import DelayProblem, FirstStepMode, build_grid, init_trajectory
from vdide.stepper import nnm_step, solve

# Leaves of trees that mostly stay finite over a solve; the helpers' own
# leaves add the values that overflow or leave the domain.
TAME = [0.0, -0.0, 0.25, 0.5, -0.75, 1.0, 2.0]
PHIS = ["1 + x/2", "exp(-x)", "cos(3*x) - 0.5"]
ROW_PATHS = ("rate-0", "rate-negative", "direct")
# each solver with the single step it equals
SOLVERS = {
    "solve": (solve, nnm_step),
    "solve_implicit": (solve_implicit, implicit_step),
}


def slot_problem(g, K, phi, rate, x0, x_end, tau):
    """A problem whose g, K and phi are slot functions of the trees, as a
    config builds them."""
    return DelayProblem(
        g=registry._slot_function(g, "g"),
        kernel=registry._slot_function(K, "K"),
        history=registry._slot_function(phi, "phi"),
        tau=tau,
        x0=x0,
        x_end=x_end,
        kernel_x_rate=rate,
    )


def replay(step, problem, grid, mode):
    """The trajectory of step(problem, traj, j) appended for each j."""
    traj = init_trajectory(problem, grid, mode)
    for j in range(grid.steps):
        traj.append(step(problem, traj, j))
    return traj


def check_loops(solver, g, K, phi, rate, x0, delays, m, mode):
    """The outcome of solver on the walked problem, after checking the built
    problem's solve and its bare tree loop against it, and it against the
    single-step replay."""
    run, step = SOLVERS[solver]
    tau = 0.25
    x_end = x0 + delays * tau
    problem = slot_problem(g, K, phi, rate, x0, x_end, tau)
    grid = build_grid(x0, x_end, tau, tau / m)
    want = tree_loop_ends_as_walking(run, problem, g, K, grid, mode)
    if rate is None or rate == 0.0:
        reference = walking(problem, g, K)
        got = solve_outcome(lambda: replay(step, reference, grid, mode))
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


def hiding(params):
    """Trees whose value hides an overflow part way through a solve: the
    product 1e308*(p + c) overflows once |p + c| > 1.8, and exp(-inf) = 0,
    tanh(inf) = 1, a / inf = 0, inf^0 = 1 and 0.5^inf = 0 are finite.  Only
    the generated checks stop such a value."""
    overflow = st.builds(
        lambda p, c: BinOp("*", Num(1e308), BinOp("+", Var(p), Num(c))),
        st.sampled_from(params),
        st.sampled_from([-1.0, 0.5, 1.0]),
    )
    tame = trees_over(params, TAME, TAME)
    hidden = st.one_of(
        overflow.map(lambda o: Call("exp", Neg(o))),
        overflow.map(lambda o: Call("tanh", o)),
        st.builds(lambda a, o: BinOp("/", a, o), tame, overflow),
        overflow.map(lambda o: BinOp("^", o, Num(0.0))),
        overflow.map(lambda o: BinOp("^", Num(0.5), o)),
    )
    return st.builds(BinOp, st.sampled_from("+-*"), hidden, tame)


def mixed(params):
    return st.one_of(
        trees_over(params, TAME, TAME), trees_over(params), hiding(params)
    )


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
def test_checks_proved_at_the_grid_ends_fail_where_the_walk_fails(case):
    for solver in SOLVERS:
        check_loops(solver, **case)


# x-dependent kernels over several delays, with u = e^(a x) and phi = exact:
# g = a u - F(x), F the integral of K(x, t, e^(a (t - tau))) over [0, x],
# and E = e^(-a tau).  (x - t) v and sin(x - t) v take the direct rows,
# e^(t - x) v the rate -1 and e^(-t) v the rate 0 (ROADMAP item 13).
CLOSED_FORMS = {
    "lag": ("{c}*(x - t)*v", "{c}*{E}*(exp({a}*x) - 1 - {a}*x)/({a})^2"),
    "sine": ("{c}*sin(x - t)*v", "{c}*{E}*(exp({a}*x) - cos(x) - {a}*sin(x))/(1 + ({a})^2)"),
    "decay": ("{c}*exp(t - x)*v", "{c}*{E}*(exp({a}*x) - exp(-x))/({a} + 1)"),
    "fixed": ("{c}*exp(-t)*v", "{c}*{E}*(exp(({a} - 1)*x) - 1)/({a} - 1)"),
}


@pytest.fixture(params=sorted(CLOSED_FORMS))
def closed_form(request):
    """(text, tau) of a problem with a kernel of CLOSED_FORMS over three or
    four delays, a, c and tau drawn from a seed, a kept from the poles of
    F at 0, -1 and 1."""
    rng = random.Random(sorted(CLOSED_FORMS).index(request.param) + 1)
    a = rng.choice([-1, 1]) * round(rng.uniform(0.15, 0.4), 4)
    c, tau = round(rng.uniform(0.1, 0.5), 4), rng.choice([0.25, 0.5])
    K, F = CLOSED_FORMS[request.param]
    values = dict(a=repr(a), c=repr(c), E=repr(math.exp(-a * tau)))
    text = (
        f"name = {request.param}\ng = {a!r}*u - {F.format(**values)}\n"
        f"K = {K.format(**values)}\nphi = exp({a!r}*x)\nexact = exp({a!r}*x)\n"
        f"tau = {tau!r}\nx0 = 0\nX = {rng.choice([3, 4]) * tau!r}\n"
    )
    return text, tau


@pytest.mark.parametrize("mode", list(FirstStepMode))
def test_x_dependent_kernels_over_several_delays(closed_form, mode):
    text, tau = closed_form
    problem = registry.parse_config_text(text).build()
    g, K = problem.g.tree, problem.kernel.tree
    for run in (solve, solve_implicit):
        grid = build_grid(0.0, problem.x_end, tau, tau / 8)
        assert tree_loop_ends_as_walking(run, problem, g, K, grid, mode)[0] == "values"
    estimate = order_study(problem, mode, [tau / 8, tau / 16, tau / 32])
    assert abs(estimate.slope - 2.0) <= 0.05
