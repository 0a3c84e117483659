"""The step loop solve generates for compiled g and K, against run_steps with
the DGJ closure: the same doubles, bit for bit, or the same exception.

The generated loop (stepper._inlined_steps) raises whatever its lines raise;
solve then reruns run_steps, which raises the reference exception.  Both are
checked: the bare loop must return run_steps' values whenever it returns,
and solve must match run_steps in every outcome, exception class, message,
step_index and x included.
"""

import dataclasses
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import trees_over
from vdide import registry
from vdide.errors import VdideError
from vdide.expressions import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _NonFinite,
    evaluate,
    parse,
    x_rate,
)
from vdide.problem import DelayProblem, FirstStepMode, build_grid, init_trajectory
from vdide.stepper import _dgj_closure, _inlined_steps, run_steps, solve

# Leaves of trees that mostly stay finite over a solve; the helpers' own
# leaves add the values that overflow or leave the domain.
TAME = [0.0, -0.0, 0.25, 0.5, -0.75, 1.0, 2.0]
PHIS = ["1 + x/2", "exp(-x)", "cos(3*x) - 0.5"]
ROW_PATHS = ("rate-0", "rate-negative", "direct")


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


def walking(problem, g, K):
    """problem with g and K as plain walks of the trees: nothing plans them."""
    return dataclasses.replace(
        problem,
        g=lambda x, u: evaluate(g, {"x": x, "u": u}),
        kernel=lambda x, t, v: evaluate(K, {"x": x, "t": t, "v": v}),
    )


def outcome(run):
    """("values", the trajectory packed as doubles) or ("error", class,
    message, step_index, x) of run()."""
    try:
        values = run()._values
    except VdideError as exc:
        return "error", type(exc), str(exc), exc.step_index, exc.x
    return "values", struct.pack(f"{len(values)}d", *values)


def check_against_run_steps(g, K, phi, rate, x0, delays, m, mode):
    tau = 0.25
    x_end = x0 + delays * tau
    problem = slot_problem(g, K, phi, rate, x0, x_end, tau)
    grid = build_grid(x0, x_end, tau, tau / m)
    reference = walking(problem, g, K)

    want = outcome(
        lambda: run_steps(
            reference, init_trajectory(reference, grid, mode), _dgj_closure
        )
    )
    traj = init_trajectory(reference, grid, mode)
    try:
        _inlined_steps(reference, traj, g, K)
    except (_NonFinite, ValueError, ZeroDivisionError, OverflowError):
        assert want[0] == "error", "the generated loop raised where run_steps ran"
    else:
        assert ("values", struct.pack(f"{len(traj._values)}d", *traj._values)) == want
    # every plan reaches compiled code, so solve generates its loop
    with mock.patch.object(registry, "COMPILE_AFTER", 1):
        assert outcome(lambda: solve(problem, grid, mode)) == want
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
def test_the_generated_loop_matches_run_steps(case):
    check_against_run_steps(**case)


# Named cases on every row path and in both modes: values over four delays,
# a u-free part of g that leaves its domain mid-solve, a kernel that
# overflows mid-solve, and a state that overflows while g stays finite.
NAMED = {
    "values": ("-exp(x)*sinh(x) + u*cos(x)", "(v^2 + t)/4", "1 + x/2", True),
    "g-domain": ("log(0.5 - x) + u", "v/2", "1 + x/2", False),
    "K-overflow": ("-u + sin(x)", "exp(800*t)*v", "1 + x/2", False),
    "non-finite": ("1e308 + 0*u", "v/1e10", "1.7e308", False),
}


@pytest.mark.parametrize("mode", list(FirstStepMode))
@pytest.mark.parametrize("path", ROW_PATHS)
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases_match_run_steps(name, path, mode):
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
    want = check_against_run_steps(parse(g), K, parse(phi), rate, 0.0, 4, 40, mode)
    assert (want[0] == "values") == runs
    if not runs:
        assert want[3] > 0  # a failure past the first step
