"""The three workloads: what one op runs, and how its output is checked.

Each workload is a closed loop with one caller: an op starts when the one
before it has ended.  Ops call the package only through `lib`, a namespace of
its public functions that the traced run swaps for spanning versions.

An op fails when it raises, when `vdide solve` exits non-zero or writes the
wrong number of rows, when its error against the exact solution exceeds
ERR_RATIO_MAX times the error of the paper's scheme written out in gen.py on
the same problem and grid, when a sweep slope leaves 2 +- SLOPE_TOL, or when
the stepper and the implicit oracle differ by more than ORACLE_DIFF_MAX times
that reference error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import gen
from vdide import FirstStepMode

ERR_RATIO_MAX = 1.5
SLOPE_TOL = 0.1
ORACLE_DIFF_MAX = 0.5


@dataclass
class Outcome:
    """What the check of one op found."""

    stepper_steps: int
    oracle_steps: int
    max_abs_err: float
    err_ratio: float
    oracle_diff: float = 0.0
    slope_dev: float = 0.0
    failure: Optional[str] = None


def _fill(lib, problem, h, values):
    """A trajectory of problem on step h, holding the given forward values."""
    grid = lib.build_grid(problem.x0, problem.x_end, problem.tau, h)
    traj = lib.init_trajectory(problem, grid)
    for u in values[1:]:
        traj.append(u)
    return traj


class CliSolve:
    """One op is `vdide solve --problem REF --h H --out FILE` through cli.main."""

    pass_len = 1
    setup_reps = 20

    def __init__(self, ref, callables, tau, x_end, h, workdir):
        self.ref = ref
        self.h = h
        self.steps = round(x_end / h)
        self.csv = os.path.join(workdir, "solve.csv")
        self.argv = ["solve", "--problem", ref, "--h", repr(h), "--out", self.csv]
        g, kernel, self.exact = callables
        self.reference = gen.reference_solve(
            g, kernel, self.exact, 0.0, h, self.steps, round(tau / h)
        )
        self.ref_err = gen.max_abs_err(self.reference, self.exact, 0.0, h)

    def setup(self, lib, i=0):
        problem = lib.resolve_problem(self.ref).build()
        grid = lib.build_grid(problem.x0, problem.x_end, problem.tau, self.h)
        return problem, grid, lib.init_trajectory(problem, grid)

    def op(self, lib, i):
        return lib.main(self.argv)

    def check(self, i, exit_code) -> Outcome:
        out = Outcome(self.steps, 0, math.inf, math.inf)
        if exit_code != 0:
            out.failure = f"exit code {exit_code}"
            return out
        with open(self.csv, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["x,u"] or len(lines) != self.steps + 2:
            out.failure = f"{len(lines) - 1} csv rows, expected {self.steps + 1}"
            return out
        self.values = values = []
        for j, line in enumerate(lines[1:]):
            x_text, u_text = line.split(",")
            if abs(float(x_text) - j * self.h) > 1e-9 * max(1.0, j * self.h):
                out.failure = f"row {j} has x = {x_text}, expected {j * self.h!r}"
                return out
            values.append(float(u_text))
        out.max_abs_err = gen.max_abs_err(values, self.exact, 0.0, self.h)
        out.err_ratio = out.max_abs_err / self.ref_err
        if not out.err_ratio <= ERR_RATIO_MAX:
            out.failure = f"max error {out.max_abs_err!r} is {out.err_ratio:.3g}x the reference"
        return out

    def micro_target(self, lib):
        problem, grid, _ = self.setup(lib)
        return problem, _fill(lib, problem, self.h, self.reference)

    def probe(self, lib) -> Outcome:
        """The layers `vdide solve` never reaches, once on this problem: an
        order study at 2h and h, and the oracle at h."""
        problem = lib.resolve_problem(self.ref).build()
        estimate = lib.order_study(problem, FirstStepMode.LITERAL, [2 * self.h, self.h])
        grid = lib.build_grid(problem.x0, problem.x_end, problem.tau, self.h)
        implicit = lib.solve_implicit(problem, grid, FirstStepMode.LITERAL)
        return Outcome(
            stepper_steps=self.steps // 2 + self.steps,
            oracle_steps=self.steps,
            max_abs_err=math.nan,
            err_ratio=math.nan,
            oracle_diff=max(abs(u - implicit.value(j)) for j, u in enumerate(self.values)),
            slope_dev=abs(estimate.slope - 2.0),
        )


def builtin_long(seed, workdir) -> CliSolve:
    """example2 at h = 0.00125 (N = 800); the seed does not change it."""

    def g(x, u):
        return -math.exp(x) * math.sinh(x) + u

    def kernel(x, t, v):
        return math.pow(v, 2.0)

    def exact(x):
        return math.exp(x + 1.0)

    return CliSolve("example2", (g, kernel, exact), 1.0, 1.0, 0.00125, workdir)


def multidelay_long(seed, workdir) -> CliSolve:
    """A seeded manufactured problem, tau = 0.5, X = 8 tau, h = tau/80."""
    problem = gen.multidelay(seed)
    path = os.path.join(workdir, "multidelay.vdide")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(problem.text())
    return CliSolve(
        path, problem.callables(), problem.tau, problem.x_end, problem.tau / 80, workdir
    )


class Sweep:
    """One op is one of pass_len generated problems, through the library API.

    config text -> parse_config_text -> build -> order_study at tau/2, tau/4,
    tau/8 -> solve and solve_implicit at tau/8.
    """

    pass_len = 100
    setup_reps = 1

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.problems = gen.sweep(seed, self.pass_len)
        self.texts = [p.text() for p in self.problems]
        self.references = []
        self.ref_errs = []
        for p in self.problems:
            g, kernel, exact = p.callables()
            h = p.tau / 8
            ref = gen.reference_solve(g, kernel, exact, 0.0, h, 8 * p.delays, 8)
            self.references.append(ref)
            self.ref_errs.append(gen.max_abs_err(ref, exact, 0.0, h))

    def setup(self, lib, i=0):
        problem = lib.parse_config_text(self.texts[i % self.pass_len]).build()
        grid = lib.build_grid(problem.x0, problem.x_end, problem.tau, problem.tau / 8)
        return problem, grid, lib.init_trajectory(problem, grid)

    def op(self, lib, i):
        problem = lib.parse_config_text(self.texts[i % self.pass_len]).build()
        tau = problem.tau
        estimate = lib.order_study(
            problem, FirstStepMode.LITERAL, [tau / 2, tau / 4, tau / 8]
        )
        grid = lib.build_grid(problem.x0, problem.x_end, tau, tau / 8)
        return (
            estimate,
            lib.solve(problem, grid, FirstStepMode.LITERAL),
            lib.solve_implicit(problem, grid, FirstStepMode.LITERAL),
        )

    def check(self, i, result) -> Outcome:
        k = i % self.pass_len
        p = self.problems[k]
        estimate, traj, implicit = result
        n = 8 * p.delays
        h = p.tau / 8
        values = [traj.value(j) for j in range(n + 1)]
        err = gen.max_abs_err(values, p.callables()[2], 0.0, h)
        out = Outcome(
            stepper_steps=n // 4 + n // 2 + 2 * n,
            oracle_steps=n,
            max_abs_err=err,
            err_ratio=err / self.ref_errs[k],
            oracle_diff=max(abs(u - implicit.value(j)) for j, u in enumerate(values)),
            slope_dev=abs(estimate.slope - 2.0),
        )
        if traj.grid.steps != n or implicit.grid.steps != n:
            out.failure = f"solved {traj.grid.steps} steps, expected {n}"
        elif not out.err_ratio <= ERR_RATIO_MAX:
            out.failure = f"max error {err!r} is {out.err_ratio:.3g}x the reference"
        elif not out.slope_dev <= SLOPE_TOL:
            out.failure = f"order slope {estimate.slope!r} is not 2 +- {SLOPE_TOL}"
        elif not out.oracle_diff <= ORACLE_DIFF_MAX * self.ref_errs[k]:
            out.failure = f"stepper and oracle differ by {out.oracle_diff!r}"
        return out

    def micro_target(self, lib):
        problem, grid, _ = self.setup(lib)
        return problem, _fill(lib, problem, grid.h, self.references[0])

    def probe(self, lib) -> Outcome:
        """The one layer the sweep never reaches, once: `vdide solve` on the
        first problem of the pass."""
        p = self.problems[0]
        path = os.path.join(self.workdir, "probe.vdide")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.texts[0])
        out = os.path.join(self.workdir, "probe.csv")
        lib.main(["solve", "--problem", path, "--h", repr(p.tau / 8), "--out", out])
        return Outcome(8 * p.delays, 0, math.nan, math.nan)


WORKLOADS = {
    "builtin-long": builtin_long,
    "multidelay-long": multidelay_long,
    "sweep-short": Sweep,
}
