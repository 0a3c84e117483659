"""Command-line front end.

Subcommands:

    solve          run the explicit stepper, emit x,u as CSV
    table          absolute-error table against the exact solution, one
                   column per step size
    order          global convergence order from a list of step sizes
    compare        explicit stepper next to the iterated implicit reference
    list-problems  show the built-in problem names

Exit codes: 0 on success, 2 for usage and config problems (bad flags, bad
config files, incommensurate grids), 3 for numerical failures (blow-up,
stalled implicit iteration, evaluation leaving the real domain mid-solve).

Numbers are printed with 17 significant digits so a round trip through text
preserves the exact float.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from .analysis import error_table, observed_order, order_study, timed_solve
from .errors import (
    DegenerateError,
    NumericalError,
    ProblemSetupError,
    VdideError,
)
from .expressions import ExpressionError
from .oracle import OracleConfig, solve_implicit
from .problem import DelayProblem, FirstStepMode, GridSpec, build_grid
from .registry import ProblemConfig, builtin_names, builtin_problem, resolve_problem
from .stepper import solve

USAGE_EXIT = 2
NUMERICAL_EXIT = 3

# Default sample points for error tables; i/10 keeps them exactly the
# doubles nearest 0.1 .. 1.0, which grid_index then matches.
DEFAULT_TABLE_POINTS = [i / 10 for i in range(1, 11)]


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _load_problem(ref: str) -> tuple[ProblemConfig, DelayProblem]:
    try:
        config = resolve_problem(ref)
        return config, config.build()
    except (VdideError, OSError) as exc:
        raise CliError(str(exc), USAGE_EXIT) from exc


def _checked_grid(problem: DelayProblem, h: float) -> GridSpec:
    try:
        return build_grid(problem.x0, problem.x_end, problem.tau, h)
    except (ProblemSetupError, ValueError) as exc:
        raise CliError(str(exc), USAGE_EXIT) from exc


def _run(step_fn: Callable, *args, **kwargs):
    """Run a solve-phase callable, mapping failures to exit code 3."""
    try:
        return step_fn(*args, **kwargs)
    except NumericalError as exc:
        raise CliError(str(exc), NUMERICAL_EXIT) from exc
    except ExpressionError as exc:
        step = getattr(exc, "step_index", None)
        where = "" if step is None else f" at step {step}"
        raise CliError(
            f"evaluation failed during solve{where}: {exc}", NUMERICAL_EXIT
        ) from exc


def _single_h(args: argparse.Namespace) -> float:
    if len(args.h) != 1:
        raise CliError(
            f"this command expects exactly one --h value, got {len(args.h)}",
            USAGE_EXIT,
        )
    return args.h[0]


def _mode(args: argparse.Namespace) -> FirstStepMode:
    return FirstStepMode(args.first_step)


def cmd_solve(args: argparse.Namespace) -> str:
    _, problem = _load_problem(args.problem)
    h = _single_h(args)
    grid = _checked_grid(problem, h)
    traj = _run(solve, problem, grid, _mode(args))
    x0 = grid.x0
    forward = traj.values[grid.delay_steps :]
    lines = ["x,u"]
    lines += [f"{x0 + j * h:.17g},{u:.17g}" for j, u in enumerate(forward)]
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> str:
    config, problem = _load_problem(args.problem)
    if problem.exact is None:
        raise CliError(
            f"problem {config.name!r} has no exact solution; an error table "
            "needs one",
            USAGE_EXIT,
        )
    points = args.points if args.points is not None else DEFAULT_TABLE_POINTS
    mode = _mode(args)

    tables = []
    elapsed = []
    for h in args.h:
        grid = _checked_grid(problem, h)
        traj, seconds = _run(timed_solve, problem, grid, mode)
        elapsed.append(seconds)
        try:
            tables.append(error_table(traj, problem.exact, points))
        except ProblemSetupError as exc:
            raise CliError(str(exc), USAGE_EXIT) from exc

    header = "x," + ",".join(f"abs_error_h={h:g}" for h in args.h)
    lines = [header]
    for row_idx in range(len(tables[0].rows)):
        x = tables[0].rows[row_idx][0]
        errs = ",".join(f"{t.rows[row_idx][1]:.17g}" for t in tables)
        lines.append(f"{x:.17g},{errs}")
    for h, seconds in zip(args.h, elapsed):
        lines.append(f"# elapsed_h={h:g}: {seconds:.6f}")
    return "\n".join(lines) + "\n"


def cmd_order(args: argparse.Namespace) -> str:
    config, problem = _load_problem(args.problem)
    if len(args.h) < 2:
        raise CliError("order needs at least two --h values", USAGE_EXIT)
    mode = _mode(args)
    try:
        estimate = _run(order_study, problem, mode, args.h)
    except (DegenerateError, ValueError, ProblemSetupError) as exc:
        raise CliError(str(exc), USAGE_EXIT) from exc

    lines = [f"order study for {config.name} (first step {mode.value})"]
    for h, err in estimate.pairs:
        lines.append(f"  h = {h:<12g} max abs error = {err:.17g}")
    lines.append("pairwise observed order:")
    for (h1, e1), (h2, e2) in zip(estimate.pairs, estimate.pairs[1:]):
        order = observed_order(e1, e2, h1 / h2)
        lines.append(f"  h {h1:g} -> {h2:g}: {order:.6f}")
    lines.append(f"fitted slope: {estimate.slope:.6f}")
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> str:
    _, problem = _load_problem(args.problem)
    h = _single_h(args)
    grid = _checked_grid(problem, h)
    mode = _mode(args)
    try:
        oracle_config = OracleConfig(tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        raise CliError(str(exc), USAGE_EXIT) from exc
    traj_nnm = _run(solve, problem, grid, mode)
    traj_ref = _run(solve_implicit, problem, grid, mode, oracle_config)

    x0 = grid.x0
    start = grid.delay_steps
    lines = ["x,u_nnm,u_implicit,diff"]
    max_abs_diff = 0.0
    for j, (a, b) in enumerate(
        zip(traj_nnm.values[start:], traj_ref.values[start:])
    ):
        diff = a - b
        max_abs_diff = max(max_abs_diff, abs(diff))
        lines.append(f"{x0 + j * h:.17g},{a:.17g},{b:.17g},{diff:.17g}")
    lines.append(f"# max_abs_diff: {max_abs_diff:.17g}")
    return "\n".join(lines) + "\n"


def cmd_list_problems(args: argparse.Namespace) -> str:
    lines = []
    for name in builtin_names():
        config = builtin_problem(name)
        lines.append(f"{name}  [{config.x0:g}, {config.X:g}]  tau={config.tau:g}")
    return "\n".join(lines) + "\n"


def _add_problem_flags(sub: argparse.ArgumentParser, multi_h_help: str) -> None:
    sub.add_argument(
        "--problem",
        required=True,
        help="built-in problem name or path to a config file",
    )
    sub.add_argument(
        "--h",
        required=True,
        type=_parse_float_list,
        metavar="H[,H...]",
        help=multi_h_help,
    )
    sub.add_argument(
        "--first-step",
        choices=[m.value for m in FirstStepMode],
        default=FirstStepMode.LITERAL.value,
        help="first-step stencil: 'literal' uses the uniform stencil at j=0, "
        "'corrected' honours the vanishing inner integral (default: literal)",
    )
    sub.add_argument(
        "--out",
        default=None,
        help="write output to this file instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdide",
        description="Trapezoidal solver for Volterra integro-differential "
        "equations with a constant delay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and print x,u per grid point")
    _add_problem_flags(p_solve, "step size (exactly one)")
    p_solve.set_defaults(handler=cmd_solve)

    p_table = sub.add_parser(
        "table", help="absolute-error table, one column per step size"
    )
    _add_problem_flags(p_table, "comma-separated step sizes, one column each")
    p_table.add_argument(
        "--points",
        type=_parse_float_list,
        default=None,
        metavar="X[,X...]",
        help="sample points (default: 0.1,0.2,...,1.0)",
    )
    p_table.set_defaults(handler=cmd_table)

    p_order = sub.add_parser(
        "order", help="fit the global convergence order over several step sizes"
    )
    _add_problem_flags(p_order, "comma-separated step sizes (at least two)")
    p_order.set_defaults(handler=cmd_order)

    p_compare = sub.add_parser(
        "compare", help="explicit stepper vs iterated implicit reference"
    )
    _add_problem_flags(p_compare, "step size (exactly one)")
    p_compare.add_argument(
        "--tol",
        type=float,
        default=1e-13,
        help="fixed-point residual tolerance for the reference (default 1e-13)",
    )
    p_compare.add_argument(
        "--max-iter",
        type=int,
        default=100,
        help="fixed-point iteration cap per step (default 100)",
    )
    p_compare.set_defaults(handler=cmd_compare)

    p_list = sub.add_parser("list-problems", help="list built-in problems")
    p_list.set_defaults(handler=cmd_list_problems)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed a usage message
        return int(exc.code) if exc.code is not None else 0

    try:
        output = args.handler(args)
    except CliError as err:
        print(f"vdide: {err}", file=sys.stderr)
        return err.exit_code

    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as err:
            print(f"vdide: cannot write {out_path!r}: {err}", file=sys.stderr)
            return USAGE_EXIT
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
