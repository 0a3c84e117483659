"""Command-line front end.

Subcommands:

    solve          run the explicit stepper, emit x,u as CSV
    table          absolute-error table against the exact solution, one
                   column per step size
    order          global convergence order from a list of step sizes
    compare        explicit stepper next to the iterated implicit reference
    list-problems  show the built-in problem names

Each is an entry of COMMANDS, name -> (help, add_flags, handler).  main
builds only the one argv[0] names, or all five, for the same help and errors.

Exit codes, decided in main alone: 0 on success; 2 for usage and config
problems (bad flags, bad config files, incommensurate grids, off-grid sample
points, no order to fit), every ProblemSetupError, DegenerateError,
ValueError, OSError and ExpressionError other than DomainError; 3 for
numerical failures, a NumericalError (blow-up, stalled implicit iteration)
or a DomainError (an expression leaving the real domain during a solve, or
phi or an exact solution doing so at a named x).  Any other exception is a
bug and propagates.

Numbers are printed with 17 significant digits so a round trip through text
preserves the exact float.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis import error_table, observed_order, order_study, timed_solve
from .errors import DegenerateError, NumericalError, ProblemSetupError
from .expressions import DomainError, ExpressionError
from .oracle import OracleConfig, solve_implicit
from .problem import FirstStepMode, build_grid
from .registry import builtin_names, builtin_problem, resolve_problem
from .stepper import solve

USAGE_EXIT = 2
NUMERICAL_EXIT = 3

# Default sample points for error tables; i/10 keeps them exactly the
# doubles nearest 0.1 .. 1.0, which grid_index then matches.
DEFAULT_TABLE_POINTS = [i / 10 for i in range(1, 11)]


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _single_h(args: argparse.Namespace) -> float:
    if len(args.h) != 1:
        raise ValueError(
            f"this command expects exactly one --h value, got {len(args.h)}"
        )
    return args.h[0]


def _mode(args: argparse.Namespace) -> FirstStepMode:
    return FirstStepMode(args.first_step)


def cmd_solve(args: argparse.Namespace) -> str:
    problem = resolve_problem(args.problem).build()
    h = _single_h(args)
    grid = build_grid(problem.x0, problem.x_end, problem.tau, h)
    traj = solve(problem, grid, _mode(args))
    x0 = grid.x0
    forward = traj._values[grid.delay_steps :]
    lines = ["x,u"]
    lines += ["%.17g,%.17g" % (x0 + j * h, u) for j, u in enumerate(forward)]
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> str:
    config = resolve_problem(args.problem)
    problem = config.build()
    if problem.exact is None:
        raise ValueError(
            f"problem {config.name!r} has no exact solution; an error table "
            "needs one"
        )
    points = args.points if args.points is not None else DEFAULT_TABLE_POINTS
    mode = _mode(args)

    tables = []
    elapsed = []
    for h in args.h:
        grid = build_grid(problem.x0, problem.x_end, problem.tau, h)
        traj, seconds = timed_solve(problem, grid, mode)
        elapsed.append(seconds)
        tables.append(error_table(traj, problem.exact, points))

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
    config = resolve_problem(args.problem)
    problem = config.build()
    if len(args.h) < 2:
        raise ValueError("order needs at least two --h values")
    mode = _mode(args)
    estimate = order_study(problem, mode, args.h)

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
    problem = resolve_problem(args.problem).build()
    h = _single_h(args)
    grid = build_grid(problem.x0, problem.x_end, problem.tau, h)
    mode = _mode(args)
    oracle_config = OracleConfig(tol=args.tol, max_iter=args.max_iter)
    traj_nnm = solve(problem, grid, mode)
    traj_ref = solve_implicit(problem, grid, mode, oracle_config)

    x0 = grid.x0
    start = grid.delay_steps
    lines = ["x,u_nnm,u_implicit,diff"]
    max_abs_diff = 0.0
    for j, (a, b) in enumerate(
        zip(traj_nnm._values[start:], traj_ref._values[start:])
    ):
        diff = a - b
        max_abs_diff = max(max_abs_diff, abs(diff))
        lines.append("%.17g,%.17g,%.17g,%.17g" % (x0 + j * h, a, b, diff))
    lines.append(f"# max_abs_diff: {max_abs_diff:.17g}")
    return "\n".join(lines) + "\n"


def cmd_list_problems(args: argparse.Namespace) -> str:
    lines = []
    for name in builtin_names():
        config = builtin_problem(name)
        lines.append(f"{name}  [{config.x0:g}, {config.X:g}]  tau={config.tau:g}")
    return "\n".join(lines) + "\n"


def _add_problem_flags(
    sub: argparse.ArgumentParser, multi_h_help: str = "step size (exactly one)"
) -> None:
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


def _add_table_flags(sub: argparse.ArgumentParser) -> None:
    _add_problem_flags(sub, "comma-separated step sizes, one column each")
    sub.add_argument(
        "--points",
        type=_parse_float_list,
        default=None,
        metavar="X[,X...]",
        help="sample points (default: 0.1,0.2,...,1.0)",
    )


def _add_order_flags(sub: argparse.ArgumentParser) -> None:
    _add_problem_flags(sub, "comma-separated step sizes (at least two)")


def _add_compare_flags(sub: argparse.ArgumentParser) -> None:
    _add_problem_flags(sub)
    sub.add_argument(
        "--tol",
        type=float,
        default=1e-13,
        help="fixed-point residual tolerance for the reference (default 1e-13)",
    )
    sub.add_argument(
        "--max-iter",
        type=int,
        default=100,
        help="fixed-point iteration cap per step (default 100)",
    )


# name -> (help, add_flags, handler), in the order help lists the commands.
COMMANDS = {
    "solve": ("solve and print x,u per grid point", _add_problem_flags, cmd_solve),
    "table": (
        "absolute-error table, one column per step size", _add_table_flags, cmd_table
    ),
    "order": (
        "fit the global convergence order over several step sizes",
        _add_order_flags,
        cmd_order,
    ),
    "compare": (
        "explicit stepper vs iterated implicit reference",
        _add_compare_flags,
        cmd_compare,
    ),
    "list-problems": ("list built-in problems", lambda sub: None, cmd_list_problems),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The vdide parser, with every command's subparser or only command's.

    The latter takes the full parser's metavar, for the same usage line; the
    full parser sets none, so its errors name the argument 'command'.
    """
    parser = argparse.ArgumentParser(
        prog="vdide",
        description="Trapezoidal solver for Volterra integro-differential "
        "equations with a constant delay.",
    )
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_text, add_flags, handler = COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        add_flags(subparser)
        subparser.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed a usage message
        return int(exc.code) if exc.code is not None else 0

    # the one place an exception becomes an exit code; any other exception
    # is a bug and propagates
    try:
        output = args.handler(args)
    except NumericalError as exc:
        where = "" if exc.x is None else f" (x = {exc.x:.17g})"
        print(f"vdide: {exc}{where}", file=sys.stderr)
        return NUMERICAL_EXIT
    except DomainError as exc:
        what = "failed during solve"
        if exc.step_index is not None:
            what += f" at step {exc.step_index} (x = {exc.x:.17g})"
        elif exc.slot is not None:
            what = f"of {exc.slot} failed at x = {exc.x:.17g}"
        print(f"vdide: evaluation {what}: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (
        ProblemSetupError, DegenerateError, ExpressionError, ValueError, OSError
    ) as exc:
        print(f"vdide: {exc}", file=sys.stderr)
        return USAGE_EXIT

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
