"""Volterra integro-differential equations with a constant delay.

The solver advances a trapezium discretization of both the step integral and
the inner kernel integral, closing the implicit half-step of g with a fixed
three-term series (two corrector substitutions).  An iterated implicit
reference solver, error tables against known solutions, and convergence
order fits round out the toolkit.

The package root holds the API the README documents; everything else is
imported from its module (vdide.stepper, vdide.analysis, vdide.errors, ...).
"""

from .analysis import error_table, order_study
from .errors import NonFiniteState, VdideError
from .expressions import DomainError
from .oracle import solve_implicit, step_residual
from .problem import DelayProblem, FirstStepMode, build_grid, delayed_value
from .registry import builtin_problem, parse_config_text
from .stepper import kernel_terms, solve

__version__ = "0.1.0"

__all__ = [
    "DelayProblem",
    "DomainError",
    "FirstStepMode",
    "NonFiniteState",
    "VdideError",
    "build_grid",
    "builtin_problem",
    "delayed_value",
    "error_table",
    "kernel_terms",
    "order_study",
    "parse_config_text",
    "solve",
    "solve_implicit",
    "step_residual",
]
