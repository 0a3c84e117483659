"""Built-in benchmark problems and the text config format.

A problem config is a flat text file of `key = value` lines with two escape
hatches: blank lines and lines starting with # are ignored.  Keys:

    name   short label used in reports
    g      expression in x, u for the non-integral right-hand side
    K      expression in x, t, v for the kernel; v is the delayed state
    phi    expression in x for the history segment
    exact  expression in x for the known solution (optional)
    tau    positive finite float, the delay
    x0     finite float, left end of the integration interval
    X      finite float, right end; X > x0

Each expression slot admits only its own variables, checked at load time so
a misplaced name fails before any solve starts.  A config parses each
expression once: loading parses and checks it, and build reuses the tree.

Two problems ship built in.  Both live on [0, 1] with tau = 1, so the whole
solve runs inside the first delay interval and every delayed lookup reads
the history segment.  example1 is linear with solution e^x; example2 squares
the delayed state, with solution e^(x+1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import ConfigError
from .expressions import (
    DomainError,
    ExpressionError,
    _TooDeep,
    _variables_within,
    evaluate,
    parse,
    x_rate,
)
from .problem import DelayProblem

_REQUIRED_KEYS = ("name", "g", "K", "phi", "tau", "x0", "X")
_OPTIONAL_KEYS = ("exact",)
_FLOAT_KEYS = ("tau", "x0", "X")

# Variables each expression slot is allowed to mention.
SLOT_VARIABLES = {
    "g": frozenset({"x", "u"}),
    "K": frozenset({"x", "t", "v"}),
    "phi": frozenset({"x"}),
    "exact": frozenset({"x"}),
}


# The deepest expression tree a config may hold, in nodes on a root-to-leaf
# path.  The deepest walker, the parser on a "^" chain, takes two frames per
# level, so a tree at the bound costs it 800 of Python's default limit of
# 1000 frames and leaves 200 for the caller's stack; x_rate, evaluate,
# unparse, the load walk and expressions._emit, which writes every
# generated loop, take one.
_MAX_DEPTH = 400


def _slot_function(tree, slot):
    """The function a built problem calls for slot: a walk of tree with
    evaluate, carrying tree.

    It takes its variables by position and builds the bindings dict as a
    display: a *args function using dict(zip(...)) measured about 45% slower
    over 100 single steps of example2 (nnm_step at h = 0.01, on an Intel
    Xeon).  Single calls walk: those of the single-step references
    (nnm_step, implicit_step), of the call-site loop that reruns a failed
    tree loop, of error tables at their sample points, and of a traced
    solve, whose counting wrappers run the call-site loop.  phi and exact
    stamp a DomainError with their slot and x.  Loops over many
    points write tree in instead: a solve whose g and K both carry theirs
    runs its tree loop (stepper._step_loop), and phi and exact run their
    grid loops (problem.grid_values), tree's values bound to the loop of its
    shape, kept as .loop beside .tree.  Neither refers to the function.
    """
    if slot == "g":

        def walk(x: float, u: float) -> float:
            return evaluate(tree, {"x": x, "u": u})

    elif slot == "K":

        def walk(x: float, t: float, v: float) -> float:
            return evaluate(tree, {"x": x, "t": t, "v": v})

    else:

        def walk(x: float) -> float:
            try:
                return evaluate(tree, {"x": x})
            except DomainError as exc:
                exc.slot, exc.x = slot, x
                raise

    walk.tree = tree
    return walk


@dataclass(frozen=True)
class ProblemConfig:
    """A problem as written in a config file, expressions still in text form."""

    name: str
    g: str
    K: str
    phi: str
    tau: float
    x0: float
    X: float
    exact: Optional[str] = None

    @cached_property
    def _trees(self) -> dict:
        """Slot name -> parsed tree of each expression slot given.

        Each expression is parsed and checked against its slot's variables
        and the depth bound on the first use and never again for this
        config.  A parse error keeps its class and offset, and its message
        starts with the slot, as "exact: number '1e999' is too large (at
        offset 0)".
        """
        trees = {}
        for slot in ("g", "K", "phi", "exact"):
            text = getattr(self, slot)
            if text is None:
                continue
            try:
                tree = parse(text)
                stray = _variables_within(tree, _MAX_DEPTH) - SLOT_VARIABLES[slot]
            except (RecursionError, _TooDeep):
                # the parser spends about 5 frames on a level of parentheses,
                # which the depth bound cannot see
                raise ConfigError(
                    f"{slot}: the expression nests too deeply to load "
                    f"({len(text)} characters)"
                ) from None
            except ExpressionError as exc:  # a parse error, named by its slot
                exc.args = (f"{slot}: {exc}",)
                raise
            if stray:
                names = ", ".join(sorted(stray))
                allowed = ", ".join(sorted(SLOT_VARIABLES[slot]))
                raise ConfigError(
                    f"{slot} = {text!r} uses variable(s) {names} but this "
                    f"slot only admits {allowed}"
                )
            trees[slot] = tree
        return trees

    def build(self) -> DelayProblem:
        """Wrap the expressions in a DelayProblem.

        The expressions are parsed and slot-checked once per config: a
        config from parse_config_text was checked at load, and later builds
        of the same config reuse its trees.  g, kernel, history and exact
        are slot functions, which run in loops as _slot_function says.
        """
        trees = self._trees
        exact_tree = trees.get("exact")
        return DelayProblem(
            g=_slot_function(trees["g"], "g"),
            kernel=_slot_function(trees["K"], "K"),
            history=_slot_function(trees["phi"], "phi"),
            tau=self.tau,
            x0=self.x0,
            x_end=self.X,
            exact=None if exact_tree is None else _slot_function(exact_tree, "exact"),
            kernel_x_rate=x_rate(trees["K"], self.X - self.x0),
        )

    def to_text(self) -> str:
        """Render back to the config format; parse_config_text inverts this."""
        lines = [
            f"name = {self.name}",
            f"g = {self.g}",
            f"K = {self.K}",
            f"phi = {self.phi}",
        ]
        if self.exact is not None:
            lines.append(f"exact = {self.exact}")
        lines.append(f"tau = {self.tau!r}")
        lines.append(f"x0 = {self.x0!r}")
        lines.append(f"X = {self.X!r}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> ProblemConfig:
    """Parse config file contents into a ProblemConfig, checked in full.

    Each of these is a ConfigError at load: an unknown, duplicate or missing
    key; a tau, x0 or X that is not a finite number; tau <= 0, X <= x0 or
    an X - x0 too large to be finite; an expression that uses a variable
    its slot does not admit or nests more than 400 levels deep.  A
    malformed expression raises its own ExpressionError, its message
    prefixed by the slot.  The expressions are parsed here, once, and
    build() reuses the trees.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        seen[key] = value

    missing = [k for k in _REQUIRED_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")

    fields: dict = {"name": seen["name"], "exact": seen.get("exact")}
    for key in ("g", "K", "phi"):
        fields[key] = seen[key]
    for key in _FLOAT_KEYS:
        try:
            number = float(seen[key])
        except ValueError:
            raise ConfigError(
                f"key {key!r} must be a number, got {seen[key]!r}"
            ) from None
        if not math.isfinite(number):
            raise ConfigError(f"key {key!r} must be finite, got {seen[key]!r}")
        fields[key] = number
    if not fields["tau"] > 0:
        raise ConfigError(f"tau must be positive, got {fields['tau']!r}")
    if not fields["X"] > fields["x0"]:
        raise ConfigError(
            f"X must exceed x0, got x0 = {fields['x0']!r}, X = {fields['X']!r}"
        )
    if not math.isfinite(fields["X"] - fields["x0"]):
        raise ConfigError(
            f"X - x0 must be finite, got x0 = {fields['x0']!r}, X = {fields['X']!r}"
        )

    config = ProblemConfig(**fields)
    config._trees  # parses and slot-checks the expressions
    return config


def load_config(path: str) -> ProblemConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


_BUILTINS = {
    "example1": ProblemConfig(
        name="example1",
        g="exp(-1)*(1 - exp(x)) + u",
        K="v",
        phi="exp(x)",
        exact="exp(x)",
        tau=1.0,
        x0=0.0,
        X=1.0,
    ),
    "example2": ProblemConfig(
        name="example2",
        g="-exp(x)*sinh(x) + u",
        K="v^2",
        phi="exp(x + 1)",
        exact="exp(x + 1)",
        tau=1.0,
        x0=0.0,
        X=1.0,
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_problem(name: str) -> ProblemConfig:
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise ConfigError(f"unknown built-in problem {name!r}; have: {known}") from None


def resolve_problem(ref: str) -> ProblemConfig:
    """Turn a problem reference, registry name or config path, into a config."""
    if ref in _BUILTINS:
        return _BUILTINS[ref]
    if os.path.exists(ref):
        return load_config(ref)
    known = ", ".join(builtin_names())
    raise ConfigError(
        f"problem {ref!r} is neither a built-in name ({known}) nor a config file"
    )
