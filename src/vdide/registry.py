"""Built-in benchmark problems and the text config format.

A problem config is a flat text file of `key = value` lines with two escape
hatches: blank lines and lines starting with # are ignored.  Keys:

    name   short label used in reports
    g      expression in x, u for the non-integral right-hand side
    K      expression in x, t, v for the kernel; v is the delayed state
    phi    expression in x for the history segment
    exact  expression in x for the known solution (optional)
    tau    positive float, the delay
    x0     float, left end of the integration interval
    X      float, right end; X > x0

Each expression slot admits only its own variables, checked at load time so
a misplaced name fails before any solve starts.

Two problems ship built in.  Both live on [0, 1] with tau = 1, so the whole
solve runs inside the first delay interval and every delayed lookup reads
the history segment.  example1 is linear with solution e^x; example2 squares
the delayed state, with solution e^(x+1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .expressions import evaluate, parse, variables, x_rate
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

    def build(self) -> DelayProblem:
        """Parse, validate, and compile the expressions into a DelayProblem."""
        trees = {}
        used = {}
        for slot in ("g", "K", "phi", "exact"):
            text = getattr(self, slot)
            if text is None:
                continue
            tree = parse(text)
            used[slot] = variables(tree)
            stray = used[slot] - SLOT_VARIABLES[slot]
            if stray:
                names = ", ".join(sorted(stray))
                allowed = ", ".join(sorted(SLOT_VARIABLES[slot]))
                raise ConfigError(
                    f"{slot} = {text!r} uses variable(s) {names} but this "
                    f"slot only admits {allowed}"
                )
            trees[slot] = tree

        g_tree = trees["g"]
        k_tree = trees["K"]
        phi_tree = trees["phi"]
        exact_tree = trees.get("exact")

        def g(x: float, u: float) -> float:
            return evaluate(g_tree, {"x": x, "u": u})

        def kernel(x: float, t: float, v: float) -> float:
            return evaluate(k_tree, {"x": x, "t": t, "v": v})

        def history(x: float) -> float:
            return evaluate(phi_tree, {"x": x})

        exact = None
        if exact_tree is not None:
            def exact(x: float) -> float:
                return evaluate(exact_tree, {"x": x})

        return DelayProblem(
            g=g,
            kernel=kernel,
            history=history,
            tau=self.tau,
            x0=self.x0,
            x_end=self.X,
            exact=exact,
            kernel_x_rate=x_rate(k_tree, self.X - self.x0),
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
    """Parse config file contents into a ProblemConfig.

    Unknown, duplicate, or missing keys are ConfigErrors; expression slots
    are parsed and slot-checked immediately via build, so a bad config never
    survives loading.
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
            fields[key] = float(seen[key])
        except ValueError:
            raise ConfigError(
                f"key {key!r} must be a number, got {seen[key]!r}"
            ) from None

    config = ProblemConfig(**fields)
    config.build()  # validates expressions and slot variables
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
