"""In-memory spans around the package's public calls, and counting wrappers.

A span records (name, start, end, parent, op id).  The benchmark opens spans
around the calls it makes itself; while a traced op runs, `instrument` also
swaps the module-level names through which the package calls its own layers
(`vdide.cli.solve`, `vdide.stepper.init_trajectory`, ...) and
`ProblemConfig.build` for spanning versions, and restores them afterwards.
The package's files are never edited.

Every problem built under `instrument` gets counting and timing wrappers on
g, kernel and history through `dataclasses.replace`.  Those calls are far
too many to record one by one, so each span keeps the wrappers' running
totals at its start and end instead; a span's self time is its duration
minus its child spans and minus the wrapper time spent directly under it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
from time import perf_counter

# Leaf callables of a DelayProblem, counted rather than spanned, and the
# calibration chunks (calibrate.py) that interrupt whatever runs.
PROBLEM_LEAVES = ("kernel", "g", "history")
LEAVES = PROBLEM_LEAVES + ("calibration",)
_CAL = 2 * LEAVES.index("calibration")

# (module, attribute, span name) for the package's calls into its own layers.
INTERNAL_CALLS = (
    ("vdide.cli", "resolve_problem", "registry.parse"),
    ("vdide.cli", "build_grid", "problem.build_grid"),
    ("vdide.cli", "solve", "stepper.solve"),
    ("vdide.analysis", "build_grid", "problem.build_grid"),
    ("vdide.analysis", "solve", "stepper.solve"),
    ("vdide.stepper", "init_trajectory", "problem.init_trajectory"),
    ("vdide.oracle", "init_trajectory", "problem.init_trajectory"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "leaf_start", "leaf_end")

    def __init__(self, name, start, leaf_start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.leaf_start = leaf_start
        self.leaf_end = leaf_start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def net(self) -> float:
        """Duration less the calibration chunks that ran inside the span."""
        return self.duration - self.leaf("calibration")[1]

    def leaf(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of one leaf callable inside this span."""
        i = LEAVES.index(name)
        return (
            self.leaf_end[2 * i] - self.leaf_start[2 * i],
            self.leaf_end[2 * i + 1] - self.leaf_start[2 * i + 1],
        )


class Tracer:
    """Spans of every traced op, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        # calls and seconds per leaf callable, interleaved: [n0, s0, n1, s1, ...]
        self._leaf = [0, 0.0] * len(LEAVES)

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, name: str, fn):
        """fn, recorded as a span called name."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counted(self, name: str, fn):
        """fn, adding its calls and busy time to the totals of leaf name.

        Calibration chunks that interrupt fn are not counted as its time.
        """
        totals = self._leaf
        n = 2 * LEAVES.index(name)

        def leaf(*args):
            c0 = totals[_CAL + 1]
            t0 = perf_counter()
            out = fn(*args)
            totals[n + 1] += perf_counter() - t0 - (totals[_CAL + 1] - c0)
            totals[n] += 1
            return out

        return leaf

    def clock(self):
        """(perf_counter(), leaf totals), read with no calibration chunk
        landing between the two reads."""
        leaf = self._leaf
        while True:
            chunks = leaf[_CAL]
            now = perf_counter()
            totals = tuple(leaf)
            if leaf[_CAL] == chunks:
                return now, totals

    def charge_calibration(self, seconds: float) -> None:
        self._leaf[_CAL] += 1
        self._leaf[_CAL + 1] += seconds

    @contextlib.contextmanager
    def instrument(self):
        """Span the package's internal layer calls; count problem leaves."""
        from vdide.registry import ProblemConfig

        saved = []
        for module_name, attr, span_name in INTERNAL_CALLS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(span_name, fn))
        build = ProblemConfig.build

        def traced_build(config):
            with self.span("registry.build"):
                problem = build(config)
            return dataclasses.replace(
                problem,
                **{n: self.counted(n, getattr(problem, n)) for n in PROBLEM_LEAVES},
            )

        saved.append((ProblemConfig, "build", build))
        ProblemConfig.build = traced_build
        try:
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------

    def op_spans(self, op) -> list[Span]:
        """Spans of op, the op traced last."""
        k = len(self.spans)
        while k and self.spans[k - 1].op == op:
            k -= 1
        return self.spans[k:]

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Self time of each span (by id): duration minus children and leaves."""
        ids = {id(s): s for s in spans}
        child_time = {id(s): 0.0 for s in spans}
        child_leaf = {id(s): 0.0 for s in spans}
        for s in spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.duration
                child_leaf[id(s.parent)] += _leaf_seconds(s)
        return {
            k: s.duration - child_time[k] - (_leaf_seconds(s) - child_leaf[k])
            for k, s in ids.items()
        }


def _leaf_seconds(span: Span) -> float:
    return sum(span.leaf(n)[1] for n in LEAVES)


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.span = Span(self.name, *t.clock(), parent, t.op)
        t._stack.append(self.span)
        t.spans.append(self.span)
        return self.span

    def __exit__(self, *exc):
        t = self.tracer
        self.span.end, self.span.leaf_end = t.clock()
        t._stack.pop()
        return False
