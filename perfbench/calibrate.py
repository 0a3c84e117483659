"""Host-speed calibration interleaved through the measured code.

On a shared 2-vCPU KVM guest (2.0 GHz Xeon, Python 3.11.7) the speed of
pure-Python code switches between a fast and a slow state (about 1.75x
apart) several times a second, and the share of slow time drifts from minute
to minute: medians of raw op times over 30-second runs spread by 20-30% from
run to run.  So while a run measures, an interval
timer interrupts the program every INTERVAL seconds and times a fixed chunk
of work of the benchmark's own.  A measured window is reported as its wall
time, less the chunks that ran inside it, scaled by how fast the chunks ran
during it: seconds at the speed where a chunk takes CHUNK_NOMINAL_S.  That
speed is the fast state of that guest, so there the figures read as wall
time on an idle machine.

The chunk walks a small expression tree the way a tree-walking interpreter
does, because work of that shape slows down with the host as the solver
does: per-op scaled times varied by 1.4-1.7% within a run, against 2.8-3.9%
with a plain arithmetic loop and 18-20% unscaled.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

INTERVAL = 0.005
CHUNK_CALLS = 50
CHUNK_NOMINAL_S = 86e-6


class _Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Op:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


class _Exp:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


def _evaluate(node, bindings):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return bindings[node.name]
    if isinstance(node, _Op):
        left = _evaluate(node.left, bindings)
        right = _evaluate(node.right, bindings)
        if node.op == "-":
            out = left - right
        elif node.op == "*":
            out = left * right
        else:
            out = math.pow(left, right)
    else:
        out = math.exp(_evaluate(node.arg, bindings))
    if not math.isfinite(out):
        raise ValueError(out)
    return out


# 0.3 * exp(t - x) * v^2
_TREE = _Op(
    "*",
    _Op("*", _Num(0.3), _Exp(_Op("-", _Var("t"), _Var("x")))),
    _Op("^", _Var("v"), _Num(2.0)),
)


def chunk() -> float:
    s = 0.0
    for i in range(CHUNK_CALLS):
        s += _evaluate(_TREE, {"x": 0.5, "t": 0.25 + i * 1e-3, "v": 1.0 + i * 1e-3})
    return s


class Calibrator:
    """Runs a timed chunk every INTERVAL seconds while active.

    on_chunk, when given, is called with each chunk's duration, so that a
    tracer can keep chunk time out of the spans it interrupts.
    """

    def __init__(self, on_chunk=None):
        self.durations: list[float] = []
        self._on_chunk = on_chunk
        self._previous = None

    def _run_chunk(self, *_):
        t0 = perf_counter()
        chunk()
        d = perf_counter() - t0
        self.durations.append(d)
        if self._on_chunk is not None:
            self._on_chunk(d)

    def __enter__(self):
        self._run_chunk()  # every window has a chunk at or before its start
        self._previous = signal.signal(signal.SIGALRM, self._run_chunk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """(fn(*args), its duration at the nominal speed)."""
        first = len(self.durations)
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        return result, self.scale(wall, first, len(self.durations))

    def factor(self, first: int, last: int) -> float:
        """Host speed over a window holding chunks first..last-1, as a share
        of the nominal speed.

        A window too short to hold a chunk takes the chunk just before it.
        """
        speed = self.durations[first:last] or self.durations[first - 1 : first]
        return sum(CHUNK_NOMINAL_S / d for d in speed) / len(speed)

    def scale(self, wall: float, first: int, last: int) -> float:
        """wall seconds holding chunks first..last-1, at the nominal speed."""
        return (wall - sum(self.durations[first:last])) * self.factor(first, last)

    def slowdown(self) -> float:
        """Median chunk time over the nominal one, for the report."""
        return statistics.median(self.durations) / CHUNK_NOMINAL_S
