"""Solve benchmark for the vdide package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from src/.
Workloads (see workloads.py):

  builtin-long     `vdide solve` on example2 at N = 800 through cli.main
  multidelay-long  `vdide solve` on a seeded manufactured problem over eight
                   delays, N = 640, through cli.main
  sweep-short      100 seeded small problems per pass through the library
                   API: parse, build, order study, solve and oracle

--trace 0 measures the end-to-end metrics with nothing instrumented.
--trace 1 alternates untraced and traced ops and reports per-layer metrics
from the spans, plus untraced micro-timings of single layer calls.  A layer
that a workload's op never reaches is measured once per run by the
workload's probe on the same problem.  Either way the run prints a
readable report, then one JSON line with the keys correct, attempted, failed
and metrics.

Every time is taken at a nominal host speed (calibrate.py) and reported as
the median over the run.  Set-up repetitions follow every op, and
micro-timings every traced op, so that all samples see the same stretches of
host speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# (lib name, module, function, span name) of every public call an op makes.
PUBLIC_CALLS = (
    ("main", "vdide.cli", "main", "cli.main"),
    ("resolve_problem", "vdide.registry", "resolve_problem", "registry.parse"),
    ("parse_config_text", "vdide.registry", "parse_config_text", "registry.parse"),
    ("build_grid", "vdide.problem", "build_grid", "problem.build_grid"),
    ("init_trajectory", "vdide.problem", "init_trajectory", "problem.init_trajectory"),
    ("solve", "vdide.stepper", "solve", "stepper.solve"),
    ("solve_implicit", "vdide.oracle", "solve_implicit", "oracle.solve"),
    ("order_study", "vdide.analysis", "order_study", "analysis.order_study"),
)

MICRO_CALLS = 2000
MICRO_ROWS = 5

MICRO_UNITS = {
    "expressions.kernel_call_ns": "ns",
    "expressions.g_call_ns": "ns",
    "problem.lookup_ns": "ns",
    "stepper.kernel_terms_us": "us",
}


def make_lib(tracer=None) -> SimpleNamespace:
    lib = {}
    for name, module, attr, span in PUBLIC_CALLS:
        fn = getattr(importlib.import_module(module), attr)
        lib[name] = tracer.wrap(span, fn) if tracer else fn
    return SimpleNamespace(**lib)


def run_op(wl, lib, i, cal, tracer=None):
    """(seconds, speed factor, Outcome) of op i, traced when a tracer is given.

    seconds are at the nominal host speed; an exception is a failed op.  The
    check runs after the clock stops.
    """
    from workloads import Outcome

    first = len(cal.durations)
    t0 = perf_counter()
    try:
        if tracer is None:
            result = wl.op(lib, i)
        else:
            tracer.op = i
            with tracer.instrument(), tracer.span("op"):
                result = wl.op(lib, i)
    except Exception:
        traceback.print_exc()
        return 0.0, 1.0, Outcome(0, 0, math.inf, math.inf, failure="raised")
    wall = perf_counter() - t0
    last = len(cal.durations)
    out = wl.check(i, result)
    if out.failure:
        print(f"op {i} failed: {out.failure}", file=sys.stderr)
    return cal.scale(wall, first, last), cal.factor(first, last), out


def untraced(wl, lib, cal, seconds):
    run_op(wl, lib, 0, cal)  # warm-up, not counted
    op_s, rates, setup_s, outcomes = [], [], [], []
    end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < end:
        dt, _, out = run_op(wl, lib, i, cal)
        outcomes.append(out)
        if not out.failure:
            op_s.append(dt)
            rates.append((out.stepper_steps + out.oracle_steps) / dt)
        for _ in range(wl.setup_reps):
            setup_s.append(cal.timed(wl.setup, lib, i)[1])
        i += 1
    failed = sum(1 for o in outcomes if o.failure)
    if failed == len(outcomes):
        raise RuntimeError("every op failed")
    metrics = {
        "op_s": (statistics.median(op_s), "s"),
        "steps_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "err_ratio": (max(o.err_ratio for o in outcomes if not o.failure), "ratio"),
    }
    report = {"op_s samples": (len(op_s), "count")}
    if len(op_s) >= 100:  # p90 only with at least ten samples beyond it
        report["op_s_p90"] = (statistics.quantiles(op_s, n=10)[-1], "s")
    report |= {
        "setup_s samples": (len(setup_s), "count"),
        "fail_ratio": (failed / len(outcomes), "ratio"),
        "max_abs_err": (max(o.max_abs_err for o in outcomes), "1"),
        "oracle_max_diff": (max(o.oracle_diff for o in outcomes), "1"),
        "host slowdown (median chunk / nominal)": (cal.slowdown(), "ratio"),
    }
    return metrics, report, len(outcomes), failed, True


def micro(problem, traj, cal, samples):
    """Untraced per-call timings of the kernel, g, a delayed lookup and a row."""
    from vdide import delayed_value, kernel_terms

    grid = traj.grid
    n = grid.steps
    x, t = grid.point(n // 2 + 1), grid.point(n // 4)
    v, u = delayed_value(traj, n // 4), traj.value(n // 2)
    kernel, g = problem.kernel, problem.g
    idx = [j % n + 1 for j in range(MICRO_CALLS)]

    def kernel_calls():
        for _ in idx:
            kernel(x, t, v)

    def g_calls():
        for _ in idx:
            g(x, u)

    def lookups():
        for j in idx:
            delayed_value(traj, j)

    def rows():
        for _ in range(MICRO_ROWS):
            kernel_terms(problem, traj, n // 2, traj.mode)

    for name, fn, per_call in (
        ("expressions.kernel_call_ns", kernel_calls, 1e9 / MICRO_CALLS),
        ("expressions.g_call_ns", g_calls, 1e9 / MICRO_CALLS),
        ("problem.lookup_ns", lookups, 1e9 / MICRO_CALLS),
        ("stepper.kernel_terms_us", rows, 1e6 / MICRO_ROWS),
    ):
        samples[name].append(cal.timed(fn)[1] * per_call)


def op_layers(tracer, op, out, factor):
    """Per-layer counts and times of one traced op, and whether its self
    times add up to its span.

    Times are net of calibration chunks and scaled by the op's speed factor.
    """
    from spans import LEAVES

    spans = tracer.op_spans(op)
    selfs = tracer.self_times(spans)
    root = spans[0]
    leaf_s = sum(root.leaf(n)[1] for n in LEAVES)
    adds_up = min(selfs.values()) >= -1e-7 and abs(
        sum(selfs.values()) + leaf_s - root.duration
    ) <= 1e-6

    def incl(name):
        return factor * sum(s.net for s in spans if s.name == name)

    def own(name):
        return factor * sum(selfs[id(s)] for s in spans if s.name == name)

    def leaf_calls(name, leaf):
        return sum(s.leaf(leaf)[0] for s in spans if s.name == name)

    oracle_iters = leaf_calls("oracle.solve", "g") - out.oracle_steps
    counts = {
        "expressions.kernel_evals": root.leaf("kernel")[0],
        "expressions.g_evals": root.leaf("g")[0],
        "expressions.history_evals": root.leaf("history")[0],
        "stepper.kernel_evals_per_step": leaf_calls("stepper.solve", "kernel")
        / out.stepper_steps,
        "oracle.iterations": oracle_iters,
        "oracle.iters_per_step": oracle_iters / out.oracle_steps if out.oracle_steps else 0.0,
    }
    times = {
        "cli.main_s": incl("cli.main"),
        "cli.self_s": own("cli.main"),
        "registry.parse_s": incl("registry.parse"),
        "registry.build_s": incl("registry.build"),
        "expressions.kernel_busy_s": factor * root.leaf("kernel")[1],
        "expressions.g_busy_s": factor * root.leaf("g")[1],
        "problem.build_grid_s": incl("problem.build_grid"),
        "problem.init_trajectory_s": incl("problem.init_trajectory"),
        "stepper.solve_s": incl("stepper.solve"),
        "stepper.self_s": own("stepper.solve"),
        "oracle.solve_s": incl("oracle.solve"),
        "oracle.self_s": own("oracle.solve"),
        "analysis.order_study_s": incl("analysis.order_study"),
    }
    return counts, times, factor * root.net, adds_up


def traced(wl, lib, cal, seconds, tracer):
    traced_lib = make_lib(tracer)
    problem, traj = wl.micro_target(lib)
    run_op(wl, lib, 0, cal)  # warm-up, not counted
    plain_s, traced_s, layer_s, outcomes = [], [], {}, []
    counts = {}  # first counts and outcome of each op in the pass
    samples = {name: [] for name in MICRO_UNITS}
    micro(problem, traj, cal, {name: [] for name in MICRO_UNITS})  # warm-up
    consistent = True
    end = perf_counter() + seconds
    i = 0
    while i < wl.pass_len or perf_counter() < end:
        dt, _, out = run_op(wl, lib, i, cal)
        outcomes.append(out)
        if not out.failure:
            plain_s.append(dt)

        _, factor, out = run_op(wl, traced_lib, i, cal, tracer)
        outcomes.append(out)
        if not out.failure:
            c, t, root_s, adds_up = op_layers(tracer, i, out, factor)
            # exact counts must repeat whenever the same problem comes round
            first_c, _ = counts.setdefault(i % wl.pass_len, (c, out))
            consistent = consistent and adds_up and first_c == c
            for name, value in t.items():
                layer_s.setdefault(name, []).append(value)
            traced_s.append(root_s)
            micro(problem, traj, cal, samples)
        i += 1

    failed = sum(1 for o in outcomes if o.failure)
    if not traced_s or not plain_s:
        raise RuntimeError("no op completed both untraced and traced")
    first_pass = list(counts.values())
    metrics = {name: (statistics.median(v), "s") for name, v in layer_s.items()}
    for name in first_pass[0][0]:
        metrics[name] = (statistics.fmean(c[name] for c, _ in first_pass), "count")
    for name, unit in MICRO_UNITS.items():
        metrics[name] = (statistics.median(samples[name]), unit)
    metrics["analysis.slope_dev_max"] = (max(o.slope_dev for _, o in first_pass), "1")
    metrics["stepper.max_abs_err"] = (max(o.max_abs_err for _, o in first_pass), "1")
    metrics["oracle.max_diff"] = (max(o.oracle_diff for _, o in first_pass), "1")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(plain_s),
        "s",
    )

    # layers the op never reached (still 0) take their figures from the probe
    tracer.op = "probe"
    first = len(cal.durations)
    with tracer.instrument(), tracer.span("op"):
        out = wl.probe(traced_lib)
    factor = cal.factor(first, len(cal.durations))
    c, t, _, adds_up = op_layers(tracer, "probe", out, factor)
    consistent = consistent and adds_up
    probed = {
        **c,
        **t,
        "analysis.slope_dev_max": out.slope_dev,
        "oracle.max_diff": out.oracle_diff,
    }
    for name, value in probed.items():
        if metrics[name][0] == 0:
            metrics[name] = (value, metrics[name][1])
    report = {
        "traced ops": (len(traced_s), "count"),
        "spans": (len(tracer.spans), "count"),
        "self times add up and counts repeat": (int(consistent), "bool"),
        "host slowdown (median chunk / nominal)": (cal.slowdown(), "ratio"),
    }
    return metrics, report, len(outcomes), failed, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vdide" / "__init__.py").is_file():
        print(f"perfbench: no vdide package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    from calibrate import Calibrator
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            with Calibrator(tracer.charge_calibration) as cal:
                result = traced(wl, make_lib(), cal, args.seconds, tracer)
        else:
            with Calibrator() as cal:
                result = untraced(wl, make_lib(), cal, args.seconds)
    metrics, report, attempted, failed, consistent = result

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  "
        f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}"
    )
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
