"""Self-checks of the benchmark's generator, reference scheme and tracer.

    python3 -m pytest perfbench -q
"""

import importlib
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
from spans import Tracer  # noqa: E402
from vdide import build_grid, parse_config_text, solve  # noqa: E402
from vdide.registry import ProblemConfig  # noqa: E402

SEEDS = (1, 7, 42, 1234)


def test_generator_is_seeded_and_in_range():
    assert gen.multidelay(7) == gen.multidelay(7)
    assert gen.sweep(7, 20) == gen.sweep(7, 20)
    assert gen.sweep(7, 20) != gen.sweep(8, 20)
    for seed in SEEDS:
        for p in [gen.multidelay(seed)] + gen.sweep(seed, 100):
            assert gen.A_RANGE[0] <= p.a <= gen.A_RANGE[1]
            assert gen.C_RANGE[0] <= p.c <= gen.C_RANGE[1]
            # the divisor 2a + 1 of g stays well away from zero
            assert abs(2 * p.a + 1) >= 0.2 - 1e-12


def test_config_text_matches_callables_bit_for_bit():
    for seed in SEEDS:
        p = gen.multidelay(seed)
        problem = parse_config_text(p.text()).build()
        h = p.tau / 10
        grid = build_grid(0.0, p.x_end, p.tau, h)
        traj = solve(problem, grid)
        g, kernel, exact = p.callables()
        ref = gen.reference_solve(g, kernel, exact, 0.0, h, grid.steps, grid.delay_steps)
        assert [traj.value(j) for j in range(grid.steps + 1)] == ref


def test_error_falls_fourfold_when_h_halves():
    for seed in SEEDS:
        p = gen.multidelay(seed)
        g, kernel, exact = p.callables()
        errs = []
        for div in (20, 40, 80):
            h = p.tau / div
            u = gen.reference_solve(g, kernel, exact, 0.0, h, round(p.x_end / h), div)
            errs.append(gen.max_abs_err(u, exact, 0.0, h))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.6 < coarse / fine < 4.4


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    leaf = tracer.counted("kernel", lambda x: x * 2)
    tracer.op = 0
    with tracer.span("op"):
        with tracer.span("outer"):
            leaf(1)
            with tracer.span("inner"):
                leaf(2)
                leaf(3)
        leaf(4)
    spans = tracer.op_spans(0)
    root = spans[0]
    assert [s.name for s in spans] == ["op", "outer", "inner"]
    assert root.leaf("kernel")[0] == 4 and spans[2].leaf("kernel")[0] == 2
    selfs = tracer.self_times(spans)
    assert min(selfs.values()) >= 0
    total = sum(selfs.values()) + root.leaf("kernel")[1]
    assert math.isclose(total, root.duration, rel_tol=1e-9, abs_tol=1e-12)


def test_instrument_restores_the_package():
    cli = importlib.import_module("vdide.cli")
    before = (cli.solve, ProblemConfig.build)
    tracer = Tracer()
    with tracer.instrument():
        assert cli.solve is not before[0]
        problem = parse_config_text(gen.multidelay(1).text()).build()
        problem.kernel(0.5, 0.25, 1.0)
    assert (cli.solve, ProblemConfig.build) == before
    assert [s.name for s in tracer.spans] == ["registry.build", "registry.build"]
    assert tracer.spans[1].leaf("kernel") == (0, 0.0)


def test_metrics_match_benchmark_json(capsys):
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "sweep-short", "--seed", "3", "--seconds", "0.1"]
        assert run.main(argv + ["--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
        # every layer is measured, by the op or by the workload's probe
        times = {
            k: v["value"]
            for k, v in result["metrics"].items()
            if v["unit"] in ("s", "ns", "us")
        }
        assert all(value > 0 for value in times.values()), times
