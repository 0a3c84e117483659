"""The package root exports exactly the API the README's Library section
documents; everything else is imported from its module.  The benchmark
harness under perfbench/ reaches the package by name, and the problems it
generates keep the row path and the loops it measures; perfbench/ is
imported here, read-only, through sys.path or from its files."""

import importlib
import importlib.util
import math
import pathlib
import re

import pytest

import vdide
from helpers import isfinite_calls
from vdide import registry, stepper
from vdide.expressions import grid_loop

PUBLIC = [
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

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def perfbench(monkeypatch, name):
    """The module perfbench/<name>.py."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module(name)


def perfbench_table(name, table):
    """perfbench/<name>.py's table, read at collection from a copy of the
    module loaded under its own name; run.py and spans.py import only the
    standard library at their top."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, table)


# (module, name) of every function the benchmark harness calls through
# run.PUBLIC_CALLS, and of every one that, while it traces, it swaps
# through spans.INTERNAL_CALLS for a spanning version
TRACED = [call[1:3] for call in perfbench_table("run", "PUBLIC_CALLS")]
TRACED += [call[:2] for call in perfbench_table("spans", "INTERNAL_CALLS")]


def test_all_is_the_documented_list():
    assert sorted(vdide.__all__) == sorted(PUBLIC)


def test_every_exported_name_resolves():
    for name in vdide.__all__:
        assert hasattr(vdide, name), name


def test_benchmark_imports_survive():
    # the benchmark harness imports these from the root, and while it
    # traces swaps ProblemConfig.build, as it does the functions of TRACED,
    # for a spanning version
    from vdide import (  # noqa: F401
        FirstStepMode,
        build_grid,
        delayed_value,
        kernel_terms,
        parse_config_text,
        solve,
    )

    assert callable(registry.ProblemConfig.build)
    assert len(TRACED) == 15


@pytest.mark.parametrize("module, name", TRACED, ids=[".".join(c) for c in TRACED])
def test_each_function_the_benchmark_calls_or_swaps_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_the_generated_problems_keep_their_row_path_and_fast_loops(monkeypatch):
    # the generated problems' c*exp(t - x)*v^2 decays in x (rate -1.0); a
    # rate of None would make multidelay-long an O(N^2) solve.  phi's grid
    # loop checks its values at the grid's two ends, not at each point, so
    # as often over 801 points as over 9; their phis, exp(c*x) and
    # exp(-c*x), run two grid loops, one per shape; and the step loop
    # evaluates exp(t - x) on the diagonal, exp(0.0), once per solve, so
    # the diagonal sample's lines, kd_site, call no exp
    gen = perfbench(monkeypatch, "gen")
    multidelay = [gen.multidelay(seed) for seed in range(1, 9)]
    phi_loops = set()
    for generated in multidelay + gen.sweep(1, 100):
        problem = vdide.parse_config_text(generated.text()).build()
        assert problem.kernel_x_rate == -1.0, generated.name
        loop = grid_loop(problem.history.tree)
        assert isfinite_calls(loop, 9) == isfinite_calls(loop, 801), generated.name
        phi_loops.add(loop.func)
        if generated in multidelay:
            lines, values = stepper._written(problem.g.tree, problem.kernel.tree)
            names, kd_site = lines[0], lines[5]
            exps = [name for name, value in zip(names, values) if value is math.exp]
            assert exps, generated.name
            assert not any(f"{name}(" in kd_site for name in exps), generated.name
    assert len(phi_loops) == 2


def test_readme_library_section_lists_every_export():
    text = README.read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    for name in PUBLIC:
        assert re.search(rf"`{name}\b", library), name
