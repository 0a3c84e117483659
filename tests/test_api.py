"""The package root exports exactly the API the README's Library section
documents; everything else is imported from its module."""

import pathlib
import re

import vdide

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

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_documented_list():
    assert sorted(vdide.__all__) == sorted(PUBLIC)


def test_every_exported_name_resolves():
    for name in vdide.__all__:
        assert hasattr(vdide, name), name


def test_benchmark_imports_survive():
    # the benchmark harness under perfbench/ imports these from the root
    from vdide import (  # noqa: F401
        FirstStepMode,
        build_grid,
        delayed_value,
        kernel_terms,
        parse_config_text,
        solve,
    )


def test_readme_library_section_lists_every_export():
    text = README.read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    for name in PUBLIC:
        assert re.search(rf"`{name}\b", library), name
