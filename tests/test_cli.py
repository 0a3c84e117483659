import argparse
import gc
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdide
from helpers import recorded_loops, replay, walking_builds
from vdide import FirstStepMode, build_grid, builtin_problem, solve, solve_implicit
from vdide import cli, registry
from vdide.cli import main
from vdide.problem import GridSpec
from vdide.registry import resolve_problem
from vdide.stepper import nnm_step


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(cell) for cell in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestSolve:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, err = run(
            capsys,
            "solve", "--problem", "example1", "--h", "0.1", "--out", str(target),
        )
        assert code == 0 and out == "" and err == ""
        assert target.read_text().startswith("x,u\n")

    def test_bad_flag_value(self, capsys):
        for h, message in [
            ("abc", "expected comma-separated floats"),
            (",", "expected at least one value"),
        ]:
            code, _, err = run(capsys, "solve", "--problem", "example1", "--h", h)
            assert code == 2
            assert message in err


class TestTable:
    def test_reference_layout(self, capsys):
        code, out, err = run(
            capsys, "table", "--problem", "example1", "--h", "0.01,0.02,0.1"
        )
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["x", "abs_error_h=0.01", "abs_error_h=0.02",
                          "abs_error_h=0.1"]
        assert len(rows) == 10
        assert [r[0] for r in rows] == [i / 10 for i in range(1, 11)]
        comments = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert [c.split(":")[0] for c in comments] == [
            "# elapsed_h=0.01",
            "# elapsed_h=0.02",
            "# elapsed_h=0.1",
        ]
        for c in comments:
            assert float(c.split(":")[1]) >= 0.0

    def test_spot_value_against_reference(self, capsys):
        code, out, _ = run(capsys, "table", "--problem", "example2", "--h", "0.01")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1][0] == 1.0
        assert abs(rows[-1][1] / 1.72316e-4 - 1) < 0.10

    def test_default_points_span_a_shifted_interval(self, capsys, tmp_path):
        # on [2, 3] the default points are 2.1 .. 3.0, tenths of the interval
        cfg = tmp_path / "shifted.cfg"
        cfg.write_text(
            "name = shifted\ng = -u\nK = 0*v\nphi = exp(2 - x)\n"
            "exact = exp(2 - x)\ntau = 1\nx0 = 2\nX = 3\n"
        )
        code, out, err = run(capsys, "table", "--problem", str(cfg), "--h", "0.1")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [2.0 + i * 1.0 / 10 for i in range(1, 11)]
        assert all(0.0 < r[1] < 1e-3 for r in rows)

    @pytest.mark.parametrize(
        "hs, points",
        [
            ("0.25", [0.25, 0.5, 0.75, 1.0]),
            ("0.25,0.125", [0.25, 0.5, 0.75, 1.0]),
            ("0.5,0.05", [0.5, 1.0]),
            # 5 and 8 steps share no divisor but 1: only X is on both grids
            ("0.2,0.125", [1.0]),
        ],
    )
    def test_default_points_lie_on_every_grid(self, capsys, hs, points):
        code, out, err = run(capsys, "table", "--problem", "example1", "--h", hs)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == points
        assert all(0.0 < e < 0.1 for r in rows for e in r[1:])

    def test_points_override(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--problem", "example1", "--h", "0.1", "--points", "0.5,1.0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [0.5, 1.0]


class TestOrder:
    def test_report_contains_slope_near_two(self, capsys):
        code, out, err = run(
            capsys, "order", "--problem", "example1", "--h", "0.1,0.05,0.025,0.0125"
        )
        assert code == 0 and err == ""
        match = re.search(r"fitted slope: ([0-9.]+)", out)
        assert match is not None
        assert 1.8 <= float(match.group(1)) <= 2.2
        assert out.count("pairwise") == 1
        assert len(re.findall(r"h [0-9.]+ -> [0-9.]+", out)) == 3


class TestCompare:
    def test_closure_gap_shrinks_with_h(self, capsys):
        gaps = {}
        for h in ("0.1", "0.05"):
            _, out, _ = run(capsys, "compare", "--problem", "example1", "--h", h)
            summary = [ln for ln in out.splitlines() if ln.startswith("#")][0]
            gaps[h] = float(summary.split(":")[1])
        assert gaps["0.1"] < 1e-2
        assert 3.5 <= gaps["0.1"] / gaps["0.05"] <= 9.5

    def test_zero_g_gives_zero_diff(self, capsys, tmp_path):
        cfg = tmp_path / "pure.cfg"
        cfg.write_text(
            "name = pure\ng = 0\nK = v\nphi = exp(x)\ntau = 1\nx0 = 0\nX = 1\n"
        )
        code, out, _ = run(capsys, "compare", "--problem", str(cfg), "--h", "0.1")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[3] == 0.0 for r in rows)


class TestListProblems:
    def test_lists_builtins(self, capsys):
        code, out, err = run(capsys, "list-problems")
        assert code == 0 and err == ""
        assert "example1" in out
        assert "example2" in out

    def test_config_round_trip_through_cli(self, capsys, tmp_path):
        cfg = tmp_path / "copy.cfg"
        cfg.write_text(builtin_problem("example1").to_text())
        _, by_name, _ = run(capsys, "solve", "--problem", "example1", "--h", "0.1")
        _, by_file, _ = run(capsys, "solve", "--problem", str(cfg), "--h", "0.1")
        assert by_name == by_file


# Command lines whose usage, help or error text comes from argparse, each
# against a parser holding only the named command, if any, and the full one.
PARSER_TEXTS = [
    [],
    ["-h"],
    *[[name, "-h"] for name in cli.COMMANDS],
    ["bogus"],
    ["--problem", "example1", "solve"],
    ["solve", "--problem", "example1"],
    ["solve", "--problem", "example1", "--h", "0.1", "--first-step", "bad"],
    ["solve", "--problem", "example1", "--h", "0.1", "extra"],
]


@pytest.mark.parametrize("argv", PARSER_TEXTS, ids=" ".join)
def test_a_named_command_parses_as_the_full_parser_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    narrowed = run(capsys, *argv)
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: real())
    assert narrowed == run(capsys, *argv)
    assert narrowed[0] == (0 if "-h" in argv else 2) and (narrowed[1] or narrowed[2])


def test_an_unknown_command_gets_the_full_usage_and_names_the_argument(
    capsys, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "bogus")
    usage, error = err.splitlines()
    assert (code, out) == (2, "")
    assert usage == "usage: vdide [-h] {solve,table,order,compare,list-problems} ..."
    assert error.startswith("vdide: error: argument command: invalid choice: 'bogus'")


def test_a_named_command_builds_only_its_subparser(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def spy(command=None):
        built.append(real(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(capsys, "solve", "--problem", "example1", "--h", "0.1")[0] == 0
    [subparsers] = [
        a for a in built[0]._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == ["solve"]


SOLVE = ("solve", "--problem", "example1", "--h", "0.1")


@pytest.mark.parametrize("argv", PARSER_TEXTS, ids=" ".join)
def test_a_shared_parser_answers_as_a_fresh_one_does(
    capsys, monkeypatch, tmp_path, argv
):
    # each line twice, between a solve, a failing solve and a usage error,
    # through the parsers main keeps and through freshly built ones
    monkeypatch.setenv("COLUMNS", "80")
    blowup = write_failing_configs(tmp_path)["blowup"]
    calls = [
        argv, SOLVE, ("solve", "--problem", blowup, "--h", "0.5"),
        ("solve", "--problem", "example1"),
    ] * 2
    shared = [run(capsys, *call) for call in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert shared == [run(capsys, *call) for call in calls]
    assert [code for code, _, _ in shared[1:4]] == [0, 3, 2]
    assert shared[0] == shared[4]


def test_compare_help_names_the_oracle_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, "compare", "-h")
    assert code == 0 and "(default 1e-13)" in out and "(default 100)" in out


def test_a_shared_parser_rewraps_help_when_columns_change(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    wide = run(capsys, "solve", "-h")
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run(capsys, "solve", "-h")
    assert wide[0] == narrow[0] == 0
    assert len(narrow[1].splitlines()) > len(wide[1].splitlines())
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run(capsys, "solve", "-h") == narrow


def test_each_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run(capsys, *SOLVE)[0] == 0
        assert run(capsys, "table", "-h")[0] == 0
        assert run(capsys, "bogus")[0] == 2
    info = cli.build_parser.cache_info()
    # solve's, table's and the full parser, each built on its first call
    assert (info.misses, info.hits) == (3, 6)


def test_a_repeated_main_call_leaves_no_reference_cycles(capsys):
    # a parser is a web of actions and groups that point back at it; built
    # once, it is not left to the cyclic collector after every call
    run(capsys, *SOLVE)
    gc.collect()
    gc.disable()
    try:
        code = run(capsys, *SOLVE)[0]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert code == 0


# X = 4 tau and an x-dependent kernel, so rows past the first delay read
# computed values through the O(N^2) row path
FOUR_DELAYS = (
    "name = four_delays\ng = -u + sin(x)\nK = sin(x - t)*v\nphi = 1 + x/2\n"
    "tau = 0.25\nx0 = 0\nX = 1\n"
)


def g17(value):
    return format(value, ".17g")


def expected_solve_csv(traj):
    grid = traj.grid
    lines = ["x,u"]
    for j in range(grid.steps + 1):
        lines.append(f"{g17(grid.point(j))},{g17(traj.value(j))}")
    return "\n".join(lines) + "\n"


def expected_compare_csv(traj_nnm, traj_ref):
    grid = traj_nnm.grid
    lines = ["x,u_nnm,u_implicit,diff"]
    max_abs_diff = 0.0
    for j in range(grid.steps + 1):
        a, b = traj_nnm.value(j), traj_ref.value(j)
        max_abs_diff = max(max_abs_diff, abs(a - b))
        lines.append(",".join(g17(v) for v in (grid.point(j), a, b, a - b)))
    lines.append(f"# max_abs_diff: {g17(max_abs_diff)}")
    return "\n".join(lines) + "\n"


class TestOutputBytes:
    """solve and compare print format(v, ".17g") of every grid point and
    value, byte for byte; a round trip of the values alone would also
    accept repr()."""

    @pytest.fixture(params=["example1", "example2", "four_delays"])
    def ref(self, request, tmp_path):
        if request.param != "four_delays":
            return request.param
        cfg = tmp_path / "four_delays.cfg"
        cfg.write_text(FOUR_DELAYS)
        return str(cfg)

    # each command runs at 0.05 twice with a call at another h between, so
    # the second call prints through the row template the first one made,
    # past a miss
    STEPS = (0.05, 0.125, 0.05)

    @pytest.mark.parametrize("mode", list(FirstStepMode))
    def test_solve(self, capsys, ref, mode):
        problem = resolve_problem(ref).build()
        cli._row_format.cache_clear()
        for h in self.STEPS:
            grid = build_grid(problem.x0, problem.x_end, problem.tau, h)
            code, out, err = run(
                capsys,
                "solve", "--problem", ref, "--h", repr(h), "--first-step", mode.value,
            )
            assert code == 0 and err == ""
            assert out == expected_solve_csv(solve(problem, grid, mode))
        assert cli._row_format.cache_info()[:2] == (1, 2)

    @pytest.mark.parametrize("mode", list(FirstStepMode))
    def test_compare(self, capsys, ref, mode):
        problem = resolve_problem(ref).build()
        cli._row_format.cache_clear()
        for h in self.STEPS:
            grid = build_grid(problem.x0, problem.x_end, problem.tau, h)
            code, out, err = run(
                capsys,
                "compare", "--problem", ref, "--h", repr(h), "--first-step", mode.value,
            )
            assert code == 0 and err == ""
            want = expected_compare_csv(
                solve(problem, grid, mode), solve_implicit(problem, grid, mode)
            )
            assert out == want
        assert cli._row_format.cache_info()[:2] == (1, 2)


def parent_csv(header, grid, *columns):
    """_csv as it was before the row template: every x_j and value through
    one %.17g pass."""
    rows, width = len(columns[0]), len(columns) + 1
    flat = [0.0] * (width * rows)
    flat[::width] = [grid.x0 + j * grid.h for j in range(rows)]
    for k, column in enumerate(columns, 1):
        flat[k::width] = column
    return f"{header}\n" + ("%.17g," * len(columns) + "%.17g\n") * rows % tuple(flat)


# x0 as CLI grids have it, and as API grids allow: signed zeros, negatives,
# a value past 2^53, and integers with an integer h
ORIGINS = [0.0, -0.0, -1.0, -0.75, -3.5e-9, 1e17, 0, -2]
STEP_SIZES = [0.1, 0.05, 0.125, 1e-3, 1 / 3, 1, 2]
HEADERS = ["x,u", "x,u_nnm,u_implicit,diff", "x,%u", "%%,%s,%.17g"]


@st.composite
def csv_calls(draw):
    """Up to 16 calls (header, x0, h, rows, width), drawn from small pools
    of each field, so that keys repeat and often differ in one field only."""
    pools = [
        draw(st.lists(field, min_size=1, max_size=3, unique=True))
        for field in (
            st.sampled_from(HEADERS),
            st.sampled_from(ORIGINS),
            st.sampled_from(STEP_SIZES),
            st.integers(1, 60),
            st.sampled_from([1, 3]),
        )
    ]
    call = st.tuples(*(st.sampled_from(pool) for pool in pools))
    return draw(st.lists(call, min_size=1, max_size=16))


@settings(max_examples=150, deadline=None)
@given(calls=csv_calls(), values=st.lists(st.floats(), min_size=1, max_size=180))
def test_csv_prints_what_per_value_formatting_prints(calls, values):
    # run twice over, so the calls meet hits, misses, evictions past the
    # cache's bound and keys that differ only in h, rows, type or header
    cli._row_format.cache_clear()
    for header, x0, h, rows, width in calls * 2:
        grid = GridSpec(h=h, steps=1, delay_steps=1, x0=x0)
        columns = [(values[k * rows :] + [k + 0.5] * rows)[:rows] for k in range(width)]
        assert cli._csv(header, grid, *columns) == parent_csv(header, grid, *columns)


BASE_KEY = ("x,u", 0.0, 0.125, 9)


@pytest.mark.parametrize(
    "first, other",
    [
        (BASE_KEY, ("x,u", 0.0, 0.1, 9)),
        (BASE_KEY, ("x,u", 0.0, 0.125, 11)),
        (BASE_KEY, ("x,%u", 0.0, 0.125, 9)),
        (BASE_KEY, ("x,u", -1.0, 0.125, 9)),
        # equal keys but for type: in floats 1.0 + 3.0 * h rounds twice, to
        # ...972, in ints 1 + 3 * h once, to ...976
        (("x,u", 1.0, 2.0**53 - 1, 4), ("x,u", 1, 2**53 - 1, 4)),
    ],
    ids=["h", "rows", "header", "x0", "int-grid"],
)
def test_keys_that_differ_in_one_field_get_their_own_template(first, other):
    columns = [0.25] * 11
    for header, x0, h, rows in [first, other, first]:
        grid = GridSpec(h=h, steps=1, delay_steps=1, x0=x0)
        got = cli._csv(header, grid, columns[:rows])
        assert got == parent_csv(header, grid, columns[:rows])


def test_the_row_template_cache_stays_within_its_bound(capsys):
    cli._row_format.cache_clear()
    bound = cli._row_format.cache_info().maxsize
    assert bound == 8
    grid = GridSpec(h=0.5, steps=1, delay_steps=1, x0=0.0)
    for rows in range(1, bound + 21):
        cli._csv("x,u", grid, [1.0] * rows)
    info = cli._row_format.cache_info()
    assert (info.misses, info.currsize) == (bound + 20, bound)


@pytest.mark.parametrize("mode", list(FirstStepMode))
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_csv_bodies_match_per_row_formatting(capsys, name, mode):
    # at h = 0.1 the grid points x0 + j h print as 17-digit forms such as
    # 0.30000000000000004, which the one-operation bodies must repeat
    problem = builtin_problem(name).build()
    grid = build_grid(0.0, 1.0, 1.0, 0.1)
    traj = solve(problem, grid, mode)
    ref = solve_implicit(problem, grid, mode)
    flag = ("--first-step", mode.value)
    solved = run(capsys, "solve", "--problem", name, "--h", "0.1", *flag)
    compared = run(capsys, "compare", "--problem", name, "--h", "0.1", *flag)
    assert solved == (0, expected_solve_csv(traj), "")
    assert compared == (0, expected_compare_csv(traj, ref), "")
    assert "0.30000000000000004," in solved[1]


# A kernel on each row path of the solve loop, with the kernel_x_rate its
# config gets: rows from a recurrence with rho = 1 or rho = e^(-h), and rows
# evaluated in full.
ROW_PATHS = {
    "rate-0": ("v^2", 0.0),
    "rate-minus-1": ("exp(t - x)*v^2", -1.0),
    "direct": ("sin(x - t)*v", None),
}


@pytest.mark.parametrize("mode", list(FirstStepMode))
@pytest.mark.parametrize("path", sorted(ROW_PATHS))
def test_solve_prints_the_nnm_step_replay(capsys, tmp_path, path, mode):
    # 80 steps: the solve runs its tree loop, with g and K written in, and
    # the replay's single steps walk throughout
    kernel, rate = ROW_PATHS[path]
    cfg = tmp_path / "rows.cfg"
    cfg.write_text(
        f"name = rows\ng = -u + sin(x)\nK = {kernel}\nphi = 1 + x/2\n"
        "tau = 0.25\nx0 = 0\nX = 1\n"
    )
    problem = resolve_problem(str(cfg)).build()
    assert problem.kernel_x_rate == rate
    grid = build_grid(0.0, 1.0, 0.25, 0.0125)
    h, x0 = grid.h, grid.x0
    forward = replay(nnm_step, problem, grid, mode).values[grid.delay_steps :]
    want = ["x,u"] + [f"{x0 + j * h:.17g},{u:.17g}" for j, u in enumerate(forward)]
    code, out, err = run(
        capsys,
        "solve", "--problem", str(cfg), "--h", "0.0125", "--first-step", mode.value,
    )
    assert (code, err) == (0, "")
    got = out.splitlines()
    if not rate:
        assert got == want
        return
    # the recurrence rounds differently: the same x text, and u within 1e-12
    # of the largest |u|
    assert [ln.split(",")[0] for ln in got] == [ln.split(",")[0] for ln in want]
    bound = 1e-12 * max(map(abs, forward))
    for line, u in zip(got[1:], forward):
        assert abs(float(line.split(",")[1]) - u) <= bound


# Configs for the failure table below, written to files named after the key.
FAILING_CONFIGS = {
    "huge": "name = huge\ng = -u\nK = v\nphi = 1\ntau = 1e300\nx0 = 0\nX = 1e300\n",
    "delay": "name = delay\ng = -u\nK = v\nphi = 1\ntau = 0.25\nx0 = 0\nX = 1\n",
    "tiny_delay": "name = tiny\ng = -u\nK = v\nphi = 1\ntau = 1e-12\nx0 = 0\nX = 1\n",
    "bad_name": "name = bad\ng = u\nK = w^2\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n",
    "bad_syntax": "name = bad\ng = u +\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n",
    "bad_call": "name = bad\ng = foo(u)\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n",
    "inf_exact": (
        "name = infexact\ng = u\nK = 0\nphi = exp(x)\nexact = 1e999\n"
        "tau = 1\nx0 = 0\nX = 1\n"
    ),
    "sum988": (
        f"name = sum988\ng = {' + '.join(['u'] * 988)}\nK = v\nphi = exp(x)\n"
        "exact = exp(x)\ntau = 1\nx0 = 0\nX = 1\n"
    ),
    "bad_tau": "name = badtau\ng = -u\nK = v\nphi = 1\ntau = 0\nx0 = 0\nX = 1\n",
    "noexact": "name = noexact\ng = -u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n",
    "exactcase": (
        "name = exactcase\ng = 0\nK = 1\nphi = 0\n"
        "exact = x^2/2\ntau = 1\nx0 = 0\nX = 1\n"
    ),
    "overflow": "name = overflow\ng = u\nK = 0\nphi = 1e307\ntau = 1\nx0 = 0\nX = 5\n",
    "stiff": "name = stiff\ng = u\nK = 0\nphi = 1\ntau = 2.5\nx0 = 0\nX = 2.5\n",
    # at h = 1/128 the oracle's tree loop does not converge at step 0, and
    # the call-site loop reruns to raise
    "stiff400": (
        "name = stiff400\ng = -400*u\nK = 0*v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
    ),
    "blowup": "name = blowup\ng = u^2\nK = 0\nphi = 10\ntau = 0.5\nx0 = 0\nX = 5\n",
    "log_exact": (
        "name = logexact\ng = u\nK = 0\nphi = exp(x)\nexact = log(x - 0.5)\n"
        "tau = 1\nx0 = 0\nX = 1\n"
    ),
    "log_phi": "name = logphi\ng = u\nK = 0\nphi = log(x)\ntau = 1\nx0 = 0\nX = 1\n",
    # phi and exact fail at a point on every grid below, so grid loops of
    # every length must print the same line
    "log_phi_half": (
        "name = logphihalf\ng = u\nK = 0\nphi = log(x + 0.5)\nexact = exp(x)\n"
        "tau = 1\nx0 = 0\nX = 1\n"
    ),
    "log_exact_half": (
        "name = logexacthalf\ng = u\nK = 0\nphi = exp(x)\nexact = log(0.5 - x)\n"
        "tau = 1\nx0 = 0\nX = 1\n"
    ),
    # failures of g and K inside the solve loop, which the tree loop meets
    # first at every h, on [0, 1] at h = 0.1 and 0.005, and on [0, 5] at
    # h = 0.5 and 0.01
    "log_g": (
        "name = logg\ng = log(x - 0.5) + u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
    ),
    "log_g_mid": (
        "name = loggmid\ng = log(0.5 - x) + u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
    ),
    "k_overflow": (
        "name = koverflow\ng = -u\nK = exp(800*t)*v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
    ),
}

# the first g(x_0, u_0) fails on every grid
LOG_G_FAILS = (
    "evaluation failed during solve at step 0 (x = 0): cannot evaluate "
    "'log(x - 0.5)' at argument -0.5: math domain error"
)
LOG_G_MID_FAILS = (
    "evaluation failed during solve at step {step} (x = {x}): cannot evaluate "
    "'log(0.5 - x)' at argument 0.0: math domain error"
)
K_OVERFLOW_FAILS = (
    "evaluation failed during solve at step {step} (x = {x}): cannot evaluate "
    "'exp(800.0 * t)' at argument {arg}: math range error"
)

# the table's first point and the order study's first grid point, x_1 at
# h = 0.1, are both 0.1
LOG_EXACT_FAILS = (
    "evaluation of exact failed at x = 0.10000000000000001: cannot evaluate "
    "'log(x - 0.5)' at argument -0.4: math domain error"
)
# init_trajectory evaluates phi from x_{-M} = x0 - tau = -1 on
LOG_PHI_FAILS = (
    "evaluation of phi failed at x = -1: cannot evaluate 'log(x)' at "
    "argument -1.0: math domain error"
)
# x_{-M} = -1 at h = 0.1 and 0.005, and the exact solution's first failure,
# x_j = 0.5, lies on both grids; phi's and exact's grid loops
# fail there, over 11 or 201 and 10 or 200 points, and the walk reruns
LOG_PHI_HALF_FAILS = (
    "evaluation of phi failed at x = -1: cannot evaluate 'log(x + 0.5)' at "
    "argument -0.5: math domain error"
)
LOG_EXACT_HALF_FAILS = (
    "evaluation of exact failed at x = 0.5: cannot evaluate 'log(0.5 - x)' at "
    "argument 0.0: math domain error"
)
NOT_CONVERGED = (
    "implicit step 0 did not reach tol=1e-13 in {iterations} iterations; "
    "h may be too large for this g (x = 0)"
)
TOO_DEEP = "g: the expression nests too deeply to load (3949 characters)"

def row(command, code, message, id, process=False):
    """A failure case: the command line, its exit code and its stderr after
    "vdide: ".  In both, {name} stands for the path of FAILING_CONFIGS[name]
    and {dir} for the directory holding them.  With process=True the command
    runs as `python -m vdide`, from the stack depth a user's command starts
    at, rather than through main from inside the test.
    """
    return pytest.param(command, code, message, process, id=id)


# One or more rows per failure class.  The 988-term sum runs as a process
# but for solve: before the depth bound it loaded there and then exhausted
# the recursion limit in the implicit solve and the order study, while the
# deeper stack under a test tripped the limit at load already.
FAILURES = [
    row(
        "solve --problem example1 --h 0.3", 2,
        "(x_end - x0)/h = 3.3333333333333335 is not a whole number of steps",
        id="NonCommensurateInterval",
    ),
    *[
        row(
            f"{command} --problem example1 --h {hs}", 2,
            "(x_end - x0)/h = 3.3333333333333335 is not a whole number of steps",
            id=f"NonCommensurateInterval-{command}",
        )
        for command, hs in [("table", "0.1,0.3"), ("order", "0.1,0.3"), ("compare", "0.3")]
    ],
    row(
        "solve --problem example1 --h 1e-320", 2,
        "(x_end - x0)/h = inf is not a whole number of steps",
        id="NonCommensurateInterval-overflow-solve",
    ),
    row(
        "order --problem example1 --h 0.1,1e-320", 2,
        "(x_end - x0)/h = inf is not a whole number of steps",
        id="NonCommensurateInterval-overflow-order",
    ),
    *[
        row(
            f"{command} --problem example1 --h {hs}", 2,
            "h = 1e-300 is below the spacing of doubles near 1.0; "
            "neighbouring grid points would be the same number",
            id=f"below-double-spacing-{command}",
        )
        for command, hs in [
            ("solve", "1e-300"), ("table", "1e-300"), ("order", "0.1,1e-300")
        ]
    ],
    row(
        "solve --problem {huge} --h 1e-10", 2,
        "(x_end - x0)/h = inf is not a whole number of steps",
        id="NonCommensurateInterval-overflow-config",
    ),
    row(
        "solve --problem {delay} --h 0.1", 2,
        "tau/h = 2.5 is not a whole number of steps",
        id="NonCommensurateDelay",
    ),
    row(
        "solve --problem {tiny_delay} --h 0.5", 2,
        "tau = 1e-12 spans zero steps of h = 0.5; delayed lookups would "
        "reference the future",
        id="ZeroDelaySteps",
    ),
    row(
        "table --problem example1 --h 0.1 --points 0.15", 2,
        "x = 0.15 is not a grid point at h = 0.1",
        id="OffGridSample",
    ),
    *[
        row(
            f"table --problem example1 --h 0.1 --points {point}", 2,
            f"x = {point} lies outside the solved interval [0.0, 1.0]",
            id=f"OffGridSample-{where}",
        )
        for point, where in [("2.0", "past-X"), ("-0.5", "in-history")]
    ],
    row(
        "solve --problem nope --h 0.1", 2,
        "problem 'nope' is neither a built-in name (example1, example2) nor "
        "a config file",
        id="ConfigError",
    ),
    row(
        "solve --problem {bad_tau} --h 0.5", 2, "tau must be positive, got 0.0",
        id="ConfigError-bad-number",
    ),
    row(
        "solve --problem {sum988} --h 0.5", 2, TOO_DEEP,
        id="ConfigError-too-deep-solve",
    ),
    row(
        "compare --problem {sum988} --h 0.5", 2, TOO_DEEP,
        id="ConfigError-too-deep-compare", process=True,
    ),
    row(
        "order --problem {sum988} --h 0.5,0.25", 2, TOO_DEEP,
        id="ConfigError-too-deep-order", process=True,
    ),
    row(
        "table --problem {sum988} --h 0.5", 2, TOO_DEEP,
        id="ConfigError-too-deep-table", process=True,
    ),
    row(
        "solve --problem {bad_name} --h 0.1", 2,
        "K: unknown variable 'w'; variables are x, t, u, v and constants e, pi "
        "(at offset 0)",
        id="UnknownVariable",
    ),
    row(
        "solve --problem {bad_syntax} --h 0.1", 2,
        "g: expected a number, name, '-', or '(', found 'end of input' "
        "(at offset 3)",
        id="ExpressionSyntaxError",
    ),
    row(
        "solve --problem {bad_call} --h 0.1", 2,
        "g: unknown function 'foo'; available: abs, cos, cosh, exp, log, sin, "
        "sinh, sqrt, tanh (at offset 0)",
        id="UnknownFunction",
    ),
    row(
        "table --problem {inf_exact} --h 0.1", 2,
        "exact: number '1e999' is too large (at offset 0)",
        id="ExpressionSyntaxError-infinite-number",
    ),
    row(
        "order --problem {exactcase} --h 0.25,0.125 --first-step corrected", 2,
        "error 0.0 at h = 0.25 cannot anchor a log-log fit (the scheme may be "
        "exact on this problem)",
        id="DegenerateError",
    ),
    row(
        "solve --problem example1 --h 0.1,0.05", 2,
        "this command expects exactly one --h value, got 2",
        id="ValueError-one-h",
    ),
    row(
        "compare --problem example1 --h 0.1,0.05", 2,
        "this command expects exactly one --h value, got 2",
        id="ValueError-one-h-compare",
    ),
    row(
        "order --problem example1 --h 0.1", 2,
        "order needs at least two --h values",
        id="ValueError-two-h",
    ),
    row(
        "order --problem example1 --h 0.1,0.1", 2,
        "order study needs at least two step sizes, got [0.1, 0.1]",
        id="ValueError-two-distinct-h",
    ),
    row(
        "table --problem {noexact} --h 0.1", 2,
        "problem 'noexact' has no exact solution; an error table needs one",
        id="ValueError-table-no-exact",
    ),
    row(
        "order --problem {noexact} --h 0.1,0.05", 2,
        "order study needs a problem with an exact solution",
        id="ValueError-order-no-exact",
    ),
    row(
        "compare --problem example1 --h 0.1 --max-iter 0", 2,
        "max_iter must be at least 1, got 0",
        id="ValueError-oracle-config",
    ),
    row(
        "compare --problem example1 --h 0.1 --tol inf", 2,
        "tol must be positive and finite, got inf",
        id="ValueError-oracle-tol",
    ),
    row(
        "solve --problem {dir} --h 0.1", 2,
        "[Errno 21] Is a directory: '{dir}'",
        id="OSError",
    ),
    row(
        "solve --problem example1 --h 0.1 --out {dir}/no/such/run.csv", 2,
        "cannot write '{dir}/no/such/run.csv': [Errno 2] No such file or "
        "directory: '{dir}/no/such/run.csv'",
        id="OSError-out",
    ),
    *[
        row(
            f"{command} --problem example1 --h {hs} --out {{dir}}/no/such/{command}", 2,
            f"cannot write '{{dir}}/no/such/{command}': [Errno 2] No such file or "
            f"directory: '{{dir}}/no/such/{command}'",
            id=f"OSError-out-{command}",
        )
        for command, hs in [("table", "0.1"), ("order", "0.1,0.05"), ("compare", "0.1")]
    ],
    row(
        "compare --problem {overflow} --h 1", 3,
        "non-finite value while advancing from step 2 (x = 2)",
        id="NonFiniteState",
    ),
    row(
        "solve --problem {overflow} --h 1", 3,
        "non-finite value while advancing from step 2 (x = 2)",
        id="NonFiniteState-h1",
    ),
    row(
        "compare --problem {stiff} --h 2.5", 3,
        NOT_CONVERGED.format(iterations=100),
        id="NoConvergence",
    ),
    row(
        "compare --problem {stiff400} --h 0.0078125", 3,
        NOT_CONVERGED.format(iterations=100),
        id="NoConvergence-h0.0078125",
    ),
    row(
        "compare --problem example1 --h 0.1 --max-iter 1", 3,
        NOT_CONVERGED.format(iterations=1),
        id="NoConvergence-iteration-cap",
    ),
    row(
        "solve --problem {blowup} --h 0.5", 3,
        "evaluation failed during solve at step 3 (x = 1.5): cannot evaluate "
        "'u^2.0': math range error",
        id="DomainError-solve",
    ),
    row(
        "solve --problem {blowup} --h 0.01", 3,
        "evaluation failed during solve at step 13 (x = 0.13): cannot evaluate "
        "'u^2.0': math range error",
        id="DomainError-solve-h0.01",
    ),
    row(
        "solve --problem {log_g} --h 0.1", 3, LOG_G_FAILS,
        id="DomainError-g-h0.1",
    ),
    row(
        "solve --problem {log_g} --h 0.005", 3, LOG_G_FAILS,
        id="DomainError-g-h0.005",
    ),
    row(
        "compare --problem {log_g} --h 0.1", 3, LOG_G_FAILS,
        id="DomainError-g-compare",
    ),
    row(
        "solve --problem {log_g_mid} --h 0.1", 3,
        LOG_G_MID_FAILS.format(step=4, x="0.40000000000000002"),
        id="DomainError-g-mid-h0.1",
    ),
    row(
        "solve --problem {log_g_mid} --h 0.005", 3,
        LOG_G_MID_FAILS.format(step=99, x="0.495"),
        id="DomainError-g-mid-h0.005",
    ),
    row(
        "solve --problem {k_overflow} --h 0.1", 3,
        K_OVERFLOW_FAILS.format(step=8, x="0.80000000000000004", arg="720.0"),
        id="DomainError-K-h0.1",
    ),
    row(
        "solve --problem {k_overflow} --h 0.005", 3,
        K_OVERFLOW_FAILS.format(step=177, x="0.88500000000000001", arg="712.0"),
        id="DomainError-K-h0.005",
    ),
    row(
        "solve --problem {overflow} --h 0.5", 3,
        "non-finite value while advancing from step 5 (x = 2.5)",
        id="NonFiniteState-h0.5",
    ),
    row(
        "solve --problem {overflow} --h 0.01", 3,
        "non-finite value while advancing from step 288 (x = 2.8799999999999999)",
        id="NonFiniteState-h0.01",
    ),
    row(
        "table --problem {log_exact} --h 0.1", 3, LOG_EXACT_FAILS,
        id="DomainError-exact-table",
    ),
    row(
        "order --problem {log_exact} --h 0.1,0.05", 3, LOG_EXACT_FAILS,
        id="DomainError-exact-order",
    ),
    row(
        "solve --problem {log_phi} --h 0.1", 3, LOG_PHI_FAILS,
        id="DomainError-phi-solve",
    ),
    row(
        "solve --problem {log_phi_half} --h 0.1", 3, LOG_PHI_HALF_FAILS,
        id="DomainError-phi-half-h0.1",
    ),
    row(
        "solve --problem {log_phi_half} --h 0.005", 3, LOG_PHI_HALF_FAILS,
        id="DomainError-phi-half-h0.005",
    ),
    row(
        "solve --problem {log_phi_half} --h 0.005", 3, LOG_PHI_HALF_FAILS,
        id="DomainError-phi-half-h0.005-process", process=True,
    ),
    row(
        "order --problem {log_phi_half} --h 0.1,0.05", 3, LOG_PHI_HALF_FAILS,
        id="DomainError-phi-order",
    ),
    row(
        "order --problem {log_exact_half} --h 0.1,0.05", 3, LOG_EXACT_HALF_FAILS,
        id="DomainError-exact-half-h0.1",
    ),
    row(
        "order --problem {log_exact_half} --h 0.005,0.0025", 3,
        LOG_EXACT_HALF_FAILS,
        id="DomainError-exact-half-h0.005",
    ),
]


def run_process(*argv):
    """(exit code, stdout, stderr) of `python -m vdide argv...`, importing
    the vdide this suite imports."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vdide.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "vdide", *argv],
        capture_output=True, text=True, env=env,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("command, code, message, process", FAILURES)
def test_each_failure_class_has_one_exit_code_and_message(
    capsys, tmp_path, command, code, message, process
):
    paths = {"dir": str(tmp_path), **write_failing_configs(tmp_path)}
    argv = [arg.format(**paths) for arg in command.split()]
    got = run_process(*argv) if process else run(capsys, *argv)
    assert got == (code, "", f"vdide: {message.format(**paths)}\n")


@pytest.mark.parametrize("argv", [SOLVE, ("compare", *SOLVE[1:]), ("table", "-h")], ids=" ".join)
def test_a_process_prints_what_main_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_process(*argv) == run(capsys, *argv)


# Sequences of main calls with their exit codes.  Parsers, generated loops
# and row templates outlive a call, so each sequence, run twice in one
# process, must print the same both times.
COMPARE = "compare --problem example2 --h 0.05"
SEQUENCES = {
    "solve": [("solve --problem example2 --h 0.05", 0)],
    "order-and-compare": [("order --problem example2 --h 0.1,0.05,0.025", 0), (COMPARE, 0)],
    "phi-fails-in-its-grid-loop": [("order --problem {log_phi_half} --h 0.1,0.05", 3)],
    "g-fails-in-its-tree-loop": [("compare --problem {log_g} --h 0.1", 3), (COMPARE, 0)],
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_a_repeated_sequence_of_main_calls_prints_the_same(capsys, tmp_path, name):
    paths = write_failing_configs(tmp_path)
    calls = [(command.format(**paths).split(), code) for command, code in SEQUENCES[name]]
    runs = [run(capsys, *argv) for argv, _ in calls * 2]
    assert runs[: len(calls)] == runs[len(calls) :]
    assert [code for code, _, _ in runs] == [code for _, code in calls] * 2


def write_failing_configs(tmp_path):
    """{name: path} of every FAILING_CONFIGS file, written to tmp_path."""
    paths = {}
    for name, text in FAILING_CONFIGS.items():
        paths[name] = str(tmp_path / f"{name}.cfg")
        (tmp_path / f"{name}.cfg").write_text(text)
    return paths


@pytest.mark.parametrize("mode", list(FirstStepMode))
@pytest.mark.parametrize(
    "name, h",
    [
        ("log_g", "0.1"),
        ("log_g", "0.005"),
        ("log_g_mid", "0.1"),
        ("log_g_mid", "0.005"),
        ("k_overflow", "0.1"),
        ("k_overflow", "0.005"),
        ("blowup", "0.01"),
        ("overflow", "0.01"),
    ],
)
def test_a_failing_generated_loop_prints_what_a_walking_solve_prints(
    capsys, tmp_path, monkeypatch, name, h, mode
):
    # the built problem's solve runs its tree loop, made for it from the
    # emptied cache, which fails and hands over to the call-site loop; the
    # walked problem's solve runs only the call-site loop, and makes
    # nothing, and exit code, stdout and stderr are the same
    path = write_failing_configs(tmp_path)[name]
    argv = ["solve", "--problem", path, "--h", h, "--first-step", mode.value]
    with recorded_loops() as built:
        outputs = [run(capsys, *argv)]
    assert sorted(shape[3] for shape in built.made() - {"grid"}) == ["calls", "tree"]
    walking_builds(monkeypatch)
    with recorded_loops(empty=False) as walked:
        outputs.append(run(capsys, *argv))
    assert walked.made() == set()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 3 and outputs[0][2].startswith("vdide: ")


def at_depth(frames, fn):
    """fn() called from `frames` more stack frames down."""
    return fn() if frames == 0 else at_depth(frames - 1, fn)


# Trees at the depth bound in two shapes: the "^" chain of g, which the
# parser, the one walker that takes two frames a level, reads at load, and a
# kernel sum, which x_rate walks at build, one frame a level like every
# other walker; expressions._emit walks both too, at every h, as every
# solve's tree loop writes g and K out at every call site.
# Each maps to (g, K); "0*v" is two levels deep.
DEEPEST = registry._MAX_DEPTH
AT_THE_BOUND = {
    "kernel-sum": ("u", " + ".join(["0*v"] * (DEEPEST - 1))),
    "power-chain": ("^".join(["u"] + ["1"] * (DEEPEST - 1)), "0"),
}


@pytest.mark.parametrize("shape", sorted(AT_THE_BOUND))
@pytest.mark.parametrize(
    "command, h",
    [
        ("compare", "0.1"),
        ("compare", "0.01"),
        ("order", "0.2,0.1"),
        ("order", "0.02,0.01"),
        ("table", "0.1"),
        ("table", "0.01"),
        ("solve", "0.1"),
        ("solve", "0.005"),
    ],
)
def test_trees_at_the_depth_bound_run_from_100_frames_down(
    capsys, tmp_path, shape, command, h
):
    g, K = AT_THE_BOUND[shape]
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(
        f"name = deep\ng = {g}\nK = {K}\nphi = exp(x)\nexact = exp(x)\n"
        "tau = 1\nx0 = 0\nX = 1\n"
    )
    code, out, err = at_depth(
        100, lambda: run(capsys, command, "--problem", str(cfg), "--h", h)
    )
    assert (code, err) == (0, "")
    assert out
