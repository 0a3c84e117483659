import math
import re

import pytest

from vdide import FirstStepMode, build_grid, builtin_problem, solve, solve_implicit
from vdide.cli import main
from vdide.registry import resolve_problem


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
    def test_csv_shape_and_values(self, capsys):
        code, out, err = run(
            capsys, "solve", "--problem", "example1", "--h", "0.1"
        )
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["x", "u"]
        assert len(rows) == 11
        assert rows[0] == [0.0, 1.0]
        # final value near e, within the known coarse-grid error
        assert abs(rows[-1][1] - math.e) < 5e-3

    def test_seventeen_digit_round_trip(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "example2", "--h", "0.1")
        assert code == 0
        _, rows = parse_csv(out)
        problem = builtin_problem("example2").build()
        grid = build_grid(0.0, 1.0, 1.0, 0.1)
        traj = solve(problem, grid, FirstStepMode.LITERAL)
        for (x, u), j in zip(rows, range(11)):
            assert u == traj.value(j)  # printed text preserves the exact float

    def test_first_step_flag_changes_the_result(self, capsys):
        _, lit, _ = run(capsys, "solve", "--problem", "example1", "--h", "0.1")
        _, cor, _ = run(
            capsys,
            "solve",
            "--problem",
            "example1",
            "--h",
            "0.1",
            "--first-step",
            "corrected",
        )
        assert lit != cor

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "solve", "--problem", "example2", "--h", "0.05")
        _, second, _ = run(capsys, "solve", "--problem", "example2", "--h", "0.05")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, err = run(
            capsys,
            "solve", "--problem", "example1", "--h", "0.1", "--out", str(target),
        )
        assert code == 0 and out == "" and err == ""
        assert target.read_text().startswith("x,u\n")

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "run.csv"
        code, _, err = run(
            capsys,
            "solve", "--problem", "example1", "--h", "0.1", "--out", str(target),
        )
        assert code == 2
        assert "cannot write" in err

    def test_incommensurate_h_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "example1", "--h", "0.3")
        assert code == 2
        assert "whole number of steps" in err

    def test_multiple_h_rejected(self, capsys):
        code, _, err = run(
            capsys, "solve", "--problem", "example1", "--h", "0.1,0.05"
        )
        assert code == 2
        assert "exactly one" in err

    def test_unknown_problem(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "nope", "--h", "0.1")
        assert code == 2
        assert "nope" in err

    def test_bad_config_expression(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "name = bad\ng = u\nK = w^2\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
        )
        code, _, err = run(capsys, "solve", "--problem", str(cfg), "--h", "0.1")
        assert code == 2
        assert "w" in err

    def test_blow_up_is_a_numerical_error(self, capsys, tmp_path):
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text(
            "name = blowup\ng = u^2\nK = 0\nphi = 10\ntau = 0.5\nx0 = 0\nX = 5\n"
        )
        code, _, err = run(capsys, "solve", "--problem", str(cfg), "--h", "0.5")
        assert code == 3
        # u^2 overflows in g(x_4, M1) while advancing from step 3
        assert "evaluation failed during solve at step 3: " in err

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "solve", "--problem", "example1", "--h", "abc")
        assert code == 2


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

    def test_points_override(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--problem", "example1", "--h", "0.1", "--points", "0.5,1.0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [0.5, 1.0]

    def test_off_grid_point_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "table", "--problem", "example1", "--h", "0.1", "--points", "0.15",
        )
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("point", ["2.0", "-0.5"])
    def test_point_outside_the_interval_is_a_usage_error(self, capsys, point):
        # 2.0 lies past X = 1, -0.5 in the history segment
        code, out, err = run(
            capsys,
            "table", "--problem", "example1", "--h", "0.1", "--points", point,
        )
        assert code == 2 and out == ""
        assert "[0.0, 1.0]" in err

    def test_problem_without_exact_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "noexact.cfg"
        cfg.write_text(
            "name = noexact\ng = -u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
        )
        code, _, err = run(capsys, "table", "--problem", str(cfg), "--h", "0.1")
        assert code == 2
        assert "exact" in err


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

    def test_single_h_rejected(self, capsys):
        code, _, err = run(capsys, "order", "--problem", "example1", "--h", "0.1")
        assert code == 2
        assert "two" in err

    def test_no_exact_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "noexact.cfg"
        cfg.write_text(
            "name = noexact\ng = -u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\n"
        )
        code, _, err = run(capsys, "order", "--problem", str(cfg), "--h", "0.1,0.05")
        assert code == 2

    def test_exactness_case_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "exactcase.cfg"
        cfg.write_text(
            "name = exactcase\ng = 0\nK = 1\nphi = 0\n"
            "exact = x^2/2\ntau = 1\nx0 = 0\nX = 1\n"
        )
        code, _, err = run(
            capsys,
            "order", "--problem", str(cfg), "--h", "0.25,0.125",
            "--first-step", "corrected",
        )
        assert code == 2
        assert "exact" in err.lower()


class TestCompare:
    def test_columns_and_summary(self, capsys):
        code, out, err = run(
            capsys, "compare", "--problem", "example1", "--h", "0.1"
        )
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["x", "u_nnm", "u_implicit", "diff"]
        assert len(rows) == 11
        for x, a, b, d in rows:
            assert d == a - b
        summary = [ln for ln in out.splitlines() if ln.startswith("# max_abs_diff")]
        assert len(summary) == 1
        reported = float(summary[0].split(":")[1])
        assert reported == max(abs(r[3]) for r in rows)
        assert reported < 1e-2

    def test_closure_gap_shrinks_with_h(self, capsys):
        gaps = {}
        for h in ("0.1", "0.05"):
            _, out, _ = run(capsys, "compare", "--problem", "example1", "--h", h)
            summary = [ln for ln in out.splitlines() if ln.startswith("#")][0]
            gaps[h] = float(summary.split(":")[1])
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

    def test_stalled_iteration_is_a_numerical_error(self, capsys, tmp_path):
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(
            "name = stiff\ng = u\nK = 0\nphi = 1\ntau = 2.5\nx0 = 0\nX = 2.5\n"
        )
        code, _, err = run(capsys, "compare", "--problem", str(cfg), "--h", "2.5")
        assert code == 3
        assert "iteration" in err

    def test_iteration_cap_starves_convergence(self, capsys):
        # one sweep cannot meet a 1e-13 tolerance on a problem with g != 0
        code, _, err = run(
            capsys,
            "compare", "--problem", "example1", "--h", "0.1", "--max-iter", "1",
        )
        assert code == 3
        assert "iteration" in err

    def test_bad_iteration_cap_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "compare", "--problem", "example1", "--h", "0.1", "--max-iter", "0",
        )
        assert code == 2
        assert "max_iter" in err


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

    @pytest.mark.parametrize("mode", list(FirstStepMode))
    def test_solve(self, capsys, ref, mode):
        problem = resolve_problem(ref).build()
        grid = build_grid(problem.x0, problem.x_end, problem.tau, 0.05)
        code, out, err = run(
            capsys,
            "solve", "--problem", ref, "--h", "0.05", "--first-step", mode.value,
        )
        assert code == 0 and err == ""
        assert out == expected_solve_csv(solve(problem, grid, mode))

    @pytest.mark.parametrize("mode", list(FirstStepMode))
    def test_compare(self, capsys, ref, mode):
        problem = resolve_problem(ref).build()
        grid = build_grid(problem.x0, problem.x_end, problem.tau, 0.05)
        code, out, err = run(
            capsys,
            "compare", "--problem", ref, "--h", "0.05", "--first-step", mode.value,
        )
        assert code == 0 and err == ""
        want = expected_compare_csv(
            solve(problem, grid, mode), solve_implicit(problem, grid, mode)
        )
        assert out == want

