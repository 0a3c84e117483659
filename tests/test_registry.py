import math

import pytest

from vdide import FirstStepMode, build_grid, builtin_problem, parse_config_text, solve
from vdide.errors import ConfigError
from vdide.expressions import UnknownVariable
from vdide.registry import builtin_names, load_config, resolve_problem


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ("example1", "example2")

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_problem("example3")

    def test_example1_compiles_to_expected_functions(self):
        problem = builtin_problem("example1").build()
        assert problem.g(0.0, 1.0) == 1.0
        assert problem.kernel(0.3, 0.2, 7.5) == 7.5
        assert problem.history(-1.0) == math.exp(-1.0)
        assert problem.history(0.0) == 1.0
        assert problem.exact(1.0) == math.e
        assert problem.tau == 1.0
        assert problem.x0 == 0.0
        assert problem.x_end == 1.0

    @pytest.mark.parametrize(
        "kernel, rate",
        [
            # ids keep the form kernel-"ignores x"
            pytest.param(kernel, rate, id=f"{kernel}-{rate == 0.0}")
            for kernel, rate in [
                ("v", 0.0),
                ("v^2", 0.0),
                ("t*v + exp(-t)", 0.0),
                ("0.3*exp(t - x)*v^2", -1.0),
                ("exp(-(x - t))*v", -1.0),
                ("exp(-2*(x - t))*v", -2.0),
                ("exp(0.5*t - x/4)*cos(v)", -0.25),
                ("x*v", None),
                ("cos(x - x) + v", None),
                ("exp(x - t)*v", None),
                ("v/exp(x - t)", None),
                ("sin(x - t)*v", None),
                ("exp(t*x)*v", None),
                ("exp(t - x)*v + 1", None),
            ]
        ],
    )
    def test_build_flags_kernels_that_do_not_mention_x(self, kernel, rate):
        config = parse_config_text(
            f"name = k\ng = -u\nK = {kernel}\nphi = 1\ntau = 0.5\nx0 = 0\nX = 1\n"
        )
        assert config.build().kernel_x_rate == rate

    @pytest.mark.parametrize(
        "kernel, x_end, rate",
        [
            ("exp(1e308*(t - x))*v", 1.0, -1e308),
            ("exp(1e308*(t - x))*v", 2.0, None),
            # the final slope -1e307 is finite, the inner product's is not
            ("exp((1e308*(t - x))/10)*v", 1.0, -1e308 / 10),
            ("exp((1e308*(t - x))/10)*v", 2.0, None),
        ],
    )
    def test_no_rate_when_an_x_term_can_overflow_on_the_interval(
        self, kernel, x_end, rate
    ):
        # |slope| * (X - x0) must be finite for every subtree in x of an exp
        # argument, so that no skipped sample overflows where the diagonal
        # does not
        config = parse_config_text(
            f"name = k\ng = -u\nK = {kernel}\nphi = 1\ntau = 0.5\nx0 = 0\n"
            f"X = {x_end}\n"
        )
        assert config.build().kernel_x_rate == rate

    def test_example2_starts_at_e(self):
        problem = builtin_problem("example2").build()
        # the initial value comes from the shifted exponential history
        assert problem.initial_value == math.e
        assert problem.history(-1.0) == 1.0
        assert problem.kernel(0.0, 0.0, 3.0) == 9.0
        assert problem.g(0.0, 2.0) == 2.0
        assert problem.exact(0.0) == math.e

    def test_exact_solutions_satisfy_their_problems(self):
        # spot-check u' = g + integral of K at a few x by central differences
        for name in builtin_names():
            problem = builtin_problem(name).build()
            exact = problem.exact
            for x in (0.2, 0.5, 0.8):
                d = 1e-6
                lhs = (exact(x + d) - exact(x - d)) / (2 * d)
                n = 2000
                grid_h = x / n
                acc = 0.5 * (
                    problem.kernel(x, 0.0, exact(0.0 - 1.0))
                    + problem.kernel(x, x, exact(x - 1.0))
                )
                for i in range(1, n):
                    t = i * grid_h
                    acc += problem.kernel(x, t, exact(t - 1.0))
                rhs = problem.g(x, exact(x)) + grid_h * acc
                assert lhs == pytest.approx(rhs, rel=1e-5)


class TestConfigText:
    def test_round_trip_solves_identically(self):
        for name in builtin_names():
            config = builtin_problem(name)
            reparsed = parse_config_text(config.to_text())
            assert reparsed == config
            grid = build_grid(config.x0, config.X, config.tau, 0.1)
            a = solve(config.build(), grid, FirstStepMode.LITERAL)
            b = solve(reparsed.build(), grid, FirstStepMode.LITERAL)
            assert a.values == b.values

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text(
            """
            # delayed logistic-style toy
            name = toy

            g = -u
            K = v
            phi = 1
            tau = 0.5
            x0 = 0
            X = 2
            """
        )
        assert config.name == "toy"
        assert config.exact is None
        assert config.tau == 0.5

    def test_missing_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text("name = a\ng = u\nK = v\nphi = 1\ntau = 1\nx0 = 0")
        assert "X" in str(info.value)

    def test_unknown_key(self):
        text = "name = a\ng = u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1\nfoo = 2"
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert "foo" in str(info.value)

    def test_duplicate_key(self):
        text = "name = a\ng = u\ng = 2*u\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_bad_number(self):
        text = "name = a\ng = u\nK = v\nphi = 1\ntau = one\nx0 = 0\nX = 1"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("name a")

    def test_empty_value(self):
        text = "name = a\ng =\nK = v\nphi = 1\ntau = 1\nx0 = 0\nX = 1"
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_bad_expression_surfaces_its_own_error(self):
        text = "name = a\ng = u\nK = w^2\nphi = 1\ntau = 1\nx0 = 0\nX = 1"
        with pytest.raises(UnknownVariable) as info:
            parse_config_text(text)
        assert "w" in str(info.value)

    @pytest.mark.parametrize(
        "slot,expr",
        [
            ("g", "x + v"),
            ("g", "t"),
            ("K", "u"),
            ("phi", "t + x"),
            ("exact", "u"),
        ],
    )
    def test_slot_variable_restrictions(self, slot, expr):
        fields = {
            "name": "a",
            "g": "u",
            "K": "v",
            "phi": "1",
            "exact": "1",
            "tau": "1",
            "x0": "0",
            "X": "1",
        }
        fields[slot] = expr
        text = "\n".join(f"{k} = {v}" for k, v in fields.items())
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert slot in str(info.value)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "toy.cfg"
        path.write_text(builtin_problem("example1").to_text())
        config = load_config(str(path))
        assert config == builtin_problem("example1")

    def test_resolve_prefers_registry_then_path(self, tmp_path):
        assert resolve_problem("example2") == builtin_problem("example2")
        path = tmp_path / "other.cfg"
        path.write_text(builtin_problem("example2").to_text())
        assert resolve_problem(str(path)) == builtin_problem("example2")
        with pytest.raises(ConfigError):
            resolve_problem("no-such-problem")
