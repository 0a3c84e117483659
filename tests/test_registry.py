import math

import pytest

from vdide import FirstStepMode, build_grid, builtin_problem, parse_config_text, solve
from vdide import registry
from vdide.cli import main
from vdide.errors import ConfigError
from vdide.expressions import ExpressionSyntaxError, UnknownFunction, UnknownVariable
from vdide.registry import ProblemConfig, builtin_names, load_config, resolve_problem


def config_text(**changes):
    fields = {
        "name": "a",
        "g": "-u",
        "K": "v",
        "phi": "1",
        "exact": "1",
        "tau": "1",
        "x0": "0",
        "X": "1",
    }
    fields.update(changes)
    return "".join(f"{k} = {v}\n" for k, v in fields.items())


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
                ("-v", 0.0),
                ("v^2", 0.0),
                ("t*v + exp(-t)", 0.0),
                ("0.3*exp(t - x)*v^2", -1.0),
                ("-0.3*exp(t - x)*v^2", -1.0),
                ("exp(-(x - t))*v", -1.0),
                ("exp(-2*(x - t))*v", -2.0),
                ("-(exp(-2*(x - t))*v)", -2.0),
                ("exp(0.5*t - x/4)*cos(v)", -0.25),
                ("x*v", None),
                ("cos(x - x) + v", None),
                ("exp(x - t)*v", None),
                ("v/exp(x - t)", None),
                ("v/exp(t - x)", None),
                ("sin(x - t)*v", None),
                ("exp(t*x)*v", None),
                ("exp(-x*x)*v", None),
                ("exp(-(x^2))*v", None),
                ("exp(-1/x)*v", None),
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
        # the parser's message and offset, named by the slot
        assert str(info.value) == (
            "K: unknown variable 'w'; variables are x, t, u, v and constants "
            "e, pi (at offset 0)"
        )
        assert info.value.offset == 0

    @pytest.mark.parametrize(
        "slot,expr,error,message,offset",
        [
            (
                "g", "u +", ExpressionSyntaxError,
                "expected a number, name, '-', or '(', found 'end of input'", 3,
            ),
            (
                "K", "foo(v)", UnknownFunction,
                "unknown function 'foo'; available: abs, cos, cosh, exp, log, "
                "sin, sinh, sqrt, tanh", 0,
            ),
            ("phi", "1 $", ExpressionSyntaxError, "unexpected character '$'", 2),
            ("exact", "1e999", ExpressionSyntaxError, "number '1e999' is too large", 0),
        ],
        ids=["g", "K", "phi", "exact"],
    )
    def test_a_parse_error_is_named_by_its_slot(self, slot, expr, error, message, offset):
        # the class and offset stay the parser's; only the slot is prefixed
        with pytest.raises(error) as info:
            parse_config_text(config_text(**{slot: expr}))
        assert str(info.value) == f"{slot}: {message} (at offset {offset})"
        assert info.value.offset == offset

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


# (config changes, the ConfigError message) for numbers rejected at load.
BAD_NUMBERS = [
    ({"tau": "0"}, "tau must be positive, got 0.0"),
    ({"tau": "-0.5"}, "tau must be positive, got -0.5"),
    ({"tau": "nan"}, "key 'tau' must be finite, got 'nan'"),
    ({"tau": "inf"}, "key 'tau' must be finite, got 'inf'"),
    ({"x0": "nan"}, "key 'x0' must be finite, got 'nan'"),
    ({"x0": "-inf"}, "key 'x0' must be finite, got '-inf'"),
    ({"X": "inf"}, "key 'X' must be finite, got 'inf'"),
    ({"X": "NaN"}, "key 'X' must be finite, got 'NaN'"),
    ({"x0": "1"}, "X must exceed x0, got x0 = 1.0, X = 1.0"),
    ({"x0": "2"}, "X must exceed x0, got x0 = 2.0, X = 1.0"),
    (
        {"x0": "-1e308", "X": "1e308"},
        "X - x0 must be finite, got x0 = -1e+308, X = 1e+308",
    ),
]

NUMBER_IDS = [",".join(f"{k}={v}" for k, v in c.items()) for c, _ in BAD_NUMBERS]


# A left-associative sum is a tree as deep as it is long.
DEEP_G = " + ".join(["u"] * 1500)


class TestLoadTimeChecks:
    @pytest.mark.parametrize("changes, message", BAD_NUMBERS, ids=NUMBER_IDS)
    def test_bad_numbers_are_config_errors(self, changes, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(config_text(**changes))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "slot, text",
        [("g", DEEP_G), ("phi", "(" * 300 + "x" + ")" * 300)],
        ids=["g-long-sum", "phi-nested-parentheses"],
    )
    def test_an_expression_too_deep_to_load_is_a_config_error(self, slot, text):
        with pytest.raises(ConfigError) as info:
            parse_config_text(config_text(**{slot: text}))
        assert str(info.value) == (
            f"{slot}: the expression nests too deeply to load "
            f"({len(text)} characters)"
        )

    @pytest.mark.parametrize(
        "slot, head, head_levels, leaf, join",
        [
            ("g", "u", 1, "u", " + "),
            ("K", "v", 1, "v", "^"),
            ("phi", "x", 1, "x", "*"),
            ("exact", "-x", 2, "-x", " - "),
            ("g", "abs(u)", 2, "u", " + "),
        ],
        ids=["sum", "power-chain", "product", "negations", "call-at-the-bottom"],
    )
    def test_the_depth_bound_admits_trees_up_to_its_depth(
        self, slot, head, head_levels, leaf, join
    ):
        # head then n - 1 leaves is n - 1 + head_levels levels deep, the
        # deepest path ending in the head; 400 is the documented bound
        n = 400 + 1 - head_levels
        parse_config_text(config_text(**{slot: join.join([head] + [leaf] * (n - 1))}))
        deeper = join.join([head] + [leaf] * n)
        with pytest.raises(ConfigError) as info:
            parse_config_text(config_text(**{slot: deeper}))
        assert str(info.value) == (
            f"{slot}: the expression nests too deeply to load "
            f"({len(deeper)} characters)"
        )

    @pytest.mark.parametrize(
        "bottom, bottom_levels", [("v", 1), ("exp(v)", 2)], ids=["v", "call"]
    )
    def test_the_depth_bound_counts_unary_minus_and_calls(
        self, bottom, bottom_levels
    ):
        # n minus signs before bottom are n + bottom_levels levels deep, so
        # the walk runs out of levels under a unary minus, or under exp
        n = 400 - bottom_levels
        parse_config_text(config_text(K="-" * n + bottom))
        deeper = "-" * (n + 1) + bottom
        with pytest.raises(ConfigError) as info:
            parse_config_text(config_text(K=deeper))
        assert str(info.value) == (
            f"K: the expression nests too deeply to load ({len(deeper)} characters)"
        )

    def test_a_600_term_kernel_is_a_config_error_at_load(self):
        # x_rate walks a sum one frame per level, as every walker but the
        # parser's on a "^" chain does; the depth bound keeps every walker
        # after load inside the recursion limit
        kernel = " + ".join(["v"] * 600)
        with pytest.raises(ConfigError) as info:
            parse_config_text(config_text(K=kernel))
        assert str(info.value) == (
            f"K: the expression nests too deeply to load ({len(kernel)} characters)"
        )


class TestParsedOnce:
    def counted(self, monkeypatch):
        """Count ProblemConfig.build calls and registry.parse calls per text."""
        builds, parses = [], []
        parse, build = registry.parse, ProblemConfig.build

        def counting_parse(text):
            parses.append(text)
            return parse(text)

        def counting_build(config):
            builds.append(config.name)
            return build(config)

        monkeypatch.setattr(registry, "parse", counting_parse)
        monkeypatch.setattr(ProblemConfig, "build", counting_build)
        return builds, parses

    def test_load_and_build_parse_each_slot_once(self, monkeypatch):
        builds, parses = self.counted(monkeypatch)
        problem = parse_config_text(config_text(g="-u + x", K="v^2")).build()
        assert problem.g(1.0, 2.0) == -1.0
        assert builds == ["a"]
        assert parses == ["-u + x", "v^2", "1", "1"]

    def test_solve_from_a_file_parses_each_slot_once(
        self, capsys, monkeypatch, tmp_path
    ):
        path = tmp_path / "toy.cfg"
        path.write_text(config_text(g="-u + x", K="v^2", exact="exp(x)"))
        builds, parses = self.counted(monkeypatch)
        assert main(["solve", "--problem", str(path), "--h", "0.5"]) == 0
        assert capsys.readouterr().err == ""
        assert builds == ["a"]
        assert parses == ["-u + x", "v^2", "1", "exp(x)"]

    def test_a_config_built_twice_parses_once(self, monkeypatch):
        config = ProblemConfig(
            name="b", g="-u", K="v", phi="x", tau=1.0, x0=0.0, X=1.0
        )
        builds, parses = self.counted(monkeypatch)
        config.build()
        config.build()
        assert builds == ["b", "b"]
        assert parses == ["-u", "v", "x"]
