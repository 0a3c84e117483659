"""Acceptance suite: one test per shipping criterion.

Each test prints a single `[acceptance] <name>: PASS|FAIL` line (visible with
pytest -s, or in the captured-output section on failure) and then asserts.
Reference error values and tolerances live in helpers.REFERENCE_ERRORS.
"""

import random
import time

from helpers import (
    DOMAIN_ERROR_CASES,
    EVAL_CASES,
    PARSE_ERROR_CASES,
    REFERENCE_ERRORS,
    ROUND_TRIP_ONLY,
    SAMPLE_XS,
    dgj_solve,
    plain_problem,
    random_smooth_problem,
    replay,
)
from vdide import (
    FirstStepMode,
    build_grid,
    builtin_problem,
    error_table,
    order_study,
    solve,
    solve_implicit,
    step_residual,
)
from vdide.expressions import DomainError, evaluate, parse, unparse
from vdide.oracle import implicit_step
from vdide.problem import init_trajectory
from vdide.stepper import nnm_step, predictor

TABLE_H_VALUES = (0.01, 0.02, 0.1)
ORDER_H_VALUES = (0.1, 0.05, 0.025, 0.0125)
LOCAL_H_VALUES = (0.1, 0.05, 0.025)


def conclude(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail or 'criterion not met'}"


def reproduce_reference_table(name: str):
    """Check every printed error for one problem, in either first-step mode."""
    problem = builtin_problem(name).build()
    reference = REFERENCE_ERRORS[name]
    start = time.perf_counter()
    computed = {}
    for mode in FirstStepMode:
        for h in TABLE_H_VALUES:
            grid = build_grid(0.0, 1.0, 1.0, h)
            traj = solve(problem, grid, mode)
            table = error_table(traj, problem.exact, SAMPLE_XS)
            computed[(mode, h)] = [err for _, err in table.rows]
    elapsed = time.perf_counter() - start

    failures = []
    for h in TABLE_H_VALUES:
        for i, x in enumerate(SAMPLE_XS):
            expected = reference[h][i]
            deviations = [
                abs(computed[(mode, h)][i] / expected - 1.0)
                for mode in FirstStepMode
            ]
            if min(deviations) > 0.10:
                failures.append((h, x, expected, min(deviations)))
    return failures, elapsed


def test_reference_errors_example1():
    failures, elapsed = reproduce_reference_table("example1")
    ok = not failures and elapsed < 1.0
    detail = f"failures={failures[:3]} elapsed={elapsed:.3f}s"
    conclude("reference-errors-example1 (30 entries, +-10%, <1s)", ok, detail)


def test_reference_errors_example2():
    failures, elapsed = reproduce_reference_table("example2")
    ok = not failures and elapsed < 1.0
    detail = f"failures={failures[:3]} elapsed={elapsed:.3f}s"
    conclude("reference-errors-example2 (30 entries, +-10%, <1s)", ok, detail)


def test_global_convergence_order():
    slopes = {}
    for name in ("example1", "example2"):
        problem = builtin_problem(name).build()
        estimate = order_study(problem, FirstStepMode.LITERAL, ORDER_H_VALUES)
        slopes[name] = estimate.slope
    ok = all(1.8 <= s <= 2.2 for s in slopes.values())
    conclude("global-order (fitted slope in [1.8, 2.2])", ok, f"slopes={slopes}")


def test_local_closure_scaling():
    problem = builtin_problem("example2").build()
    diffs = {}
    for h in LOCAL_H_VALUES:
        grid = build_grid(0.0, 1.0, 1.0, h)
        j_star = round(0.5 / h)
        traj = replay(nnm_step, problem, grid, FirstStepMode.LITERAL, stop=j_star)
        diffs[h] = abs(
            nnm_step(problem, traj, j_star) - implicit_step(problem, traj, j_star)
        )
    ratios = [diffs[0.1] / diffs[0.05], diffs[0.05] / diffs[0.025]]
    ok = all(6.5 <= r <= 9.5 for r in ratios)
    conclude(
        "local-closure-scaling (single-step ratios in [6.5, 9.5])",
        ok,
        f"ratios={ratios}",
    )


def test_dgj_step_equivalence():
    rng = random.Random(91217)
    checks = 0
    worst = 0.0
    ok = True
    for trial in range(12):
        problem = random_smooth_problem(rng)
        mode = FirstStepMode.LITERAL if trial % 2 else FirstStepMode.CORRECTED
        grid = build_grid(0.0, 1.0, 0.5, 0.1)
        traj = init_trajectory(problem, grid, mode)
        for j in range(grid.steps):
            x_next = grid.point(j + 1)
            series = dgj_solve(
                predictor(problem, traj, j),
                lambda w, x=x_next: 0.5 * grid.h * problem.g(x, w),
                3,
            )
            stepped = nnm_step(problem, traj, j)
            gap = abs(series - stepped) / max(abs(stepped), 1e-1)
            worst = max(worst, gap)
            ok = ok and gap <= 1e-12
            traj.append(stepped)
            checks += 1
    ok = ok and checks >= 100
    conclude(
        "dgj-step-equivalence (>=100 random steps, 1e-12 relative)",
        ok,
        f"checks={checks} worst={worst:.3e}",
    )


def test_quadrature_exactness():
    problem = plain_problem(kernel=lambda x, t, v: 1.0)
    worst = 0.0
    for h in (0.1, 0.05):
        grid = build_grid(0.0, 1.0, 1.0, h)
        traj = solve(problem, grid, FirstStepMode.CORRECTED)
        for j in range(1, grid.steps + 1):
            x = grid.point(j)
            worst = max(worst, abs(traj.value(j) - x * x / 2) / (x * x / 2))
    ok = worst <= 1e-12
    conclude(
        "quadrature-exactness (u_j = x_j^2/2 to 1e-12 relative)",
        ok,
        f"worst={worst:.3e}",
    )


def test_oracle_residuals():
    worst = 0.0
    for name in ("example1", "example2"):
        problem = builtin_problem(name).build()
        for h in (0.1, 0.05):
            grid = build_grid(0.0, 1.0, 1.0, h)
            traj = solve_implicit(problem, grid, FirstStepMode.LITERAL)
            for j in range(grid.steps):
                worst = max(worst, step_residual(problem, traj, j))
    residuals_ok = worst <= 1e-13

    linear = plain_problem(g=lambda x, u: u, history=lambda x: 1.0)
    grid = build_grid(0.0, 1.0, 1.0, 0.1)
    traj = init_trajectory(linear, grid)
    m1 = predictor(linear, traj, 0)
    closed_form = m1 / (1 - 0.05)
    u = implicit_step(linear, traj, 0)
    linear_ok = abs(u - closed_form) <= 1e-12

    ok = residuals_ok and linear_ok
    conclude(
        "oracle-residuals (<=1e-13; linear closed form to 1e-12)",
        ok,
        f"worst_residual={worst:.3e} linear_gap={abs(u - closed_form):.3e}",
    )


def test_expression_corpus():
    builtins_strings = set()
    for name in ("example1", "example2"):
        config = builtin_problem(name)
        builtins_strings.update({config.g, config.K, config.phi})

    valid_texts = [text for text, _, _ in EVAL_CASES] + ROUND_TRIP_ONLY
    corpus_size = len(valid_texts) + len(PARSE_ERROR_CASES) + len(DOMAIN_ERROR_CASES)

    covers_builtins = builtins_strings <= set(valid_texts)

    eval_ok = all(
        evaluate(parse(text), bindings) == expected
        for text, bindings, expected in EVAL_CASES
    )
    round_trip_ok = all(parse(unparse(parse(t))) == parse(t) for t in valid_texts)

    errors_ok = True
    for text, exc_type in PARSE_ERROR_CASES:
        try:
            parse(text)
            errors_ok = False
        except exc_type:
            pass
        except Exception:
            errors_ok = False
    for text, bindings in DOMAIN_ERROR_CASES:
        try:
            evaluate(parse(text), bindings)
            errors_ok = False
        except DomainError:
            pass
        except Exception:
            errors_ok = False

    ok = (
        corpus_size >= 50
        and covers_builtins
        and eval_ok
        and round_trip_ok
        and errors_ok
    )
    conclude(
        "expression-corpus (>=50 cases incl. built-in strings)",
        ok,
        f"size={corpus_size} builtins_covered={covers_builtins} "
        f"eval={eval_ok} round_trip={round_trip_ok} errors={errors_ok}",
    )
