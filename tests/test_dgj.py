import math
import random

import pytest

from helpers import dgj_solve, dgj_terms


def zero(_: float) -> float:
    return 0.0


class TestTermGeneration:
    def test_seed_only_when_operators_vanish(self):
        state = dgj_terms(7.0, zero, 3)
        assert state.terms == (7.0, 0.0, 0.0)
        assert state.partial_sums == (7.0, 7.0, 7.0)

    def test_halving_nonlinear_term(self):
        state = dgj_terms(1.0, lambda u: u / 2, 3)
        assert state.terms == (1.0, 0.5, 0.25)
        assert state.partial_sums == (1.0, 1.5, 1.75)
        assert dgj_solve(1.0, lambda u: u / 2, 3) == 1.75

    def test_single_term_is_the_seed(self):
        assert dgj_solve(-2.5, math.sin, 1) == -2.5
        state = dgj_terms(-2.5, math.sin, 1)
        assert state.terms == (-2.5,)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            dgj_terms(1.0, zero, 0)
        with pytest.raises(ValueError):
            dgj_solve(1.0, zero, -1)

    def test_partial_sums_are_prefix_sums(self):
        rng = random.Random(7)
        for _ in range(10):
            c = rng.uniform(-0.9, 0.9)
            g0 = rng.uniform(-2.0, 2.0)
            state = dgj_terms(g0, lambda u, c=c: c * math.sin(u), 6)
            acc = 0.0
            for term, partial in zip(state.terms, state.partial_sums):
                acc += term
                assert partial == acc


class TestSeriesIdentities:
    def test_linear_nonlinearity_reduces_to_term_recursion(self):
        # when N is linear, N(s_m) - N(s_{m-1}) collapses to N(u_m); |c|
        # stays away from 0 so the terms do not decay into roundoff, where a
        # relative comparison is meaningless
        rng = random.Random(11)
        for _ in range(10):
            c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 0.8)
            state = dgj_terms(rng.uniform(0.5, 2.0), lambda u, c=c: c * u, 8)
            for m in range(1, 7):
                expected = c * state.terms[m]
                assert state.terms[m + 1] == pytest.approx(expected, rel=1e-12)

    def test_terms_telescope_without_linear_part(self):
        # the k-term sum is exactly g0 + N(s_{k-2})
        rng = random.Random(13)
        for _ in range(10):
            a = rng.uniform(-0.7, 0.7)
            g0 = rng.uniform(-1.5, 1.5)

            def nonlinear(u, a=a):
                return a * math.cos(u) + 0.2 * u

            for k in range(2, 7):
                state = dgj_terms(g0, nonlinear, k)
                expected = g0 + nonlinear(state.partial_sums[k - 2])
                assert dgj_solve(g0, nonlinear, k) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12
                )

    def test_contraction_converges_to_closed_form(self):
        for c in (0.4, -0.45, 0.25):
            for g0 in (2.0, -1.0, 0.5):
                assert dgj_solve(g0, lambda u, c=c: c * u, 20) == pytest.approx(g0 / (1 - c), rel=1e-6)

    def test_three_terms_equal_two_corrector_substitutions(self):
        # the k=3 sum of u = m1 + (h/2) g(x, u) is m1 + (h/2) g(x, m2) with
        # m2 = m1 + (h/2) g(x, m1)
        rng = random.Random(17)
        for _ in range(10):
            h = rng.choice([0.1, 0.05, 0.2])
            x1 = rng.uniform(0.0, 1.0)
            m1 = rng.uniform(-2.0, 2.0)

            def g(x, u):
                return math.sin(u) + 0.5 * u * math.cos(x)

            m2 = m1 + 0.5 * h * g(x1, m1)
            expected = m1 + 0.5 * h * g(x1, m2)
            assert dgj_solve(m1, lambda u: 0.5 * h * g(x1, u), 3) == pytest.approx(expected, rel=1e-12, abs=1e-13)
