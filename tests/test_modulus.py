"""Modulus-of-continuity estimation against a brute-force pair oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erfapprox.corpus import INTERVAL_CORPUS, LINE_CORPUS
from erfapprox.errors import IntervalViolation, PreconditionViolated
from erfapprox.funcs import FunctionSpec
from erfapprox.modulus import ModulusQuery, evaluate_modulus, grid_modulus, omega1


def brute_force_modulus(f, delta, lo, hi, points=400):
    """O(points^2) oracle: max |f(s)-f(t)| over all grid pairs within delta."""
    xs = np.linspace(lo, hi, points)
    ys = np.asarray(f.eval(xs), dtype=float)
    best = 0.0
    for i in range(points):
        for j in range(i, points):
            if xs[j] - xs[i] > delta + 1e-15:
                break
            best = max(best, abs(ys[j] - ys[i]))
    return best


SIN = FunctionSpec("sin", lambda t: np.sin(np.asarray(t, dtype=float)), domain=(-math.pi, math.pi))
EXP = FunctionSpec("exp", lambda t: np.exp(np.asarray(t, dtype=float)), domain=(0.0, 1.0))


class TestGridEstimate:
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0])
    def test_sin_matches_oracle(self, delta):
        est = omega1(ModulusQuery(SIN, delta))
        oracle = brute_force_modulus(SIN, delta, -math.pi, math.pi)
        exact = 2.0 * math.sin(min(delta, math.pi) / 2.0)
        assert est <= exact * (1.0 + 1e-12)          # never overshoots the truth
        assert est >= oracle * (1.0 - 1e-9) - 2e-3   # and tracks the pair oracle
        assert abs(est - exact) <= 0.01 * exact + 1e-6

    def test_sin_known_value(self):
        # omega_1(sin, 0.5) = 2 sin(0.25)
        # the window never overshoots delta, so the estimate sits within
        # one grid cell's drift below the closed form
        est = omega1(ModulusQuery(SIN, 0.5))
        assert 0.0 <= 2.0 * math.sin(0.25) - est <= 1e-3

    def test_exp_known_value(self):
        # convex increasing: spread maximized on the rightmost window
        est = omega1(ModulusQuery(EXP, 0.2))
        assert abs(est - (math.e - math.exp(0.8))) <= 1e-4

    def test_never_exceeds_exact_on_corpus(self):
        for f in list(INTERVAL_CORPUS.values()) + list(LINE_CORPUS.values()):
            if f.exact_modulus is None:
                continue
            stripped = FunctionSpec(f.name, f.eval, domain=f.domain, grid_window=f.grid_window)
            for delta in (0.05, 0.3, 1.0):
                est = omega1(ModulusQuery(stripped, delta))
                assert est <= f.exact_modulus(delta) * (1.0 + 1e-9) + 1e-12
                assert est >= f.exact_modulus(delta) * 0.99 - 1e-9

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_delta(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert omega1(ModulusQuery(SIN, lo)) <= omega1(ModulusQuery(SIN, hi)) + 1e-12


class TestExactPath:
    def test_exact_used_on_declared_domain(self):
        f = INTERVAL_CORPUS["sin"]
        res = evaluate_modulus(ModulusQuery(f, 0.5))
        assert res.quality == "exact"
        assert res.value == f.exact_modulus(0.5)

    def test_whole_line_closed_form_is_exact(self):
        f = LINE_CORPUS["abs"]
        res = evaluate_modulus(ModulusQuery(f, 0.7))
        assert res.quality == "exact"

    def test_subinterval_falls_back_to_estimate(self):
        f = INTERVAL_CORPUS["sin"]
        res = evaluate_modulus(ModulusQuery(f, 0.5, interval=(0.0, 1.0)))
        assert res.quality == "estimated"
        assert res.refinement_gap is not None


class TestRefinement:
    @pytest.mark.parametrize("grid_points", [2, 17, 64, 513])
    def test_one_evaluation_gives_both_passes(self, grid_points):
        calls = []

        def counted(t):
            calls.append(np.size(t))
            return SIN.eval(t)

        f = FunctionSpec("sin", counted, domain=SIN.domain)
        res = evaluate_modulus(ModulusQuery(f, 0.3, grid_points=grid_points))
        assert calls == [2 * grid_points - 1]

        def pass_on(points):
            xs = np.linspace(-math.pi, math.pi, points)
            return grid_modulus(xs, SIN.eval(xs), 0.3)

        coarse, fine = pass_on(grid_points), pass_on(2 * grid_points - 1)
        assert res.value == max(coarse, fine)
        assert res.refinement_gap == abs(fine - coarse)


class TestValidation:
    def test_rejects_nonpositive_delta(self):
        with pytest.raises(PreconditionViolated):
            ModulusQuery(SIN, 0.0)

    def test_rejects_interval_outside_domain(self):
        with pytest.raises(IntervalViolation):
            ModulusQuery(EXP, 0.1, interval=(-1.0, 0.5))

    def test_rejects_tiny_grid(self):
        with pytest.raises(PreconditionViolated):
            ModulusQuery(SIN, 0.1, grid_points=1)
