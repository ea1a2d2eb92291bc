"""Modulus-of-continuity estimation against a brute-force pair oracle."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

import erfapprox
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


def window_spread(ys, size):
    """Largest max - min over the windows of size consecutive samples (all
    of ys when size exceeds it), from an explicit window view."""
    windows = sliding_window_view(ys, min(size, len(ys)))
    return np.max(windows.max(axis=1) - windows.min(axis=1))


# finite values with many ties, and the infinities
SAMPLES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]),
                    st.floats(allow_nan=False, allow_infinity=False))


class TestSlidingWindowKernel:
    @given(hnp.arrays(np.float64, st.integers(2, 600), elements=SAMPLES),
           st.integers(2, 700))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf, overflow
    def test_matches_window_view(self, ys, size):
        # unit step, so delta = size - 1/2 asks for windows of size samples
        got = grid_modulus(np.array([0.0, len(ys) - 1.0]), ys, size - 0.5)
        want = window_spread(ys, size)
        assert got == want or math.isnan(got) and math.isnan(want)

    @given(hnp.arrays(np.float64, st.integers(2, 300),
                      elements=st.one_of(SAMPLES, st.just(math.nan))),
           st.lists(st.floats(0.01, 400.0), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf, overflow
    def test_a_sequence_of_deltas_equals_the_scalar_calls(self, ys, deltas):
        # unsorted, with duplicates, and up to windows past the grid's length
        xs = np.array([0.0, len(ys) - 1.0])
        deltas += deltas[:2]
        got = grid_modulus(xs, ys, deltas)
        assert got.shape == (len(deltas),)
        assert [v.hex() for v in got] == [grid_modulus(xs, ys, d).hex() for d in deltas]

    @pytest.mark.parametrize("points", [2, 3, 5, 8, 33, 64])
    def test_windows_about_as_long_as_the_grid(self, points):
        ys = np.random.default_rng(points).normal(size=points)
        xs = np.array([0.0, points - 1.0])
        for size in range(max(2, points - 3), points + 3):
            assert grid_modulus(xs, ys, size - 0.5) == window_spread(ys, size)

    @pytest.mark.parametrize("points", [2, 3, 17, 600])
    @pytest.mark.parametrize("delta", [0.01, 0.3, 5.0])
    def test_constant_samples_have_zero_spread(self, points, delta):
        xs = np.linspace(0.0, 1.0, points)
        assert grid_modulus(xs, np.full(points, -3.25), delta) == 0.0

    XS = np.linspace(0.0, 1.0, 9)

    def test_nan_in_an_edge_window_gives_nan(self):
        # the clamped edge windows of the old scipy.ndimage filters gave 1.0
        ys = np.arange(9.0)
        ys[-1] = np.nan
        assert math.isnan(grid_modulus(self.XS, ys, 0.1))

    def test_nan_in_the_whole_window_gives_nan(self):
        # the old filters gave 8.0, the spread of the other samples
        ys = np.arange(9.0)
        ys[4] = np.nan
        assert math.isnan(grid_modulus(self.XS, ys, 2.0))

    def test_verify_run_never_loads_scipy_ndimage(self):
        # a fresh interpreter: other tests may load scipy.ndimage into this one
        script = (
            "import sys\n"
            "from erfapprox.harness import ExperimentConfig, run_verify\n"
            "cfg = ExperimentConfig.from_dict({'schema_version': 1, 'theorems': ['T12', 'T30'],\n"
            "    'functions': [{'id': 'sq', 'builtin': 'sq'},\n"
            "                  {'id': 'g', 'expr': 'sin(2*x)', 'domain': [0.0, 1.0]}],\n"
            "    'sweep': [9, 16, 81], 'rate_exponents': [0.5], 'fractional_orders': [0.5],\n"
            "    'grid': {'x_points': 64, 'anchors': 5, 'table_points': 33}})\n"
            "result = run_verify(cfg)\n"
            "assert {r['theorem'] for r in result.rows} == {'T12', 'T30'}\n"
            "print('scipy.ndimage' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(erfapprox.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
