"""Oracle and property tests for erf (scipy) and the bell density."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erfapprox.special_functions import (
    CHI_AT_ONE,
    CHI_AT_ZERO,
    INV_CHI_AT_ONE,
    SQRT_PI,
    chi,
    chi_derivative,
    erf,
    erf_antiderivative,
)

mpmath.mp.dps = 40

# 29 probe points: small, moderate and saturated arguments, both signs.
ERF_PROBES = [
    0.0, 1e-12, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5,
    2.999, 3.0, 3.001, 3.5, 4.0, 4.5, 5.0, 5.5, 5.999, 6.0, 6.5, 8.0, 40.0,
    -0.3, -1.0, -3.2, -7.0,
]


class TestErfOracle:
    @pytest.mark.parametrize("x", ERF_PROBES)
    def test_against_mpmath(self, x):
        expected = float(mpmath.erf(x))
        assert abs(erf(x) - expected) <= 1e-15

    def test_against_stdlib_dense(self):
        xs = np.linspace(-6.5, 6.5, 4001)
        ours = erf(xs)
        theirs = np.array([math.erf(v) for v in xs])
        assert np.max(np.abs(ours - theirs)) <= 1e-15

    def test_dense_against_mpmath(self):
        xs = np.linspace(-7.0, 7.0, 4001)
        expected = np.array([float(mpmath.erf(mpmath.mpf(x))) for x in xs])
        assert np.max(np.abs(erf(xs) - expected)) <= 2.5e-16

    def test_anchor_values(self):
        assert abs(erf(1.0) - 0.8427007929497149) <= 1e-14
        assert abs(erf(2.0) - 0.9953222650189527) <= 1e-14

    def test_scalar_and_array_agree(self):
        xs = np.array([-2.0, 0.5, 3.7])
        arr = erf(xs)
        assert arr.shape == (3,)
        for i, v in enumerate(xs):
            assert erf(float(v)) == arr[i]


class TestErfProperties:
    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_odd(self, x):
        assert erf(-x) == -erf(x)

    @given(st.floats(-6.0, 6.0), st.floats(1e-9, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, x, h):
        assert erf(x + h) >= erf(x)

    @given(st.floats(-3.0, 3.0), st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_where_resolvable(self, x, h):
        # strictness is only representable away from the saturated tails
        assert erf(x + h) > erf(x)

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_range(self, x):
        assert -1.0 <= erf(x) <= 1.0


class TestChi:
    def test_constants(self):
        assert CHI_AT_ZERO == chi(0.0) == erf(1.0) / 2.0
        assert CHI_AT_ONE == chi(1.0) == erf(2.0) / 4.0
        assert abs(CHI_AT_ZERO - 0.42135039647485745) <= 1e-15
        assert abs(CHI_AT_ONE - 0.24883056625473815) <= 1e-15
        assert abs(INV_CHI_AT_ONE - 4.018798876084454) <= 1e-12
        assert abs(INV_CHI_AT_ONE - 4.019) <= 1e-3

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_even_and_positive(self, x):
        assert chi(-x) == chi(x)
        assert chi(x) >= 0.0
        if abs(x) < 5.0:
            # beyond the erf saturation cutoff the true ~1e-17 tail
            # underflows to 0, so strict positivity is only representable here
            assert chi(x) > 0.0

    @given(st.floats(0.0, 10.0), st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_unimodal(self, x, h):
        # decreasing away from the center on the positive side
        assert chi(x + h) <= chi(x)

    def test_mean_value_envelope(self):
        # chi(t) < exp(-(t-1)^2)/sqrt(pi) for t >= 1: the truncation driver
        ts = np.linspace(1.0, 12.0, 500)
        assert np.all(chi(ts) < np.exp(-((ts - 1.0) ** 2)) / SQRT_PI)

    def test_array_call_is_the_formula_and_agrees_with_scalars(self):
        xs = np.linspace(-9.0, 9.0, 4095 * 3).reshape(4095, 3)
        got = chi(xs)
        assert np.array_equal(got, (erf(xs + 1.0) - erf(xs - 1.0)) / 4.0)
        assert [chi(float(x)) for x in xs.flat[::97]] == list(got.flat[::97])

    def test_one_call_holds_two_arrays_the_size_of_its_input(self):
        # erf writes into the shifted copies, which are combined in place;
        # the formula's temporaries held three such arrays
        xs = np.linspace(-8.0, 8.0, 4095 * 15).reshape(4095, 15)
        tracemalloc.start()
        try:
            chi(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * xs.nbytes

    @given(st.floats(-6.0, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_derivative_matches_fd(self, x):
        h = 1e-6
        fd = (chi(x + h) - chi(x - h)) / (2.0 * h)
        assert abs(chi_derivative(x) - fd) <= 5e-9


class TestAntiderivative:
    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_derivative_is_erf(self, x):
        h = 1e-6
        fd = (erf_antiderivative(x + h) - erf_antiderivative(x - h)) / (2.0 * h)
        assert abs(fd - erf(x)) <= 5e-9

    @given(st.floats(-8.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_even(self, x):
        assert abs(erf_antiderivative(-x) - erf_antiderivative(x)) <= 1e-15

    def test_oracle_value(self):
        expected = float(1.0 * mpmath.erf(1.0) + mpmath.exp(-1.0) / mpmath.sqrt(mpmath.pi))
        assert abs(erf_antiderivative(1.0) - expected) <= 1e-15
