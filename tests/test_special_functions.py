"""Oracle and property tests for erf (scipy) and the bell density."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erfapprox import special_functions
from erfapprox.partition import RADIUS
from erfapprox.special_functions import (
    CHI_AT_ONE,
    CHI_AT_ZERO,
    ERF_SATURATION,
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

    def test_exactly_one_in_magnitude_from_the_saturation_point(self):
        # chi writes sign(x + 1) for its saturated rows, so this is what makes
        # that bit-identical; scipy's erf reaches 1.0 from about 5.92 on
        xs = np.linspace(ERF_SATURATION, 40.0, 100_001)
        assert ERF_SATURATION == 6.0
        assert np.all(erf(xs) == 1.0) and np.all(erf(-xs) == -1.0)
        assert erf(math.inf) == 1.0 and erf(-math.inf) == -1.0

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


def window_major(n, a, b, points):
    """The operators' kernel argument d - m, m = -R..R down axis 0, with
    u = nx and d = u - round(u) on points x values from a to b."""
    u = n * np.linspace(a, b, points)
    return (u - np.round(u)) - np.arange(-RADIUS, RADIUS + 1.0)[:, None]


def formula(x):
    return (erf(x + 1.0) - erf(x - 1.0)) / 4.0


class TestChiSharesErfValues:
    """chi takes erf(x - 1) from the erf(x + 1) two places on along axis 0
    where the two arguments are equal, and still equals the formula."""

    def erf_sizes(self, x, monkeypatch):
        sizes = []

        def counting(t, out=None):
            sizes.append(np.size(t))
            return erf(t, out)

        monkeypatch.setattr(special_functions, "erf", counting)
        assert np.array_equal(chi(x), formula(x), equal_nan=True)
        return sizes

    @given(st.integers(1, 4096), st.floats(-50.0, 50.0), st.floats(1e-3, 20.0),
           st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_window_major_kernel_is_the_formula_bit_for_bit(self, n, a, width, points):
        x = window_major(n, a, a + width, points)
        assert np.array_equal(chi(x), formula(x))

    @given(st.integers(1, 6), st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_array_is_the_formula_bit_for_bit(self, rows, cols, data):
        # small integers share erf values with the entry two rows on, the
        # floats (nan and inf among them) mostly do not
        values = st.one_of(st.integers(-9, 9).map(float), st.floats(width=64))
        x = np.array(data.draw(st.lists(values, min_size=rows * cols,
                                        max_size=rows * cols))).reshape(rows, cols)
        for arr in (x, x.T, x[:, 0], x[::-1]):
            assert np.array_equal(chi(arr), formula(arr), equal_nan=True)

    def test_exact_kernel_leaves_the_second_call_empty(self, monkeypatch):
        # the first call skips the two leading rows, where x + 1 = d + 8 and
        # d + 7 lie in [6.5, 8.5], and the last two rows of x - 1, d - 7 and
        # d - 8, are saturated too
        x = window_major(81, -8.0, 8.0, 4095)
        assert self.erf_sizes(x, monkeypatch) == [x.size - 2 * 4095, 0]

    def test_inexact_entries_go_to_the_second_call(self, monkeypatch):
        # at n = 9 on [0, 1] every |nx| < 9, so d - m rounds on some rows and
        # x - 1 differs in the last bit from the x + 1 two rows on
        x = window_major(9, 0.0, 1.0, 1001)
        sizes = self.erf_sizes(x, monkeypatch)
        assert len(sizes) == 2 and sizes[0] == x.size - 2 * 1001
        assert 0 < sizes[1] < x.size // 16

    def test_descending_unit_steps_share_all_but_two(self, monkeypatch):
        # x + 1 = 6 at the first place is saturated, so the first call skips
        # it; x - 1 ends at -5 and -6, and only -6 is saturated
        x = np.arange(5.0, -6.0, -1.0)
        assert self.erf_sizes(x, monkeypatch) == [10, 1]

    @staticmethod
    def edited(cells):
        """An exact window-major kernel of 11 points with cells, a dict of
        (row, column) -> value, written into it."""
        x = window_major(81, -8.0, 8.0, 11)
        for at, value in cells.items():
            x[at] = value
        return x

    @pytest.mark.parametrize("x", [
        edited({(-1, 3): np.nan}),
        edited({(-1, 3): 8.0}),
        edited({(-2, 0): np.inf, (-2, 1): -np.inf}),
        edited({(-1, 0): -np.inf}),
        np.arange(5.0, -6.0, -1.0),
        np.append(np.arange(5.0, -4.0, -1.0), [np.nan, -np.inf]),
        np.array([[-9.0, -np.inf, -7.5, -9.0]]),
        np.array([[-9.0, -np.inf, 5.5, -9.0]]),
    ], ids=["nan", "mixed-signs", "inf-both-signs", "minus-inf-saturates", "one-dim",
            "one-dim-nan", "one-row", "one-unsaturated-row"])
    def test_trailing_rows_that_must_keep_erf(self, x, monkeypatch):
        # from the last row of x - 1 back, a row takes its sign only while
        # all its entries have |value| >= 6, of either sign (a nan row never
        # has); the second call covers the other trailing rows and the fresh
        # entries, or, past a sixteenth fresh, all of x - 1 but the signed rows
        lo = x - 1.0
        signed = 0
        for row in lo[::-1][:2]:
            if not np.all(np.abs(row) >= ERF_SATURATION):
                break
            signed += np.size(row)
        head = lo[:-2].size
        moved = np.count_nonzero(lo[:-2] != (x + 1.0)[2:])
        second = lo.size - signed if moved > head // 16 else moved + lo.size - head - signed
        assert self.erf_sizes(x, monkeypatch)[1] == second

    def test_saturated_rows_take_their_sign_bit_for_bit(self, monkeypatch):
        # u beyond 2^52 gives d = 0; nan and +-inf give d = nan, so their
        # columns keep every row from saturating
        offsets = np.arange(-RADIUS, RADIUS + 1.0)[:, None]
        u = np.array([0.3, -2.4, 2.0**53 + 2.0, -2.0**60, 1e300])
        x = (u - np.round(u)) - offsets
        with np.errstate(invalid="ignore"):
            special = np.append(u, [np.nan, np.inf, -np.inf])
            unsaturated = (special - np.round(special)) - offsets
        infinite = x.copy()
        infinite[:2, ::2] = np.inf
        infinite[:2, 1::2] = -np.inf
        infinite[5] = np.inf            # not a leading row: erf gives its 1
        for arr, first in [(x, x.size - 2 * u.size), (infinite, x.size - 2 * u.size),
                           (unsaturated, unsaturated.size), (x[::-1], x.size)]:
            assert self.erf_sizes(arr, monkeypatch)[0] == first
            monkeypatch.undo()
        for arr in (x, infinite, unsaturated, x[::-1], x[:, 2:], x[:1]):
            assert np.array_equal(chi(arr), formula(arr), equal_nan=True)

    @pytest.mark.parametrize("x", [
        np.linspace(-8.0, 8.0, 4095 * 15).reshape(4095, 15),      # nothing shared
        window_major(81, -8.0, 8.0, 4095).T,                      # shared along axis 1 only
        np.array([0.5]), np.zeros((2, 3)), np.array([]),
    ], ids=["points-major", "transposed", "one", "two-rows", "empty"])
    def test_every_array_call_makes_two_erf_calls(self, x, monkeypatch):
        assert len(self.erf_sizes(x, monkeypatch)) == 2

    def test_window_major_call_holds_under_2_2_times_its_input(self):
        x = window_major(81, -8.0, 8.0, 4095)
        assert x.shape == (15, 4095)
        tracemalloc.start()
        try:
            chi(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * x.nbytes


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
