"""Partition-of-unity, tail, and denominator invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erfapprox import special_functions
from erfapprox.errors import PreconditionViolated, WindowEmpty
from erfapprox.operators import boundary_deficiency, interval_denominator, partition_sum
from erfapprox.partition import (
    RADIUS,
    TRUNCATION_EPSILON,
    certified_radius,
    chi_integral,
    index_window,
    tail_bound,
    tail_comparison,
    tail_sum,
)
from erfapprox.special_functions import CHI_AT_ONE, chi, erf


def points_major_sum(x, n):
    """sum_k chi(nx - k) over k = round(nx) + (0, -1, 1, ..., -R, R), from a
    points x window chi matrix, added outermost-first."""
    u = np.atleast_1d(np.asarray(x, dtype=float)) * n
    offsets = np.array([0.0] + [s * m for m in range(1, RADIUS + 1) for s in (-1.0, 1.0)])
    return chi(u[:, None] - (np.round(u)[:, None] + offsets))[:, ::-1].sum(axis=1)


class TestPartitionSum:
    @given(st.floats(-50.0, 50.0), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, x, n):
        assert abs(partition_sum(x, n) - 1.0) <= 1e-12
        assert partition_sum(x, n) == points_major_sum(x, n)[0]

    def test_dense_grid(self):
        xs = np.linspace(-8.0, 8.0, 10_000)
        for n in (1, 2, 7, 50, 311):
            assert np.max(np.abs(partition_sum(xs, n) - 1.0)) <= 1e-12
            assert np.array_equal(partition_sum(xs, n), points_major_sum(xs, n))

    def test_runs_chi_on_the_window_major_kernel(self, monkeypatch):
        # a points-major matrix shares no erf value along axis 0, and took
        # erf calls of 15015 and 15015 points here
        sizes = []

        def counting(t, out=None):
            sizes.append(np.size(t))
            return erf(t, out)

        monkeypatch.setattr(special_functions, "erf", counting)
        partition_sum(np.linspace(-3.0, 3.0, 1001), 64)
        assert sizes == [15015, 2002]


class TestChiIntegral:
    def test_unit_mass(self):
        assert abs(chi_integral(-12.0, 12.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("lo,hi", [(-12.0, 12.0), (-3.0, 5.0), (0.0, 1.0), (-0.5, 0.25)])
    def test_against_quadrature(self, lo, hi):
        # independent oracle: Gauss-Legendre on the density itself
        glx, glw = np.polynomial.legendre.leggauss(200)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        quad = half * float(np.sum(glw * chi(mid + half * glx)))
        assert abs(chi_integral(lo, hi) - quad) <= 1e-12

    def test_additivity(self):
        assert abs(
            chi_integral(-4.0, 1.0) + chi_integral(1.0, 3.0) - chi_integral(-4.0, 3.0)
        ) <= 1e-15


class TestTail:
    QUALIFYING = [
        (n, a)
        for n in (9, 16, 81, 256, 1024)
        for a in (0.3, 0.5, 0.7, 0.9)
        if float(n) ** (1.0 - a) >= 3.0
    ]

    @pytest.mark.parametrize("n,alpha", QUALIFYING)
    def test_strictly_below_bound(self, n, alpha):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-2.0, 2.0, 25):
            s, bound = tail_comparison(float(x), n, alpha)
            assert s < bound

    def test_scaled_matches_unscaled_when_representable(self):
        # n=9, alpha=0.5: t=3, nothing underflows, so both routes agree
        s, b = tail_comparison(0.3, 9, 0.5)
        t = 9.0 ** 0.5
        scale = math.exp((t - 2.0) ** 2)
        assert abs(b - tail_bound(9, 0.5) * scale) <= 1e-12 * b
        assert abs(s - tail_sum(0.3, 9, 0.5) * scale) <= 1e-9 * max(s, 1e-30)

    def test_hypothesis_enforced(self):
        with pytest.raises(PreconditionViolated):
            tail_bound(4, 0.5)
        with pytest.raises(PreconditionViolated):
            tail_sum(0.0, 9, 0.9)
        with pytest.raises(PreconditionViolated):
            tail_bound(9, 1.2)

    def test_bound_underflow_is_graceful(self):
        assert tail_bound(1024, 0.3) == 0.0


class TestDenominator:
    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    def test_in_open_closed_range(self, n):
        xs = np.linspace(0.0, 1.0, 2001)
        vals = interval_denominator(xs, n, 0.0, 1.0)
        assert np.all(vals > 0.2488)
        assert np.all(vals > CHI_AT_ONE)
        assert np.all(vals <= 1.0 + 1e-15)

    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    def test_is_the_full_interval_sum(self, n):
        # the window drops only terms below 1e-20, so the sums differ by rounding
        xs = np.linspace(0.0, 1.0, 1001)
        ks = np.arange(0.0, n + 1.0)
        full = np.concatenate([chi(n * part[:, None] - ks).sum(axis=1)
                               for part in np.array_split(xs, 10)])
        assert np.max(np.abs(interval_denominator(xs, n, 0.0, 1.0) - full)) <= 4e-16

    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    def test_boundary_deficiency(self, n):
        for end in ("a", "b"):
            assert boundary_deficiency(n, 0.0, 1.0, end) >= 0.2488

    def test_empty_window(self):
        with pytest.raises(WindowEmpty):
            index_window(1, 0.3, 0.7)


class TestTruncationPolicy:
    def test_radius_covers_epsilon(self):
        # envelope chi(r) < exp(-(r-1)^2)/sqrt(pi) must be below epsilon
        assert chi(float(RADIUS)) < TRUNCATION_EPSILON

    def test_tighter_epsilon_wider_radius(self):
        assert certified_radius(1e-20) >= RADIUS

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 1.0, 10.0, 0.0, -1e-14])
    def test_rejects_epsilon_outside_unit_interval(self, epsilon):
        # inf and 10 used to get radius 3 without a word
        with pytest.raises(PreconditionViolated):
            certified_radius(epsilon)

    def test_radius_floor_is_three(self):
        assert certified_radius(0.5) == 3
        assert certified_radius(0.02) == 4
