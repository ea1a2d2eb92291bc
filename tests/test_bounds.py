"""Bound right-hand sides, verdicts, rate fitting, and verify dispatch."""

import math

import numpy as np
import pytest

from erfapprox.bounds import (
    GridPolicy,
    complex_bound,
    fit_rate,
    fractional_bound,
    highorder_bound,
    mu1,
    mu2,
    mu3,
    remark34_check,
    tail_core,
    verify,
)
from erfapprox.corpus import (
    COMPLEX_INTERVAL_CORPUS,
    FRACTIONAL_CORPUS,
    INTERVAL_CORPUS,
    LINE_CORPUS,
)
from erfapprox.errors import (
    CriticalPointViolated,
    DegenerateFit,
    PreconditionViolated,
)
from erfapprox.funcs import ComplexFunctionSpec, FunctionSpec
from erfapprox.special_functions import INV_CHI_AT_ONE, SQRT_PI

FAST_GRID = GridPolicy(x_points=256, refinement=False, anchors=9, table_points=129)


class TestTailCore:
    def test_spot_value(self):
        # n=16, exponent=0.5: t=4, core = e^{-4}/(2 sqrt(pi))... times 2
        want = math.exp(-4.0) / (SQRT_PI * 2.0)
        assert abs(tail_core(16, 0.5) - want) <= 1e-16

    def test_underflows_not_overflows(self):
        assert tail_core(1024, 0.3) == 0.0

    def test_hypothesis_enforced(self):
        with pytest.raises(PreconditionViolated):
            tail_core(4, 0.5)


class TestFirstOrder:
    def test_mu2_spot_value(self):
        # clipped identity, n=16, alpha=0.5: omega term 1/4, tail ||f|| * core
        f = LINE_CORPUS["linear"]
        value, terms, quality = mu2(f, 16, 0.5)
        want = 0.25 + 4.0 * math.exp(-4.0) / (2.0 * SQRT_PI)
        assert abs(value - want) <= 1e-15
        assert quality == "exact"
        assert set(terms) == {"modulus_term", "tail_term"}

    def test_mu1_is_scaled_mu2(self):
        f = INTERVAL_CORPUS["sin"]
        a, b = f.domain
        v1, _, _ = mu1(f, 81, 0.5, a, b)
        v2, _, _ = mu2(f, 81, 0.5, (a, b))
        assert v1 == INV_CHI_AT_ONE * v2

    def test_mu3_at_least_mu2(self):
        f = LINE_CORPUS["sin"]
        for n in (9, 16, 81):
            assert mu3(f, n, 0.5)[0] >= mu2(f, n, 0.5)[0]

    def test_monotone_decreasing_in_n(self):
        f = LINE_CORPUS["sin"]
        vals = [mu2(f, n, 0.5)[0] for n in (9, 16, 81, 256)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestHighOrder:
    def test_sup_dominates_pointwise(self):
        f = INTERVAL_CORPUS["sin"]
        a, b = f.domain
        for x in (-2.0, 0.3, 1.0):
            vp, _, _ = highorder_bound(f, 81, 0.5, a, b, 2, "pointwise", x)
            vs, _, _ = highorder_bound(f, 81, 0.5, a, b, 2, "sup")
            assert vp <= vs * (1.0 + 1e-12)

    def test_critical_matches_pointwise_at_flat_point(self):
        # sq has f'(0) = 0, so critical and pointwise agree at x = 0 for N=1
        f = INTERVAL_CORPUS["sq"]
        a, b = f.domain
        vc, _, _ = highorder_bound(f, 81, 0.5, a, b, 1, "critical", 0.0)
        vp, _, _ = highorder_bound(f, 81, 0.5, a, b, 1, "pointwise", 0.0)
        assert abs(vc - vp) <= 1e-15

    def test_critical_rejects_nonflat_point(self):
        f = INTERVAL_CORPUS["sq"]
        a, b = f.domain
        with pytest.raises(CriticalPointViolated):
            highorder_bound(f, 81, 0.5, a, b, 1, "critical", 0.5)
        with pytest.raises(CriticalPointViolated):
            highorder_bound(f, 81, 0.5, a, b, 2, "critical", 0.0)

    def test_unknown_mode(self):
        f = INTERVAL_CORPUS["sq"]
        with pytest.raises(PreconditionViolated):
            highorder_bound(f, 81, 0.5, -1.0, 1.0, 1, "bogus")


class TestFractionalBound:
    def test_sup_always_estimated(self):
        f = FRACTIONAL_CORPUS["sq"]
        _, _, quality = fractional_bound(f, 81, 0.5, 0.5, 0.0, 1.0, "sup",
                                         anchors=9, table_points=129)
        assert quality == "estimated"

    def test_half_sup_requires_half_order(self):
        f = FRACTIONAL_CORPUS["sq"]
        with pytest.raises(PreconditionViolated):
            fractional_bound(f, 81, 0.5, 0.8, 0.0, 1.0, "half_sup")
        with pytest.raises(PreconditionViolated):
            fractional_bound(f, 81, 0.5, 1.5, 0.0, 1.0, "n1_sup")

    def test_pointwise_needs_x(self):
        f = FRACTIONAL_CORPUS["sq"]
        with pytest.raises(PreconditionViolated):
            fractional_bound(f, 81, 0.5, 0.5, 0.0, 1.0, "pointwise")

    def test_remark34_constant_certifies(self):
        certified, K = remark34_check(
            FRACTIONAL_CORPUS["const"], 0.5, (9, 16, 81), 0.0, 1.0,
            anchors=9, table_points=129,
        )
        assert certified
        assert K <= 1e-12

    def test_remark34_square_does_not_certify(self):
        # D^(1/2) of t^2 is only Hoelder-1/2 at its anchor, so the
        # linear-modulus premise fails and q(n) grows
        certified, K = remark34_check(
            FRACTIONAL_CORPUS["sq"], 0.5, (9, 16, 81, 256), 0.0, 1.0,
            anchors=9, table_points=129,
        )
        assert not certified
        assert K > 1.0


class TestComplexBound:
    def test_zero_imaginary_part_reduces_to_real(self):
        f = INTERVAL_CORPUS["sin"]
        zero = FunctionSpec("zero", lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                            domain=f.domain, exact_modulus=lambda d: 0.0, sup_norm=0.0)
        pair = ComplexFunctionSpec("sin+0i", f, zero)
        a, b = f.domain
        vc, _, _ = complex_bound(pair, mu1, 81, 0.5, a, b)
        vr, _, _ = mu1(f, 81, 0.5, a, b)
        assert abs(vc - vr) <= 1e-15

    def test_ingredient_sum(self):
        f = COMPLEX_INTERVAL_CORPUS["circle"]
        a, b = f.domain
        vc, _, _ = complex_bound(f, mu1, 81, 0.5, a, b)
        v_re, _, _ = mu2(f.re, 81, 0.5, (a, b))
        v_im, _, _ = mu2(f.im, 81, 0.5, (a, b))
        assert abs(vc - INV_CHI_AT_ONE * (v_re + v_im)) <= 1e-15


class TestFitRate:
    def test_exact_power_law(self):
        pts = [(n, 3.0 * n ** -1.5) for n in (4, 8, 16, 32, 64)]
        slope, r2 = fit_rate(pts)
        assert abs(slope + 1.5) <= 1e-12
        assert abs(r2 - 1.0) <= 1e-12

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit):
            fit_rate([(4, 1.0), (8, 0.5)])
        with pytest.raises(DegenerateFit):
            fit_rate([(4, 1.0), (8, 0.0), (16, 0.1)])
        with pytest.raises(DegenerateFit):
            fit_rate([(4, 1.0), (4, 0.5), (4, 0.2)])


class TestVerify:
    def test_t12_rows_hold(self):
        rows = verify("T12", INTERVAL_CORPUS["linear"], (9, 16, 81), 0.5, FAST_GRID)
        assert len(rows) == 3
        assert all(r.verdict == "holds" for r in rows)
        assert all(r.slack >= 0.0 for r in rows)

    def test_t15_produces_family_d(self):
        rows = verify("T15", LINE_CORPUS["sin"], (16,), 0.5, FAST_GRID)
        assert rows[0].family == "D"
        assert rows[0].verdict == "holds"

    def test_t41_two_rows_per_n(self):
        from erfapprox.corpus import COMPLEX_LINE_CORPUS

        rows = verify("T41", COMPLEX_LINE_CORPUS["circle"], (16,), 0.5, FAST_GRID)
        assert [r.family for r in rows] == ["C", "D"]
        assert rows[0].bound_value == rows[1].bound_value

    def test_unknown_theorem(self):
        with pytest.raises(PreconditionViolated):
            verify("T99", INTERVAL_CORPUS["linear"], (16,), 0.5)
