"""Bound right-hand sides, verdicts, rate fitting, and verify dispatch."""

import dataclasses
import math

import numpy as np
import pytest

from erfapprox import bounds
from erfapprox.bounds import (
    GridPolicy,
    Run,
    complex_bound,
    fit_rate,
    fractional_bound,
    highorder_bound,
    mu1,
    mu2,
    mu3,
    remark34_check,
    verify,
)
from erfapprox.corpus import (
    COMPLEX_INTERVAL_CORPUS,
    FRACTIONAL_CORPUS,
    INTERVAL_CORPUS,
    LINE_CORPUS,
    function_from_expression,
)
from erfapprox.errors import (
    CriticalPointViolated,
    DegenerateFit,
    PreconditionViolated,
)
from erfapprox.fractional import FractionalSpec, caputo_table, gamma_fn, table_modulus
from erfapprox.funcs import ComplexFunctionSpec, FunctionSpec
from erfapprox.partition import tail_bound, tail_core
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
        v1, _, _ = mu1(f, 81, 0.5)
        v2, _, _ = mu2(f, 81, 0.5)
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
        for x in (-2.0, 0.3, 1.0):
            vp, _, _ = highorder_bound(f, 81, 0.5, 2, "pointwise", x)
            vs, _, _ = highorder_bound(f, 81, 0.5, 2, "sup")
            assert vp <= vs * (1.0 + 1e-12)

    def test_critical_matches_pointwise_at_flat_point(self):
        # sq has f'(0) = 0, so critical and pointwise agree at x = 0 for N=1
        f = INTERVAL_CORPUS["sq"]
        vc, _, _ = highorder_bound(f, 81, 0.5, 1, "critical", 0.0)
        vp, _, _ = highorder_bound(f, 81, 0.5, 1, "pointwise", 0.0)
        assert abs(vc - vp) <= 1e-15

    def test_critical_rejects_nonflat_point(self):
        f = INTERVAL_CORPUS["sq"]
        with pytest.raises(CriticalPointViolated):
            highorder_bound(f, 81, 0.5, 1, "critical", 0.5)
        with pytest.raises(CriticalPointViolated):
            highorder_bound(f, 81, 0.5, 2, "critical", 0.0)

    def test_unknown_mode(self):
        f = INTERVAL_CORPUS["sq"]
        with pytest.raises(PreconditionViolated):
            highorder_bound(f, 81, 0.5, 1, "bogus")


class TestFractionalBound:
    def test_sup_always_estimated(self):
        f = FRACTIONAL_CORPUS["sq"]
        _, _, quality = fractional_bound(f, 81, 0.5, 0.5, "sup",
                                         run=Run.of((81,), (0.5,), FAST_GRID))
        assert quality == "estimated"

    def test_corollaries_hold_their_order(self):
        # C33 sweeps no order, so it reads none and stays at 1/2; C31 is T30
        # at 0 < alpha < 1
        for tid, alpha_frac in (("C33", 0.8), ("C31", 1.5)):
            with pytest.raises(PreconditionViolated) as exc:
                verify(tid, FRACTIONAL_CORPUS["sq"], (81,), 0.5, FAST_GRID,
                       alpha_frac=alpha_frac)
            assert "alpha_frac" in str(exc.value)

    def test_corollaries_are_the_t30_sup_form(self):
        f = FRACTIONAL_CORPUS["sin"]
        t30 = verify("T30", f, (16, 81), 0.5, FAST_GRID, alpha_frac=0.5)
        for tid, kw in (("C31", {"alpha_frac": 0.5}), ("C33", {})):
            assert verify(tid, f, (16, 81), 0.5, FAST_GRID, **kw) == [
                dataclasses.replace(r, theorem_id=tid) for r in t30]

    def test_pointwise_needs_x(self):
        f = FRACTIONAL_CORPUS["sq"]
        with pytest.raises(PreconditionViolated):
            fractional_bound(f, 81, 0.5, 0.5, "pointwise")

    @staticmethod
    def full_table_ingredients(f, alpha, x, points, delta):
        """(wr, wl, sr, sl) at the anchor x from whole Caputo tables, each
        read by one table_modulus call at delta alone."""
        (a, b), out = f.domain, []
        for side, sub in (("right", (a, x)), ("left", (x, b))):
            if sub[1] - sub[0] <= 1e-12:
                out.append((0.0, 0.0))
                continue
            table = caputo_table(f, FractionalSpec(alpha, x, side), sub, points)
            out.append((table_modulus(table, (delta,))[0], float(np.max(np.abs(table[1])))))
        (wr, sr), (wl, sl) = out
        return wr, wl, sr, sl

    @pytest.mark.parametrize("mode, x, deltas", [
        ("sup", None, (81.0 ** -0.5,)),              # the bound's own step alone
        ("sup", None, (0.3, 81.0 ** -0.5, 0.01)),   # the bound's own step among others
        ("pointwise", 0.375, (0.3, 81.0 ** -0.5)),   # an anchor of the grid of 9
        ("pointwise", 0.3, (0.3, 81.0 ** -0.5)),     # between two anchors
    ])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_equals_the_bound_from_whole_tables(self, mode, x, deltas, alpha):
        f, n, beta, points = FRACTIONAL_CORPUS["sin"], 81, 0.5, 129
        a, b = f.domain
        # the run's deltas are the steps its tables are read at
        run = Run(deltas, deltas, FAST_GRID)
        _, terms, _ = fractional_bound(f, n, beta, alpha, mode, x, run=run)
        delta, htc, gf = float(n) ** (-beta), tail_bound(n, beta), 1.0 / gamma_fn(alpha + 1.0)
        if x is None:
            ing = [self.full_table_ingredients(f, alpha, float(t), points, delta)
                   for t in np.linspace(a, b, 9)]
            wr, wl, sr, sl = (max(i[k] for i in ing) for k in range(4))
            block = gf * ((wr + wl) / float(n) ** (alpha * beta)
                          + htc * (b - a) ** alpha * (sr + sl))
        else:
            wr, wl, sr, sl = self.full_table_ingredients(f, alpha, x, points, delta)
            block = gf * ((wr + wl) / float(n) ** (alpha * beta)
                          + htc * (sr * (x - a) ** alpha + sl * (b - x) ** alpha))
        assert terms["fractional_block"].hex() == (INV_CHI_AT_ONE * block).hex()

    @pytest.mark.parametrize("mode, x", [("sup", None), ("pointwise", 0.375)])
    def test_a_run_without_the_bounds_own_step_is_a_precondition(self, mode, x):
        run = Run((0.3,), (0.3,), FAST_GRID)
        with pytest.raises(PreconditionViolated, match="not one of the run's"):
            fractional_bound(FRACTIONAL_CORPUS["sin"], 81, 0.5, 0.5, mode, x, run=run)

    def test_remark34_equals_its_value_from_whole_tables(self):
        f, beta, sweep = FRACTIONAL_CORPUS["sq"], 0.5, (9, 16, 81, 256)
        qs = []
        for n in sweep:
            ing = [self.full_table_ingredients(f, 0.5, float(t), 129, float(n) ** (-beta))
                   for t in np.linspace(0.0, 1.0, 9)]
            qs.append(float(n) ** beta * (max(i[0] for i in ing) + max(i[1] for i in ing)))
        certified, K = remark34_check(f, beta, sweep, FAST_GRID)
        assert not certified and K.hex() == max(qs).hex()

    def test_remark34_constant_certifies(self):
        certified, K = remark34_check(
            FRACTIONAL_CORPUS["const"], 0.5, (9, 16, 81), FAST_GRID,
        )
        assert certified
        assert K <= 1e-12

    def test_remark34_square_does_not_certify(self):
        # D^(1/2) of t^2 is only Hoelder-1/2 at its anchor, so the
        # linear-modulus premise fails and q(n) grows
        certified, K = remark34_check(
            FRACTIONAL_CORPUS["sq"], 0.5, (9, 16, 81, 256), FAST_GRID,
        )
        assert not certified
        assert K > 1.0

    @pytest.fixture
    def nan_left_of_half(self, monkeypatch):
        """caputo_table with a NaN in the left table of the anchor 0.5; the
        anchor cache is emptied around the test so no NaN entry outlives it."""
        real = bounds.caputo_table

        def table(f, spec, sub, points):
            xs, values = real(f, spec, sub, points)
            if spec.anchor == 0.5 and spec.side == "left":
                values = values.copy()
                values[len(values) // 2] = math.nan
            return xs, values

        monkeypatch.setattr(bounds, "caputo_table", table)
        bounds._anchor_tables.cache_clear()
        yield
        bounds._anchor_tables.cache_clear()

    def test_a_nan_at_one_anchor_reaches_the_sup_bound(self, nan_left_of_half):
        # Python's max used to drop the NaN: the sup bound read 1.0760 and K 6.406
        f, grid = FRACTIONAL_CORPUS["sin"], GridPolicy(anchors=5, table_points=33)
        run = Run.of((16, 81), (0.5,), grid)
        assert math.isnan(fractional_bound(f, 81, 0.5, 0.5, "pointwise", 0.5, run=run)[0])
        value, terms, _ = fractional_bound(f, 81, 0.5, 0.5, run=run)
        assert math.isnan(value) and math.isnan(terms["fractional_block"])
        rows = verify("T30", f, (16, 81), 0.5, grid, alpha_frac=0.5, run=run)
        assert [r.verdict for r in rows] == ["non-finite", "non-finite"]
        certified, K = remark34_check(f, 0.5, (9, 16, 81), grid)
        assert not certified and math.isnan(K)

    @pytest.mark.parametrize("bound, f, args", [
        # used to return the complex bound 0j: (b - x) ** alpha of a negative base
        (fractional_bound, FRACTIONAL_CORPUS["const"], (16, 0.5, 0.5, "pointwise", 2.0)),
        # used to return 1.1876
        (highorder_bound, INTERVAL_CORPUS["sin"], (16, 0.5, 1, "pointwise", 7.0)),
        (highorder_bound, INTERVAL_CORPUS["const"], (16, 0.5, 1, "critical", -0.5)),
        (fractional_bound, FRACTIONAL_CORPUS["sq"], (16, 0.5, 0.5, "pointwise", math.nan)),
    ])
    def test_a_point_outside_the_interval_is_a_precondition(self, bound, f, args):
        with pytest.raises(PreconditionViolated, match=r"x = \S+ is not in \[a, b\] = \["):
            bound(f, *args)


class TestComplexBound:
    def test_zero_imaginary_part_reduces_to_real(self):
        f = INTERVAL_CORPUS["sin"]
        zero = FunctionSpec("zero", lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                            domain=f.domain, exact_modulus=lambda d: 0.0, sup_norm=0.0)
        pair = ComplexFunctionSpec("sin+0i", f, zero)
        vc, _, _ = complex_bound(pair, mu1, 81, 0.5)
        vr, _, _ = mu1(f, 81, 0.5)
        assert abs(vc - vr) <= 1e-15

    def test_ingredient_sum(self):
        f = COMPLEX_INTERVAL_CORPUS["circle"]
        vc, _, _ = complex_bound(f, mu1, 81, 0.5)
        v_re, _, _ = mu2(f.re, 81, 0.5)
        v_im, _, _ = mu2(f.im, 81, 0.5)
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

    @pytest.mark.parametrize("tid, kw", [
        # both used to return the plain first-order rows
        ("T12", {"N": 3}),
        ("T13", {"mode": "pointwise"}),
        ("T16", {"alpha_frac": 0.5}),
        ("T30", {"N": 2}),
        # x is read only by mode="critical"
        ("T16", {"x": 0.3, "N": 1}),
    ])
    def test_a_keyword_the_theorem_does_not_read_is_rejected(self, tid, kw):
        f = INTERVAL_CORPUS["sin"] if tid != "T13" else LINE_CORPUS["sin"]
        with pytest.raises(PreconditionViolated) as exc:
            verify(tid, f, (16,), 0.5, FAST_GRID, **kw)
        assert repr(next(iter(kw))) in str(exc.value)

    def test_a_run_made_for_another_grid_is_a_precondition(self):
        run = Run.of((16,), (0.5,), FAST_GRID)
        with pytest.raises(PreconditionViolated, match="grid"):
            verify("T12", INTERVAL_CORPUS["linear"], (16,), 0.5, GridPolicy(), run=run)
        assert verify("T12", INTERVAL_CORPUS["linear"], (16,), 0.5, FAST_GRID, run=run) == \
            verify("T12", INTERVAL_CORPUS["linear"], (16,), 0.5, FAST_GRID)

    @pytest.mark.parametrize("theorem, grid, kw", [
        # a bare ValueError: max() arg is an empty sequence
        ("T30", {"anchors": 0}, {}),
        # a bare ValueError: cannot convert float NaN to integer
        ("T30", {"table_points": 1}, {}),
        # a TypeError: cannot unpack non-iterable NoneType
        ("T16", {"pointwise_points": 0}, {"mode": "pointwise"}),
    ])
    def test_a_grid_size_below_its_least_is_a_precondition(self, theorem, grid, kw):
        with pytest.raises(PreconditionViolated) as exc:
            verify(theorem, FRACTIONAL_CORPUS["sin"], (16,), 0.5, GridPolicy(**grid), **kw)
        assert f"GridPolicy.{next(iter(grid))}" in str(exc.value)

    @pytest.mark.parametrize("call", [
        # each was a bare TypeError from unpacking the domain None
        lambda f: verify("T16", f, (16,), 0.5, FAST_GRID, mode="pointwise"),
        lambda f: verify("T30", f, (16,), 0.5, FAST_GRID, mode="pointwise"),
        lambda f: highorder_bound(f, 16, 0.5, 1),
        lambda f: fractional_bound(f, 16, 0.5, 0.5),
        lambda f: remark34_check(f, 0.5, (16, 81), FAST_GRID),
    ], ids=["T16-pointwise", "T30-pointwise", "highorder_bound", "fractional_bound",
            "remark34_check"])
    def test_an_interval_bound_on_a_whole_line_function_is_a_precondition(self, call):
        with pytest.raises(PreconditionViolated, match=r"interval \[a, b\]"):
            call(LINE_CORPUS["sin"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_error_or_bound_gets_its_own_verdict(self):
        # a pole at 0: nan error against an infinite bound, which used to
        # read "violated" because the exact modulus made the verdict final
        pole = function_from_expression("pole", "x^-1", domain=(0.0, 1.0),
                                        exact_modulus="linear")
        rows = verify("T12", pole, (9, 16), 0.5, FAST_GRID)
        assert [r.verdict for r in rows] == ["non-finite", "non-finite"]
        assert not math.isfinite(rows[0].empirical_error)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_interior_pole_makes_a_pointwise_row_non_finite(self):
        # the pole is the 9th of 17 points: it must win over the finite
        # ratios of the other points instead of being skipped
        pole = function_from_expression("pole", "(x - 0.5)^-1", domain=(0.0, 1.0),
                                        orders=2)
        [row] = verify("T16", pole, (16,), 0.5, FAST_GRID, N=2, mode="pointwise")
        assert row.verdict == "non-finite"
        assert not (math.isfinite(row.empirical_error) and math.isfinite(row.bound_value))


class TestRefinedGridOnly:
    SIZES = (2, 17, 64, 128, 256, 513, 2048, 4096)

    def test_refined_grid_holds_the_coarse_grid_bit_for_bit(self):
        rng = np.random.default_rng(20140101)
        windows = [(-8.0, 8.0), (0.0, 1.0), (-math.pi, math.pi), (0.1, 0.7), (-1.0, 1.5)]
        windows += [tuple(sorted(rng.uniform(-50.0, 50.0, 2))) for _ in range(40)]
        for a, b in windows:
            for n in self.SIZES:
                coarse = np.linspace(a, b, n)
                assert np.array_equal(np.linspace(a, b, 2 * n - 1)[::2], coarse), (a, b, n)

    @pytest.mark.parametrize("theorem, f", [
        ("T12", INTERVAL_CORPUS["abs"]),
        ("T14", LINE_CORPUS["sin"]),
        ("T36", COMPLEX_INTERVAL_CORPUS["circle"]),
    ])
    def test_sup_error_is_the_max_of_both_passes(self, theorem, f):
        refined = verify(theorem, f, (16, 81), 0.5, GridPolicy(x_points=129))
        for row in refined:
            passes = [verify(theorem, f, (row.n,), 0.5, GridPolicy(x_points=p, refinement=False))
                      for p in (129, 257)]
            assert row.empirical_error == max(r[0].empirical_error for r in passes)
