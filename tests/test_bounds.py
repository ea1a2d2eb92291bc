"""Bound right-hand sides, verdicts, rate fitting, and verify dispatch."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    COMPLEX_LINE_CORPUS,
    FRACTIONAL_CORPUS,
    INTERVAL_CORPUS,
    LINE_CORPUS,
    function_from_expression,
)
from erfapprox.errors import (
    CriticalPointViolated,
    DegenerateFit,
    DivisionByZero,
    PreconditionViolated,
)
from erfapprox.fractional import (
    FractionalSpec,
    _jacobi_rule,
    caputo_table,
    gamma_fn,
    table_modulus,
)
from erfapprox.funcs import ComplexFunctionSpec, FunctionSpec
from erfapprox.modulus import grid_modulus
from erfapprox.partition import tail_bound, tail_core
from erfapprox.special_functions import INV_CHI_AT_ONE, SQRT_PI

FAST_GRID = GridPolicy(x_points=256, refinement=False, anchors=9, table_points=129)


def unit_spec(name, fn, *derivatives):
    """A FunctionSpec on [0, 1] with the given derivatives."""
    return FunctionSpec(name, lambda t: fn(np.asarray(t, dtype=float)), domain=(0.0, 1.0),
                        derivatives=derivatives)


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

    def test_critical_threshold_is_1e_12(self):
        # a derivative of 1e-9 is not a critical point; 1e-13 is one
        def slope(c):
            return unit_spec("g", lambda t: c * t, unit_spec("g'", lambda t: c + 0.0 * t))
        with pytest.raises(CriticalPointViolated):
            highorder_bound(slope(1e-9), 81, 0.5, 1, "critical", 0.5)
        value, terms, _ = highorder_bound(slope(1e-13), 81, 0.5, 1, "critical", 0.5)
        assert terms["derivative_sum"] == 0.0 and math.isfinite(value)


class TestFractionalBound:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_derivative_is_not_a_critical_point(self):
        # f' is nan at 0.5 alone and f'' = 0: a nan must not count as
        # vanishing, or the critical bound reads a finite 0.0
        d1 = unit_spec("f'", lambda t: np.where(t == 0.5, math.nan, 0.0))
        f = unit_spec("f", lambda t: 0.0 * t, d1, unit_spec("f''", lambda t: 0.0 * t))
        with pytest.raises(CriticalPointViolated, match="nan"):
            fractional_bound(f, 16, 0.5, 1.5, "critical", 0.5)

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
            xs, (ys,) = caputo_table(f, [FractionalSpec(alpha, x, side)], sub, points)
            out.append((table_modulus((xs, ys), (delta,))[0], float(np.max(np.abs(ys)))))
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

    def test_remark34_needs_a_non_empty_sweep(self):
        # an empty sweep read (True, 0.0): the premise certified over no n
        with pytest.raises(PreconditionViolated, match="non-empty sweep"):
            remark34_check(FRACTIONAL_CORPUS["sq"], 0.5, (), FAST_GRID)

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
        """caputo_table with a NaN in the alpha = 0.5 row of the left table of
        the anchor 0.5; the anchor cache is emptied around the test so no NaN
        entry outlives it."""
        real = bounds.caputo_table

        def table(f, specs, sub, points):
            xs, values = real(f, specs, sub, points)
            if specs[0].anchor == 0.5 and specs[0].side == "left":
                values = values.copy()
                row = [s.alpha for s in specs].index(0.5)
                values[row, values.shape[1] // 2] = math.nan
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


def reference_caputo(f, spec, xs):
    """One spec's Caputo derivative at the grid xs as one table at a time
    was built: its own node matrix, and f^(N) evaluated even when zero."""
    N, x0 = spec.N, spec.anchor
    left = spec.side == "left"
    xj, wj = _jacobi_rule(N - spec.alpha - 1.0, left, spec.quad_nodes)
    out = np.zeros_like(xs)
    live = xs > x0 if left else xs < x0
    d = np.abs(xs[live] - x0)
    tt = np.multiply.outer(d, (xj + 1.0) / 2.0)
    tt += x0 if left else xs[live][:, None]
    if np.any(live):
        core = np.asarray(f.derivative(N).eval(tt), dtype=float) @ wj
        sign = 1.0 if left else (-1.0) ** N
        out[live] = sign * (d / 2.0) ** (N - spec.alpha) * core / gamma_fn(N - spec.alpha)
    return out


def reference_anchor_tables(f, orders, grid, deltas):
    """_anchor_tables' arrays from one table per (order, anchor, side), each
    read by its own grid_modulus call."""
    (a, b), points = f.domain, grid.table_points
    xs = np.linspace(a, b, grid.anchors)
    moduli = np.zeros((len(orders), len(xs), 2, len(deltas)))
    sups = np.zeros((len(orders), len(xs), 2))
    for o, alpha in enumerate(orders):
        for k, x in enumerate(xs.tolist()):
            for i, (side, sub) in enumerate((("right", (a, x)), ("left", (x, b)))):
                if sub[1] - sub[0] > 1e-12:
                    grid_x = np.linspace(*sub, points)
                    ys = reference_caputo(f, FractionalSpec(alpha, x, side), grid_x)
                    moduli[o, k, i] = grid_modulus(grid_x, ys, deltas)
                    sups[o, k, i] = np.max(np.abs(ys))
    return xs, moduli, sups


#: every builtin fractional chain and every part of a complex one
CAPUTO_CHAINS = {**{f"fractional {k}": v for k, v in FRACTIONAL_CORPUS.items()},
                 **{f"{k} {part}": getattr(v, part) for k, v in COMPLEX_INTERVAL_CORPUS.items()
                    for part in ("re", "im")}}
DELTAS = Run.of((9, 16, 81, 256), (0.5, 0.8)).deltas
SMALL_GRID = GridPolicy(anchors=5, table_points=33)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAnchorTablesPerSide:
    """One caputo_table call per (anchor, side) for every order, and one
    table_modulus call per group of equal window sizes, give the arrays of
    one table per order bit for bit."""

    @staticmethod
    def assert_bit_identical(f, orders, grid):
        got = bounds._anchor_tables.__wrapped__(f, orders, grid, DELTAS)
        want = reference_anchor_tables(f, orders, grid, DELTAS)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("grid", [GridPolicy(), SMALL_GRID], ids=["default", "small"])
    @pytest.mark.parametrize("orders", [(0.5, 1.5), (0.3, 1.7), (0.5,)])
    @pytest.mark.parametrize("name", CAPUTO_CHAINS)
    def test_builtin_chains(self, name, orders, grid):
        self.assert_bit_identical(CAPUTO_CHAINS[name], orders, grid)

    @given(st.recursive(
        st.sampled_from(["x", "0.5", "2", "0", "(x - 0.25)^-1", "(x - 0.5)^0.5", "exp(900*x)"]),
        lambda kids: st.one_of(
            st.builds("({}) {} ({})".format, kids, st.sampled_from("+-*/"), kids),
            st.builds("{}({})".format, st.sampled_from(["sin", "exp", "erf"]), kids),
            st.builds("({})^{}".format, kids, st.sampled_from(["2", "3", "-1", "0.5"]))),
        max_leaves=6), st.sampled_from([(0.5, 1.5), (0.3, 1.7), (0.7,)]))
    @settings(max_examples=60, deadline=None)
    def test_expression_chains(self, text, orders):
        # poles, a root of a negative base and an overflow give NaN and +-inf;
        # a zero denominator raises on both paths
        f = function_from_expression("g", text, domain=(-1.0, 1.0), orders=2)
        try:
            want = reference_anchor_tables(f, orders, SMALL_GRID, DELTAS)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                bounds._anchor_tables.__wrapped__(f, orders, SMALL_GRID, DELTAS)
            return
        got = bounds._anchor_tables.__wrapped__(f, orders, SMALL_GRID, DELTAS)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_a_zero_f_N_keeps_zero_moduli_and_sups(self):
        # linear's f'' declares sup_norm 0.0: its rows are not evaluated
        f = INTERVAL_CORPUS["linear"]
        _, moduli, sups = bounds._anchor_tables.__wrapped__(f, (0.5, 1.5), SMALL_GRID, DELTAS)
        assert f.derivative(2).sup_norm == 0.0
        assert not moduli[1].any() and not sups[1].any() and moduli[0].any()

    def test_right_at_k_and_left_at_the_mirror_anchor_share_one_read(self, monkeypatch):
        calls = []
        real = bounds.table_modulus

        def spy(table, steps):
            calls.append(np.shape(table[1]))
            return real(table, steps)

        monkeypatch.setattr(bounds, "table_modulus", spy)
        bounds._anchor_tables.__wrapped__(FRACTIONAL_CORPUS["sin"], (0.5, 1.5), SMALL_GRID,
                                          DELTAS)
        # anchors 1..4 on the right, 0..3 on the left: four pairs of two tables
        assert calls == [(2, 2, 33)] * 4


class TestCaputoCeiling:
    """Every Caputo table omega and sup of a builtin fractional chain lies
    at or below its closed-form ceiling.  With nu = N - alpha, M = f^(N)'s
    declared sup and L = b - a:

        omega(D^alpha f, delta) <= (M delta^nu + omega(f^(N), delta) L^nu) / Gamma(nu + 1),
        sup |D^alpha f| <= M L^nu / Gamma(nu + 1),

    where omega(f^(N), delta) is the chain's exact modulus, else
    min(2M, delta sup|f^(N+1)|), else 2M.  The margin, one part in 1e12,
    covers only the Gauss-Jacobi rounding of the table values: for sq at
    alpha = 1.5, whose f'' is constant, the tables reach both ceilings."""

    MARGIN = 1e-12
    ORDERS = (0.5, 1.5)

    @staticmethod
    def ceilings(f, alpha, deltas):
        """(omega ceiling at each delta, sup ceiling) of f's Caputo
        derivative of order alpha on f's interval."""
        N = math.ceil(alpha)
        nu, fN = N - alpha, f.derivative(N)
        M, L = fN.sup_norm, f.domain[1] - f.domain[0]
        if fN.exact_modulus is not None:
            omega = np.array([fN.exact_modulus(d) for d in deltas])
        elif fN.derivatives:
            omega = np.minimum(2.0 * M, deltas * fN.derivative(1).sup_norm)
        else:
            omega = np.full(deltas.size, 2.0 * M)
        return ((M * deltas ** nu + omega * L ** nu) / gamma_fn(nu + 1.0),
                M * L ** nu / gamma_fn(nu + 1.0))

    @pytest.mark.parametrize("name", FRACTIONAL_CORPUS)
    def test_tables_lie_at_or_below_their_ceilings(self, name):
        f, deltas = FRACTIONAL_CORPUS[name], np.array(DELTAS)
        _, moduli, sups = bounds._anchor_tables.__wrapped__(f, self.ORDERS, GridPolicy(), DELTAS)
        for i, alpha in enumerate(self.ORDERS):
            omega, sup = self.ceilings(f, alpha, deltas)
            # moduli[i] is (anchors, sides, deltas), sups[i] (anchors, sides)
            assert np.all(moduli[i] <= omega * (1.0 + self.MARGIN)), (name, alpha)
            assert np.all(sups[i] <= sup * (1.0 + self.MARGIN)), (name, alpha)
            if (name, alpha) == ("sq", 1.5):
                assert np.max(moduli[i] / omega) >= 1.0 - self.MARGIN
                assert np.max(sups[i]) >= sup * (1.0 - self.MARGIN)


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

    @pytest.mark.parametrize("error", [math.nan, math.inf])
    def test_non_finite_errors_are_degenerate(self, error):
        # np.polyfit would return a (nan, nan) fit
        with pytest.raises(DegenerateFit, match="finite"):
            fit_rate([(16, 0.1), (81, error), (256, 0.01)])

    @pytest.mark.parametrize("n", [0.0, -1.0, math.nan, math.inf])
    def test_a_non_finite_or_non_positive_n_is_degenerate(self, n, capfd):
        # np.polyfit raised LinAlgError, and LAPACK printed to stderr
        with pytest.raises(DegenerateFit, match="finite"):
            fit_rate([(1, 1.0), (2, 0.5), (n, 0.2)])
        assert capfd.readouterr().err == ""


class TestVerdict:
    def test_exact_tolerance_is_one_part_in_1e9(self):
        bound = 0.25
        assert bounds._verdict(bound * (1.0 + 1e-10), bound, "exact") == "holds"
        assert bounds._verdict(bound * (1.0 + 1e-8), bound, "exact") == "violated"
        assert bounds._verdict(bound * (1.0 + 1e-8), bound, "estimated") == "inconclusive-estimated"


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

    @pytest.mark.parametrize("grid", [{"x_points": 64.5}, {"anchors": 5.0},
                                      {"table_points": "65"}, {"pointwise_points": True}])
    def test_a_grid_count_that_is_not_an_integer_is_a_precondition(self, grid):
        # 64.5 and 5.0 were accepted, and verify then died in numpy with a
        # TypeError that run_verify does not catch
        key = next(iter(grid))
        with pytest.raises(PreconditionViolated, match=f"GridPolicy.{key} must be an integer"):
            GridPolicy(**grid)
        assert getattr(GridPolicy(**{key: np.int64(65)}), key) == 65

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


class TestOneSupSamplePerFunction:
    """A run evaluates each function once on its sup grid, whatever the
    number of n and families its group measures."""

    GRID = GridPolicy(x_points=64)              # a sup grid of 127 points
    SWEEP = (16, 81, 256)
    CASES = [("T12", INTERVAL_CORPUS["sin"]), ("T13", LINE_CORPUS["cos"]),
             ("T41", COMPLEX_LINE_CORPUS["circle"])]

    #: two more functions of each theorem, measured before and after f
    OTHERS = {
        "T12": (INTERVAL_CORPUS["exp"], INTERVAL_CORPUS["abs"]),
        "T13": (LINE_CORPUS["sin"], LINE_CORPUS["abs"]),
        "T41": (ComplexFunctionSpec("sin_cos", LINE_CORPUS["sin"], LINE_CORPUS["cos"]),
                ComplexFunctionSpec("abs_const", LINE_CORPUS["abs"], LINE_CORPUS["const"])),
    }

    @staticmethod
    def variant(f, name, eval_of):
        """f with each part's eval replaced by eval_of(part)."""
        parts = [dataclasses.replace(p, name=f"{name}.{p.name}", eval=eval_of(p))
                 for p in f.parts]
        return parts[0] if len(parts) == 1 else ComplexFunctionSpec(name, *parts)

    @staticmethod
    def sup_grid(f):
        return np.linspace(*f.sample_window(), 127)

    @pytest.mark.parametrize("theorem, f", CASES)
    def test_each_group_evaluates_its_function_once_on_the_sup_grid(self, theorem, f):
        grid_calls = []

        def logged(p):
            def eval_(t):
                if np.shape(t) == (127,) and np.array_equal(t, self.sup_grid(f)):
                    grid_calls.append(p.name)
                return p.eval(t)
            return eval_

        counted = self.variant(f, "counted", logged)
        run = Run.of(self.SWEEP, (0.5, 0.6), self.GRID)
        rows = verify(theorem, counted, self.SWEEP, 0.5, self.GRID, run=run)
        rows += verify(theorem, counted, self.SWEEP, 0.6, self.GRID, run=run)
        assert len(rows) == 2 * len(self.SWEEP) * len(bounds.THEOREMS[theorem].families)
        assert sorted(grid_calls) == sorted(p.name for p in f.parts)
        alone = [dataclasses.replace(r, function_id=counted.name)
                 for e in (0.5, 0.6) for r in verify(theorem, f, self.SWEEP, e, self.GRID)]
        assert rows == alone

    @pytest.mark.parametrize("theorem", ["T37", "T41"])
    def test_a_complex_sup_grid_spans_both_parts_windows(self, theorem):
        # const lives on (-2, 2) and abs on (-4, 4): the grid of either
        # order is (-4, 4), so both orders give the same rows
        const, abs_ = LINE_CORPUS["const"], LINE_CORPUS["abs"]
        pairs = [ComplexFunctionSpec("pair", const, abs_), ComplexFunctionSpec("pair", abs_, const)]
        assert [g.sample_window() for g in pairs] == [(-4.0, 4.0)] * 2
        first, second = (verify(theorem, g, self.SWEEP, 0.5, self.GRID) for g in pairs)
        assert first == second and {r.verdict for r in first} == {"holds"}

    def test_a_part_off_its_complex_sup_grid_measures_itself(self, monkeypatch):
        # sin on (-2, 2) and cos on its own window (-pi, pi): the pair's call
        # on (-pi, pi) gives cos its real entry, and sin, whose own grid is
        # another, measures itself
        sin = dataclasses.replace(LINE_CORPUS["sin"], grid_window=(-2.0, 2.0))
        cos = LINE_CORPUS["cos"]
        pair = ComplexFunctionSpec("pair", sin, cos)
        assert sin.sample_window() != pair.sample_window() == cos.sample_window()
        calls, real = [], bounds.apply_operator
        monkeypatch.setattr(bounds, "apply_operator",
                            lambda f, x, cfg, work=None: calls.append(f) or real(f, x, cfg, work))
        groups = (("T37", pair), ("T13", sin), ("T13", cos))
        run = Run.of(self.SWEEP, (0.5,), self.GRID)
        shared = [verify(theorem, g, self.SWEEP, 0.5, self.GRID, run=run) for theorem, g in groups]
        assert calls == [pair] * 3 + [sin] * 3
        # repr tells every float apart by its bits, -0.0 from 0.0 too
        assert repr(shared) == repr([verify(theorem, g, self.SWEEP, 0.5, self.GRID)
                                     for theorem, g in groups])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("theorem, f", CASES)
    def test_a_nan_at_one_sup_grid_point_reads_non_finite_at_every_n_and_family(
            self, theorem, f):
        # the point is off every node k/n + t_j, and the bound reads a declared
        # sup and an exact modulus, so only the sup-grid sample sees the nan;
        # a sample kept without it would pass every row after the first
        x_nan = self.sup_grid(f)[50]
        poisoned = self.variant(f, "poisoned", lambda p: (
            lambda t: np.where(np.asarray(t) == x_nan, np.nan, p.eval(t))))
        clean = self.variant(f, "clean", lambda p: p.eval)
        others = self.OTHERS[theorem]

        def rows_of(middle):
            run = Run.of(self.SWEEP, (0.5,), self.GRID)
            return [verify(theorem, g, self.SWEEP, 0.5, self.GRID, run=run)
                    for g in (others[0], middle, others[1])]

        before, nan_rows, after = rows_of(poisoned)
        assert len(nan_rows) == len(self.SWEEP) * len(bounds.THEOREMS[theorem].families)
        assert {r.verdict for r in nan_rows} == {"non-finite"}
        assert all(math.isfinite(r.bound_value) for r in nan_rows)
        clean_before, clean_rows, clean_after = rows_of(clean)
        assert {r.verdict for r in clean_rows} == {"holds"}
        assert (before, after) == (clean_before, clean_after)


class TestInputChecks:
    def test_an_unknown_fractional_mode_is_a_precondition(self):
        with pytest.raises(PreconditionViolated, match="unknown mode 'median'"):
            fractional_bound(FRACTIONAL_CORPUS["sq"], 81, 0.5, 0.5, "median")

    @pytest.mark.parametrize("entry", [16.7, 0, -4, math.nan, True],
                             ids=["fraction", "zero", "negative", "nan", "bool"])
    @pytest.mark.parametrize("entry_point", ["verify", "Run.of", "verify with a run"])
    def test_a_bad_sweep_entry_is_named(self, entry_point, entry):
        # unchecked, each fails later with an error that does not name it,
        # and 0, -4 and nan with one outside ErfApproxError
        sweep, grid = (16, entry), GridPolicy(x_points=64)
        with pytest.raises(PreconditionViolated, match=f"sweep entry {entry!r} must be"):
            if entry_point == "Run.of":
                Run.of(sweep, (0.5,), grid)
            else:
                run = Run.of((16,), (0.5,), grid) if entry_point != "verify" else None
                verify("T13", LINE_CORPUS["sin"], sweep, 0.5, grid, run=run)

    def test_an_integral_float_sweep_entry_runs(self):
        grid = GridPolicy(x_points=64)
        rows = verify("T13", LINE_CORPUS["sin"], (16.0,), 0.5, grid)
        assert rows == verify("T13", LINE_CORPUS["sin"], (16,), 0.5, grid)
