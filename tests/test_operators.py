"""Operator tests against an independent direct-summation oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erfapprox import operators, partition
from erfapprox.corpus import (
    COMPLEX_INTERVAL_CORPUS,
    COMPLEX_LINE_CORPUS,
    INTERVAL_CORPUS,
    LINE_CORPUS,
    function_from_expression,
)
from erfapprox.errors import (
    DomainViolation,
    InvalidWeights,
    PreconditionViolated,
    UnboundedFunction,
)
from erfapprox.funcs import ComplexFunctionSpec, FunctionSpec
from erfapprox.special_functions import chi
from erfapprox.operators import OperatorConfig, QuadratureWeights, Workspace, apply_operator


def chi_oracle(t: float) -> float:
    # independent of the package's erf
    return (math.erf(t + 1.0) - math.erf(t - 1.0)) / 4.0


def op_a_oracle(fn, x, n, a, b):
    lo, hi = math.ceil(n * a), math.floor(n * b)
    num = den = 0.0
    for k in range(lo, hi + 1):
        w = chi_oracle(n * x - k)
        num += fn(k / n) * w
        den += w
    return num / den


def op_b_oracle(fn, x, n, radius=30):
    c = round(n * x)
    return sum(fn(k / n) * chi_oracle(n * x - k) for k in range(c - radius, c + radius + 1))


def op_c_oracle(fn, x, n, radius=30):
    from scipy.integrate import quad

    c = round(n * x)
    total = 0.0
    for k in range(c - radius, c + radius + 1):
        cell, _ = quad(fn, k / n, (k + 1) / n, epsabs=1e-13, epsrel=1e-13)
        total += n * cell * chi_oracle(n * x - k)
    return total


def op_d_oracle(fn, x, n, wts, radius=30):
    c = round(n * x)
    total = 0.0
    for k in range(c - radius, c + radius + 1):
        delta = sum(
            w * fn(k / n + r / (n * wts.theta)) for r, w in enumerate(wts.w)
        )
        total += delta * chi_oracle(n * x - k)
    return total


SIN_LINE = LINE_CORPUS["sin"]
SIN_INT = INTERVAL_CORPUS["sin"]


class TestOpA:
    @pytest.mark.parametrize("x", [-3.0, -1.2, 0.0, 0.7, 3.14159])
    def test_matches_oracle(self, x):
        cfg = OperatorConfig("A", 16, interval=(-math.pi, math.pi))
        got = apply_operator(SIN_INT, x, cfg)
        want = op_a_oracle(math.sin, x, 16, -math.pi, math.pi)
        assert abs(got - want) <= 1e-13

    def test_reproduces_constants_exactly_inside(self):
        f = INTERVAL_CORPUS["const"]
        cfg = OperatorConfig("A", 32, interval=(0.0, 1.0))
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(apply_operator(f, xs, cfg) - 1.0)) <= 1e-14

    def test_domain_enforced(self):
        cfg = OperatorConfig("A", 16, interval=(0.0, 1.0))
        with pytest.raises(DomainViolation):
            apply_operator(INTERVAL_CORPUS["linear"], 1.5, cfg)

    def test_family_checked(self):
        # the guards follow cfg.family: A bounds its sum by the interval and
        # needs no sup norm, while B, C and D need one for their truncation
        unbounded = FunctionSpec("id", lambda t: np.asarray(t, dtype=float))
        cfg = OperatorConfig("A", 16, interval=(0.0, 1.0))
        got = apply_operator(unbounded, 0.7, cfg)
        assert abs(got - op_a_oracle(lambda t: t, 0.7, 16, 0.0, 1.0)) <= 1e-13
        for line in (OperatorConfig("B", 16), OperatorConfig("C", 16),
                     OperatorConfig("D", 16, weights=QuadratureWeights.uniform(2))):
            with pytest.raises(UnboundedFunction):
                apply_operator(unbounded, 0.7, line)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, c1, c2):
        cfg = OperatorConfig("A", 16, interval=(-math.pi, math.pi))
        f = SIN_INT
        g = INTERVAL_CORPUS["cos"]
        combo = FunctionSpec(
            "combo", lambda t: c1 * f.eval(t) + c2 * g.eval(t), domain=(-math.pi, math.pi)
        )
        x = 0.37
        lhs = apply_operator(combo, x, cfg)
        rhs = c1 * apply_operator(f, x, cfg) + c2 * apply_operator(g, x, cfg)
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(c1) + abs(c2))

    def test_positivity_and_envelope(self):
        # positive operator: min f <= A_n f <= max f
        cfg = OperatorConfig("A", 25, interval=(-math.pi, math.pi))
        xs = np.linspace(-math.pi, math.pi, 301)
        vals = apply_operator(SIN_INT, xs, cfg)
        assert np.all(vals >= -1.0 - 1e-14)
        assert np.all(vals <= 1.0 + 1e-14)


class TestOpB:
    @pytest.mark.parametrize("x", [-2.5, -0.3, 0.0, 1.1, 2.9])
    def test_matches_oracle(self, x):
        cfg = OperatorConfig("B", 16)
        got = apply_operator(SIN_LINE, x, cfg)
        want = op_b_oracle(math.sin, x, 16)
        assert abs(got - want) <= 1e-13

    def test_requires_sup_norm(self):
        unbounded = FunctionSpec("id", lambda t: np.asarray(t, dtype=float))
        with pytest.raises(UnboundedFunction):
            apply_operator(unbounded, 0.0, OperatorConfig("B", 16))

    def test_reproduces_constants(self):
        f = LINE_CORPUS["const"]
        cfg = OperatorConfig("B", 16)
        xs = np.linspace(-2.0, 2.0, 101)
        assert np.max(np.abs(apply_operator(f, xs, cfg) - 1.0)) <= 1e-13


class TestOpC:
    @pytest.mark.parametrize("x", [-1.1, 0.0, 0.42, 2.0])
    def test_matches_oracle(self, x):
        cfg = OperatorConfig("C", 16)
        got = apply_operator(SIN_LINE, x, cfg)
        want = op_c_oracle(math.sin, x, 16)
        assert abs(got - want) <= 1e-11

    def test_linear_shift_identity(self):
        # for f(t) = t the cell average equals f(k/n) + 1/(2n), so
        # C_n f = B_n f + 1/(2n) wherever the clip is inactive
        f = LINE_CORPUS["linear"]
        n = 16
        xs = np.linspace(-2.0, 2.0, 41)
        c = apply_operator(f, xs, OperatorConfig("C", n))
        b = apply_operator(f, xs, OperatorConfig("B", n))
        assert np.max(np.abs(c - (b + 1.0 / (2.0 * n)))) <= 1e-12


class TestOpD:
    def test_matches_oracle(self):
        wts = QuadratureWeights.uniform(4)
        cfg = OperatorConfig("D", 16, weights=wts)
        for x in (-1.7, 0.0, 0.9):
            got = apply_operator(SIN_LINE, x, cfg)
            want = op_d_oracle(math.sin, x, 16, wts)
            assert abs(got - want) <= 1e-13

    @pytest.mark.parametrize("n", [9, 16, 81, 256, 1024])
    def test_degenerate_weights_bit_identical_to_op_b(self, n):
        cfg_d = OperatorConfig("D", n, weights=QuadratureWeights(1, (1.0, 0.0)))
        cfg_b = OperatorConfig("B", n)
        xs = np.linspace(-3.0, 3.0, 257)
        for f in (SIN_LINE, LINE_CORPUS["abs"], LINE_CORPUS["linear"]):
            d = apply_operator(f, xs, cfg_d)
            b = apply_operator(f, xs, cfg_b)
            assert np.array_equal(d, b)

    def test_weight_validation(self):
        with pytest.raises(InvalidWeights):
            QuadratureWeights(2, (0.5, 0.5))            # wrong count
        with pytest.raises(InvalidWeights):
            QuadratureWeights(1, (1.5, -0.5))           # negative
        with pytest.raises(InvalidWeights):
            QuadratureWeights(1, (0.6, 0.6))            # sum != 1
        with pytest.raises(PreconditionViolated):
            OperatorConfig("D", 8)                      # weights required

    @pytest.mark.parametrize("w", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_a_nan_weight_is_invalid(self, w):
        # nan < 0 and a nan sum's distance from 1 both compared False, so the
        # weights passed and every family-D image was NaN
        with pytest.raises(InvalidWeights):
            QuadratureWeights(1, w)

    @pytest.mark.parametrize("n", [2.5, 16.0, "16", True])
    def test_an_n_that_is_not_an_integer_is_a_precondition(self, n):
        # 2.5 built an operator the paper does not define
        with pytest.raises(PreconditionViolated, match="n must be an integer"):
            OperatorConfig("B", n)
        assert OperatorConfig("B", np.int64(16)).n == 16


class TestComplex:
    def test_componentwise_bit_exact(self):
        f = COMPLEX_LINE_CORPUS["circle"]
        cfg = OperatorConfig("B", 32)
        xs = np.linspace(-2.0, 2.0, 101)
        re, im = apply_operator(f, xs, cfg)
        assert np.array_equal(re, apply_operator(f.re, xs, cfg))
        assert np.array_equal(im, apply_operator(f.im, xs, cfg))

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_one_chi_call_per_complex_image(self, family, monkeypatch):
        if family == "A":
            f = COMPLEX_INTERVAL_CORPUS["circle"]
            cfg = OperatorConfig("A", 32, interval=f.domain)
            xs = np.linspace(*f.domain, 101)
        else:
            f = COMPLEX_LINE_CORPUS["circle"]
            weights = QuadratureWeights.uniform(4) if family == "D" else None
            cfg = OperatorConfig(family, 32, weights=weights)
            xs = np.linspace(-2.0, 2.0, 101)
        want = [apply_operator(p, xs, cfg) for p in f.parts]

        calls = []

        def counting(t, buffers=None):
            calls.append(np.shape(t))
            return chi(t, buffers)

        monkeypatch.setattr(operators, "chi", counting)
        apply_operator(f.re, xs, cfg)
        assert len(calls) == 1
        calls.clear()
        re, im = apply_operator(f, xs, cfg)
        assert len(calls) == 1
        assert np.array_equal(re, want[0]) and np.array_equal(im, want[1])

        point = apply_operator(f, 0.25, cfg)
        assert point == (apply_operator(f.re, 0.25, cfg), apply_operator(f.im, 0.25, cfg))
        assert all(isinstance(v, float) for v in point)


class CountingSpec:
    """Wraps a FunctionSpec; counts the calls of its eval and the points
    they see."""

    def __init__(self, f):
        self.calls = self.points = 0

        def counted(t):
            self.calls += 1
            self.points += np.size(t)
            return f.eval(t)

        self.spec = FunctionSpec(f.name, counted, domain=f.domain, sup_norm=f.sup_norm)


def dense_window(n, xs, radius):
    """u = nx and the indices round(u) + (0, -1, 1, ..., -R, R) per point."""
    offs = [0]
    for r in range(1, radius + 1):
        offs.extend((-r, r))
    u = n * xs
    return u, np.round(u)[:, None] + np.array(offs, dtype=float)[None, :]


def dense_line(f, xs, n, radius, offsets, weights):
    """The points x window x nodes formula: f at every node of every window."""
    u, ks = dense_window(n, xs, radius)
    tt = ks[:, :, None] / n + offsets[None, None, :]
    vals = np.tensordot(f.eval(tt), weights, axes=([2], [0]))
    return (vals * chi(u[:, None] - ks)).sum(axis=1), ks


def blocks(points, nodes):
    """Node functional evaluations of a call that samples f at points node
    points, nodes per index k."""
    return -(-(points // nodes) // (operators.NODE_POINTS // nodes))


class TestOneNodeFunctionalPerIndex:
    N = 81
    RADIUS = partition.RADIUS
    # at n = 2048 the windows of a 10-wide grid cover 2 blocks of A's and
    # B's single node, 7 of D's 5 nodes and 11 of C's 8
    BLOCKED = 2048

    def check_a(self, f, n, xs):
        a, b = xs[0], xs[-1]
        radius = self.RADIUS
        u = n * xs
        ks = np.round(u).astype(np.int64)[:, None] + np.arange(-radius, radius + 1)[None, :]
        lo, hi = math.ceil(n * a), math.floor(n * b)
        valid = (ks >= lo) & (ks <= hi)
        assert not valid.all()                  # edge rows are masked and clipped
        chiv = np.where(valid, chi(u[:, None] - ks), 0.0)
        ks = np.clip(ks, lo, hi)
        want = (f.eval(ks / n) * chiv).sum(axis=1) / chiv.sum(axis=1)

        counting = CountingSpec(f)
        got = apply_operator(counting.spec, xs, OperatorConfig("A", n, interval=(a, b)))
        assert np.array_equal(got, want)
        assert counting.points <= ks.max() - ks.min() + 1
        return counting

    def test_op_a(self):
        self.check_a(SIN_INT, self.N, np.linspace(*SIN_INT.domain, 513))

    def test_op_a_in_blocks(self):
        counting = self.check_a(SIN_LINE, self.BLOCKED, np.linspace(-5.0, 5.0, 4095))
        assert counting.calls == blocks(counting.points, 1) > 1

    def line_rule(self, family, n=N):
        wts = QuadratureWeights.uniform(4) if family == "D" else None
        cfg = OperatorConfig(family, n, weights=wts)
        if family == "B":
            offsets, weights = np.zeros(1), np.ones(1)
        elif family == "C":
            glx, glw = np.polynomial.legendre.leggauss(operators.KANTOROVICH_NODES)
            offsets, weights = (glx + 1.0) / (2.0 * n), glw / 2.0
        else:
            offsets = np.arange(5, dtype=float) / (n * 4)
            weights = np.asarray(wts.w)
        return cfg, offsets, weights

    def check_line(self, family, xs, n=N):
        cfg, offsets, weights = self.line_rule(family, n)
        want, ks = dense_line(SIN_LINE, xs, n, self.RADIUS, offsets, weights)

        counting = CountingSpec(SIN_LINE)
        got = apply_operator(counting.spec, xs, cfg)
        assert np.array_equal(got, want)
        assert counting.points <= len(np.unique(ks)) * len(weights)
        return counting

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_line_operators(self, family):
        self.check_line(family, np.linspace(-2.5, 2.5, 513))

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_line_operators_in_blocks(self, family):
        counting = self.check_line(family, np.linspace(-5.0, 5.0, 4095), self.BLOCKED)
        nodes = len(self.line_rule(family)[2])
        assert counting.calls == blocks(counting.points, nodes) > 1

    @pytest.mark.parametrize("family", ["B", "C", "D"])
    def test_far_apart_points_cost_their_windows_only(self, family):
        # an arange over k_min..k_max would need about 1.6e8 nodes here
        self.check_line(family, np.array([-1e6, 0.3, 1e6]))

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_nan_point_gives_nan(self, family):
        if family == "A":
            f, cfg = SIN_INT, OperatorConfig("A", self.N, interval=SIN_INT.domain)
        else:
            f, (cfg, _, _) = SIN_LINE, self.line_rule(family)
        # no warning either: a window with nan keeps its indices as floats,
        # so a nan x is never cast to an integer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_operator(f, np.array([0.3, np.nan]), cfg)
        assert got[0] == apply_operator(f, 0.3, cfg)
        assert np.isnan(got[1])


def points_major(part, xs, cfg):
    """The operator as one points x window sum, its kernel computed
    points-major: (L[idx] * chi((u - r)[:, None] - offsets)).sum(axis=1),
    divided by the window's chi sum for A."""
    n, radius = cfg.n, partition.RADIUS
    u = n * xs
    r = np.round(u)
    if cfg.family == "A":
        offsets = np.arange(-radius, radius + 1.0)
        lo, hi = partition.index_window(n, *cfg.interval)
    else:
        offsets = operators.CENTRE_OUT
        lo, hi = -math.inf, math.inf
    ks = r[:, None] + offsets
    chiv = chi((u - r)[:, None] - offsets)
    chiv[(ks < lo) | (ks > hi)] = 0.0
    kk, idx = np.unique(np.clip(ks, lo, hi), return_inverse=True)
    t, w = operators._node_rule(cfg)
    L = np.tensordot(part.eval(kk[:, None] / n + t), w, axes=([1], [0]))
    vals = (L[idx.reshape(ks.shape)] * chiv).sum(axis=1)
    return vals / chiv.sum(axis=1) if cfg.family == "A" else vals


class TestWindowSum:
    """_window_sum adds window-major rows in a summation order as numpy adds
    the contiguous points-major rows of the same entries, bit for bit."""

    ORDERS = {"ascending": operators.ASCENDING, "centre-out": operators.CENTRE_OUT,
              "outermost-first": operators.CENTRE_OUT[::-1]}

    @staticmethod
    def points_major(rows, order):
        # a strided .T.sum(axis=1) adds one row at a time, not pairwise
        picked = rows[(order + partition.RADIUS).astype(int)]
        return np.ascontiguousarray(picked.T).sum(axis=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")        # inf - inf, overflow
    @pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
    @given(st.integers(0, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_points_major_sum(self, order, points, data):
        special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                   -2.5e-310, 2.2250738585072014e-308, 1.0, -1e16])
        values = st.one_of(special, st.floats(width=64))
        size = operators.WINDOW * points
        rows = np.array(data.draw(st.lists(values, min_size=size, max_size=size)),
                        dtype=float).reshape(operators.WINDOW, points)
        got, want = operators._window_sum(rows, order), self.points_major(rows, order)
        # a NaN's sign and payload follow the operand order of numpy's
        # compiled add, which the compiler may swap; every report prints "nan"
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
    def test_a_window_of_negative_zeros_sums_to_positive_zero(self, order):
        rows = np.full((operators.WINDOW, 3), -0.0)
        got = operators._window_sum(rows, order)
        assert got.tobytes() == np.zeros(3).tobytes() == self.points_major(rows, order).tobytes()


class TestWindowMajorKernel:
    """apply_operator runs chi window-major, gathers and weights each part's
    node values on chi's own rows and adds them in the family's summation
    order, so it adds every window as the points-major kernel did, bit for
    bit."""

    # at n = 1 A on [-pi, pi] has the 7 indices -3..3, so every window of
    # radius 7 leaves the index range and the whole chi matrix is masked
    @pytest.mark.parametrize("n", [1, 9, 81, 2048])
    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_equals_the_points_major_sum(self, family, n, kind):
        real = kind == "real"
        if family == "A":
            f = INTERVAL_CORPUS["sin"] if real else COMPLEX_INTERVAL_CORPUS["circle"]
            cfg = OperatorConfig("A", n, interval=f.domain)
            xs = np.linspace(*f.domain, 1001)
        else:
            f = LINE_CORPUS["sin"] if real else COMPLEX_LINE_CORPUS["circle"]
            weights = QuadratureWeights.uniform(4) if family == "D" else None
            cfg = OperatorConfig(family, n, weights=weights)
            xs = np.linspace(-2.5, 2.5, 1001)
        got = apply_operator(f, xs, cfg)
        for image, part in zip((got,) if real else got, f.parts):
            assert np.array_equal(image, points_major(part, xs, cfg))


def bits(image):
    """An image's bytes: one array, a complex image's pair, or a float."""
    return np.asarray(image, dtype=float).tobytes()


class TestWorkspace:
    """Calls that share one Workspace give the bits each gives alone, in any
    order of families, n and grid sizes."""

    @staticmethod
    def calls():
        """(f, x, cfg) for A-D, real and complex, at n = 9 and 256, on 4095,
        17 and 1 points."""
        out = []
        for family in "ABCD":
            for real in (True, False):
                if family == "A":
                    f = INTERVAL_CORPUS["sin"] if real else COMPLEX_INTERVAL_CORPUS["circle"]
                    lo, hi = f.domain
                else:
                    f = LINE_CORPUS["sin"] if real else COMPLEX_LINE_CORPUS["circle"]
                    lo, hi = -2.5, 2.5
                for n in (9, 256):
                    cfg = OperatorConfig(family, n, interval=f.domain,
                                         weights=QuadratureWeights.uniform(4)
                                         if family == "D" else None)
                    out += [(f, np.linspace(lo, hi, points), cfg) for points in (4095, 17)]
                    out.append((f, np.array([0.5 * (lo + hi) + 0.1]), cfg))
        return out

    def test_interleaved_calls_give_the_bits_of_lone_calls(self):
        calls = self.calls()
        lone = [bits(apply_operator(f, x, cfg)) for f, x, cfg in calls]
        work = Workspace()
        # small calls after large ones, then large after small
        for order in (range(len(calls)), reversed(range(len(calls))),
                      sorted(range(len(calls)), key=lambda i: calls[i][1].size)):
            for i in order:
                f, x, cfg = calls[i]
                assert bits(apply_operator(f, x, cfg, work=work)) == lone[i], (i, cfg)

    def test_a_call_that_raises_midway_leaves_the_next_intact(self):
        calls = self.calls()
        sin = LINE_CORPUS["sin"]
        seen = []

        def fails_on_second_block(t):
            seen.append(t.size)
            if len(seen) == 2:
                raise RuntimeError("eval failed")
            return np.sin(t)

        # B at n = 2048 on a 10-wide grid evaluates its nodes in two blocks
        bad = FunctionSpec("bad", fails_on_second_block, sup_norm=1.0)
        bad_im = ComplexFunctionSpec("bad_im", sin, FunctionSpec(
            "raises", lambda t: 1 / 0, sup_norm=1.0))
        work = Workspace()
        for f, x, cfg in calls:
            want = bits(apply_operator(f, x, cfg))
            for broken, n in ((bad, 2048), (bad_im, 81)):
                seen.clear()
                with pytest.raises((RuntimeError, ZeroDivisionError)):
                    apply_operator(broken, np.linspace(-5.0, 5.0, 4095),
                                   OperatorConfig("B", n), work=work)
                assert bits(apply_operator(f, x, cfg, work=work)) == want, cfg

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_nan_point_gives_nan_through_a_workspace(self, family):
        calls = [c for c in self.calls() if c[2].family == family]
        work = Workspace()
        for f, x, cfg in calls:
            apply_operator(f, x, cfg, work=work)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = apply_operator(f, np.array([x[0], np.nan]), cfg, work=work)
            for image, part in zip(got if len(f.parts) == 2 else (got,), f.parts):
                assert image[0] == apply_operator(part, x[0], cfg) and np.isnan(image[1])
            assert bits(apply_operator(f, x, cfg, work=work)) == bits(apply_operator(f, x, cfg))


def test_working_set_of_one_call_is_bounded():
    # one expr-dense call: family C at n = 2048 on a 10.4-wide window; the
    # points x window x nodes formula peaked at 6.6 MB here, and a call with
    # a fresh workspace peaks near 2.4 MB
    w = function_from_expression("w", "0.42*sin(1.91*x)*cos(2.28*x)", sup_norm=0.42,
                                 grid_window=(-4.95, 5.42))
    # A at n = 1 on [0, 1]: every window leaves the index range [0, 1], so
    # the mask covers every row; with a fresh workspace it peaks near 1.77 MB
    linear = INTERVAL_CORPUS["linear"]
    # through a workspace that an earlier call grew, a call allocates only
    # its node values and small temporaries: 0.87 and 0.23 MB
    for f, lo, hi, cfg, ceiling, warm in [
        (w, -4.95, 5.42, OperatorConfig("C", 2048), 3e6, 1e6),
        (linear, 0.0, 1.0, OperatorConfig("A", 1, interval=(0.0, 1.0)), 1.8e6, 0.3e6),
    ]:
        xs = np.linspace(lo, hi, 4095)
        work = Workspace()
        apply_operator(f, xs, cfg, work)
        for shared, most in ((None, ceiling), (work, warm)):
            tracemalloc.start()
            try:
                apply_operator(f, xs, cfg, shared)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < most, (cfg, shared)


class TestConfig:
    def test_unknown_family(self):
        with pytest.raises(PreconditionViolated):
            OperatorConfig("Z", 8)

    def test_interval_required_for_a(self):
        with pytest.raises(PreconditionViolated):
            OperatorConfig("A", 8)

    @pytest.mark.parametrize("family, kw", [
        ("B", {"interval": (0.0, 1.0)}),
        ("C", {"interval": (0.0, 1.0)}),
        ("D", {"interval": (0.0, 1.0), "weights": QuadratureWeights.uniform(4)}),
        ("A", {"interval": (0.0, 1.0), "weights": QuadratureWeights.uniform(4)}),
        ("B", {"weights": QuadratureWeights.uniform(4)}),
        ("C", {"weights": QuadratureWeights.uniform(4)}),
    ])
    def test_knob_the_family_ignores_is_rejected(self, family, kw):
        # each of these used to be kept and never read
        with pytest.raises(PreconditionViolated):
            OperatorConfig(family, 16, **kw)

    def test_apply_operator_dispatch(self):
        # one entry point: cfg.family picks the node rule, a scalar x gives a
        # float and an array x the same value elementwise
        x, n = 0.3, 16
        wts = QuadratureWeights.uniform(4)
        cases = [
            (SIN_INT, OperatorConfig("A", n, interval=(-math.pi, math.pi)),
             op_a_oracle(math.sin, x, n, -math.pi, math.pi), 1e-13),
            (SIN_LINE, OperatorConfig("B", n), op_b_oracle(math.sin, x, n), 1e-13),
            (SIN_LINE, OperatorConfig("C", n), op_c_oracle(math.sin, x, n), 1e-11),
            (SIN_LINE, OperatorConfig("D", n, weights=wts),
             op_d_oracle(math.sin, x, n, wts), 1e-13),
        ]
        for f, cfg, want, tol in cases:
            got = apply_operator(f, x, cfg)
            assert isinstance(got, float)
            assert got == apply_operator(f, np.array([x]), cfg)[0]
            assert abs(got - want) <= tol


class TestInputChecks:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: QuadratureWeights(0, ()), InvalidWeights, "theta must be a positive integer"),
        (lambda: OperatorConfig("B", 0), PreconditionViolated, "n must be >= 1"),
        (lambda: OperatorConfig("A", 4, interval=(1.0, 1.0)), PreconditionViolated,
         r"need a < b, got \[1.0, 1.0\]"),
        (lambda: operators.partition_sum(0.3, 0), PreconditionViolated, "n must be >= 1"),
        (lambda: operators.boundary_deficiency(4, 0.0, 1.0, "c"), PreconditionViolated,
         "at_end must be 'a' or 'b', got 'c'"),
    ], ids=["theta", "n", "interval", "partition_sum", "at_end"])
    def test_a_bad_argument_is_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
