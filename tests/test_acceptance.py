"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, runs it at its stated
tolerance, checks the runtime budget, and emits a single PASS line.
"""

import math
import time

import numpy as np
import pytest

from erfapprox.bounds import GridPolicy, fit_rate, remark34_check, verify
from erfapprox.corpus import (
    COMPLEX_INTERVAL_CORPUS,
    COMPLEX_LINE_CORPUS,
    FRACTIONAL_CORPUS,
    INTERVAL_CORPUS,
    LINE_CORPUS,
)
from erfapprox.fractional import FractionalSpec, caputo, caputo_monomial
from erfapprox.funcs import FunctionSpec
from erfapprox.operators import OperatorConfig, QuadratureWeights, apply_operator
from erfapprox.partition import (
    boundary_deficiency,
    chi_integral,
    interval_denominator,
    partition_sum,
    tail_comparison,
)
from erfapprox.special_functions import CHI_AT_ONE, CHI_AT_ZERO, INV_CHI_AT_ONE, chi, erf

SWEEP = (9, 16, 81, 256, 1024)
GRID = GridPolicy(x_points=2048, refinement=True)


class _Budget:
    def __init__(self, number, seconds, description):
        self.number = number
        self.seconds = seconds
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed <= self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
            print(f"criterion {self.number:2d} PASS ({elapsed:6.2f}s): {self.description}")
        return False


def qualifying(sweep, exponent):
    return tuple(n for n in sweep if float(n) ** (1.0 - exponent) >= 3.0)


def test_criterion_01_erf_anchors():
    with _Budget(1, 1.0, "erf anchor values at full precision"):
        assert abs(erf(1.0) - 0.8427007929497149) <= 1e-14
        assert abs(erf(2.0) - 0.9953222650189527) <= 1e-14


def test_criterion_02_density_constants():
    with _Budget(2, 1.0, "bell density constants"):
        assert abs(CHI_AT_ZERO - 0.42135) <= 1e-4
        assert abs(CHI_AT_ONE - 0.24883) <= 1e-4
        assert abs(INV_CHI_AT_ONE - 4.0188) <= 1e-3


def test_criterion_03_partition_of_unity():
    with _Budget(3, 10.0, "partition of unity over 1e4 points x 5 scales"):
        xs = np.linspace(-8.0, 8.0, 10_000)
        worst = max(
            float(np.max(np.abs(partition_sum(xs, n) - 1.0)))
            for n in (1, 2, 7, 50, 311)
        )
        assert worst <= 1e-12


def test_criterion_04_density_integral():
    with _Budget(4, 1.0, "unit mass, closed form vs quadrature"):
        closed = chi_integral(-12.0, 12.0)
        assert abs(closed - 1.0) <= 1e-12
        glx, glw = np.polynomial.legendre.leggauss(200)
        quad = 12.0 * float(np.sum(glw * chi(12.0 * glx)))
        assert abs(closed - quad) <= 1e-12


def test_criterion_05_tail_estimate():
    with _Budget(5, 10.0, "tail mass strictly below its closed-form bound"):
        rng = np.random.default_rng(42)
        combos = [
            (n, a)
            for n in SWEEP
            for a in (0.3, 0.5, 0.7, 0.9)
            if float(n) ** (1.0 - a) >= 3.0
        ]
        assert combos
        for n, alpha in combos:
            for x in rng.uniform(-2.0, 2.0, 100):
                s, bound = tail_comparison(float(x), n, alpha)
                assert s < bound, (n, alpha, x)


def test_criterion_06_denominator_bounds():
    with _Budget(6, 5.0, "denominator range and boundary deficiency"):
        for n in (10, 100, 1000, 10_000):
            xs = np.linspace(0.0, 1.0, 1001)
            vals = interval_denominator(xs, n, 0.0, 1.0)
            assert np.all(vals > 0.2488)
            assert np.all(vals <= 1.0 + 1e-15)
            assert boundary_deficiency(n, 0.0, 1.0, "a") >= 0.2488
            assert boundary_deficiency(n, 0.0, 1.0, "b") >= 0.2488


def test_criterion_07_jackson_bounds():
    with _Budget(7, 120.0, "first-order bounds hold across the corpus"):
        rows = []
        for alpha in (0.5, 0.8):
            ns = qualifying(SWEEP, alpha)
            for name in ("linear", "sin", "cos", "abs", "exp"):
                rows += verify("T12", INTERVAL_CORPUS[name], ns, alpha, GRID)
            for name in ("linear", "sin", "cos", "abs"):
                for tid in ("T13", "T14", "T15"):
                    rows += verify(tid, LINE_CORPUS[name], ns, alpha, GRID)
        assert rows
        for r in rows:
            assert r.verdict == "holds", (r.theorem_id, r.function_id, r.n)
            assert r.slack >= 0.0


def test_criterion_08_high_order_bound():
    with _Budget(8, 60.0, "high-order bound and critical-point decay rate"):
        alpha = 0.5
        ns = qualifying(SWEEP, alpha)
        # critical-point mode: t^2 at its flat point, N = 1 (the second
        # derivative does not vanish, so N = 2 is outside this mode)
        crit = verify("T16", INTERVAL_CORPUS["sq"], ns, alpha, GRID,
                      N=1, mode="critical", x0=0.0)
        assert all(r.verdict == "holds" for r in crit)
        slope, _ = fit_rate([(r.n, r.empirical_error) for r in crit])
        assert slope <= -(1 + 1) * alpha + 0.15
        # general mode: sin with N in {1, 2}
        for N in (1, 2):
            rows = verify("T16", INTERVAL_CORPUS["sin"], ns, alpha, GRID,
                          N=N, mode="sup")
            assert all(r.verdict == "holds" for r in rows)


def test_criterion_09_caputo_oracle():
    with _Budget(9, 30.0, "Caputo evaluator vs monomial closed form"):
        for alpha in (0.5, 1.5, 2.5):
            N = math.ceil(alpha)
            for power in (N, N + 1, N + 2):
                for side in ("left", "right"):
                    seed = int(alpha * 10) * 1000 + power * 10 + (side == "right")
                    rng = np.random.default_rng(seed)
                    f = _monomial(0.0, power, side)
                    for _ in range(50):
                        x0 = float(rng.uniform(-2.0, 2.0))
                        off = float(rng.uniform(0.05, 3.0))
                        x = x0 + off if side == "left" else x0 - off
                        g = _monomial(x0, power, side)
                        got = caputo(g, FractionalSpec(alpha, x0, side), x)
                        want = caputo_monomial(alpha, x0, power, side, x)
                        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)
        # endpoint zeros: both one-sided derivatives vanish at their anchor
        f = FRACTIONAL_CORPUS["sq"]
        for alpha in (0.5, 1.5):
            for side in ("left", "right"):
                assert abs(caputo(f, FractionalSpec(alpha, 0.5, side), 0.5)) <= 1e-12


def _monomial(anchor, power, side):
    sgn = 1.0 if side == "left" else -1.0

    def deriv(order):
        coeff = math.prod(range(power - order + 1, power + 1)) * sgn ** order

        def ev(t, c=coeff, q=power - order):
            return c * (sgn * (np.asarray(t, dtype=float) - anchor)) ** q

        return ev

    chain = None
    for order in range(power, 0, -1):
        chain = FunctionSpec(f"m^{order}", deriv(order),
                             derivatives=(chain,) if chain else ())
    flat, spec = [], chain
    while spec is not None:
        flat.append(spec)
        spec = spec.derivatives[0] if spec.derivatives else None
    return FunctionSpec("m", deriv(0), derivatives=tuple(flat))


def test_criterion_10_fractional_bounds():
    with _Budget(10, 180.0, "fractional bounds and accelerated-rate premise"):
        for beta in (0.5, 0.8):
            ns = qualifying(SWEEP, beta)
            for name in ("sq", "sin"):
                f = FRACTIONAL_CORPUS[name]
                for alpha_frac in (0.5, 1.5):
                    for mode in ("pointwise", "sup"):
                        rows = verify("T30", f, ns, beta, GRID,
                                      alpha_frac=alpha_frac, mode=mode)
                        assert all(r.verdict == "holds" for r in rows), (
                            name, beta, alpha_frac, mode)
                rows = verify("C31", f, ns, beta, GRID, alpha_frac=0.5)
                assert all(r.verdict == "holds" for r in rows)
                rows = verify("C33", f, ns, beta, GRID)
                assert all(r.verdict == "holds" for r in rows)
            # accelerated uniform rate: slope clause applies only when the
            # linear-modulus premise certifies along the sweep
            for name in ("sq", "sin", "const"):
                f = FRACTIONAL_CORPUS[name]
                certified, _ = remark34_check(f, beta, ns, 0.0, 1.0)
                if not certified:
                    continue
                rows = verify("C33", f, ns, beta, GRID)
                errs = [(r.n, r.empirical_error) for r in rows]
                if all(e <= 1e-14 for _, e in errs):
                    continue    # exactly reproduced; rate is vacuously fast
                slope, _ = fit_rate(errs)
                assert slope <= -1.5 * beta + 0.15, (name, beta, slope)


def test_criterion_11_complex_layer():
    with _Budget(11, 60.0, "complex operators and their bound rows"):
        alpha = 0.5
        ns = qualifying(SWEEP, alpha)
        # componentwise bit-exactness
        circle = COMPLEX_LINE_CORPUS["circle"]
        cfg = OperatorConfig("B", 32)
        xs = np.linspace(-2.0, 2.0, 257)
        re, im = apply_operator(circle, xs, cfg)
        assert np.array_equal(re, apply_operator(circle.re, xs, cfg))
        assert np.array_equal(im, apply_operator(circle.im, xs, cfg))
        # bound rows across the complex theorems
        for name, f in COMPLEX_INTERVAL_CORPUS.items():
            for tid in ("T36", "T38", "T39"):
                rows = verify(tid, f, ns, alpha, GRID)
                assert all(r.verdict == "holds" for r in rows), (tid, name)
        rows = verify("T37", COMPLEX_LINE_CORPUS["circle"], ns, alpha, GRID)
        assert all(r.verdict == "holds" for r in rows)
        rows = verify("T41", COMPLEX_LINE_CORPUS["circle"], ns, alpha, GRID)
        assert all(r.verdict == "holds" for r in rows)


def test_criterion_12_degenerate_weight_identity():
    with _Budget(12, 10.0, "degenerate quadrature weights collapse D onto B"):
        xs = np.linspace(-3.0, 3.0, 513)
        for n in SWEEP:
            cfg_d = OperatorConfig("D", n, weights=QuadratureWeights.degenerate())
            cfg_b = OperatorConfig("B", n)
            for f in (LINE_CORPUS["sin"], LINE_CORPUS["abs"], LINE_CORPUS["linear"]):
                assert np.array_equal(apply_operator(f, xs, cfg_d), apply_operator(f, xs, cfg_b))
