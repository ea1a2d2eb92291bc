"""Caputo derivative tests: closed-form monomial oracle, an independent
high-precision quadrature oracle, anchor behavior, and the gamma function."""

import dataclasses
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

import erfapprox
from erfapprox import corpus
from erfapprox.corpus import FRACTIONAL_CORPUS
from erfapprox.errors import PreconditionViolated
from erfapprox.fractional import (
    FractionalSpec,
    _jacobi_rule,
    caputo,
    caputo_monomial,
    caputo_table,
    gamma_fn,
    table_modulus,
)
from erfapprox.funcs import FunctionSpec

mpmath.mp.dps = 30


class TestGamma:
    def test_anchors(self):
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-14
        assert abs(gamma_fn(1.0) - 1.0) <= 1e-14
        assert abs(gamma_fn(5.0) - 24.0) <= 24.0 * 1e-13
        assert abs(gamma_fn(1.5) - math.sqrt(math.pi) / 2.0) <= 1e-14

    def test_against_stdlib(self):
        rng = np.random.default_rng(3)
        for nu in rng.uniform(0.05, 30.0, 200):
            nu = float(nu)
            assert abs(gamma_fn(nu) - math.gamma(nu)) <= 1e-12 * math.gamma(nu)

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionViolated):
            gamma_fn(0.0)


class TestJacobiRule:
    # exponents as written and as caputo computes them, N - alpha - 1
    EXPONENTS = sorted({round(-0.05 * i, 2) for i in range(1, 20)}
                       | {math.ceil(a) - a - 1.0 for a in np.arange(1, 40) / 20 if a != 1.0})

    @pytest.mark.parametrize("nodes", [4, 8, 16, 32, 64])
    def test_equals_scipy_roots_jacobi(self, nodes):
        for expo in self.EXPONENTS:
            for singular_at_right in (True, False):
                xj, wj = _jacobi_rule(expo, singular_at_right, nodes)
                ab = (expo, 0.0) if singular_at_right else (0.0, expo)
                xs, ws = roots_jacobi(nodes, *ab)
                assert np.array_equal(xj, xs), (expo, singular_at_right)
                assert np.array_equal(wj, ws), (expo, singular_at_right)

    def test_verify_run_never_loads_scipy_linalg(self):
        script = (
            "import sys\n"
            "from erfapprox.harness import ExperimentConfig, run_verify\n"
            "cfg = ExperimentConfig.from_dict({'schema_version': 1, 'theorems': ['T30'],\n"
            "    'functions': [{'id': 'sq', 'builtin': 'sq'}], 'sweep': [9, 16, 81],\n"
            "    'rate_exponents': [0.5], 'fractional_orders': [0.5, 1.5],\n"
            "    'grid': {'x_points': 64, 'anchors': 5, 'table_points': 33}})\n"
            "assert run_verify(cfg).rows\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        assert fresh_interpreter(script).strip() == "False"

    def test_packaged_default_verify_never_loads_scipy_linalg(self):
        # what users run: the README's memory claim rests on it
        script = (
            "import sys\n"
            "from erfapprox.cli import main\n"
            "assert main(['verify']) == 0\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        assert fresh_interpreter(script).splitlines()[-1] == "False"


def fresh_interpreter(script: str) -> str:
    """stdout of script run by a fresh interpreter on this package: other
    tests load scipy.linalg into this one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(erfapprox.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def monomial_spec(anchor: float, power: int, side: str) -> FunctionSpec:
    """(t - anchor)^p for the left side, (anchor - t)^p for the right, with
    the derivative chain the Caputo evaluator consumes."""
    sgn = 1.0 if side == "left" else -1.0

    def deriv(order):
        coeff = math.prod(range(power - order + 1, power + 1)) * sgn ** order

        def ev(t, c=coeff, q=power - order):
            return c * (sgn * (np.asarray(t, dtype=float) - anchor)) ** q

        return ev

    chain = None
    for order in range(power, 0, -1):
        chain = FunctionSpec(
            f"mono^{order}", deriv(order),
            derivatives=(chain,) if chain else (),
        )
    return FunctionSpec("mono", deriv(0), derivatives=_linearize(chain))


def _linearize(spec):
    out = []
    while spec is not None:
        out.append(spec)
        spec = spec.derivatives[0] if spec.derivatives else None
    return tuple(out)


class TestMonomialOracle:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_closed_form_agreement(self, alpha, extra, side):
        N = math.ceil(alpha)
        power = N + extra
        seed = int(alpha * 10) * 100 + power * 10 + (side == "right")
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x0 = float(rng.uniform(-2.0, 2.0))
            off = float(rng.uniform(0.05, 3.0))
            x = x0 + off if side == "left" else x0 - off
            f = monomial_spec(x0, power, side)
            got = caputo(f, FractionalSpec(alpha, x0, side), x)
            want = caputo_monomial(alpha, x0, power, side, x)
            assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)

    def test_monomial_requires_enough_smoothness(self):
        with pytest.raises(PreconditionViolated):
            caputo_monomial(1.5, 0.0, 1, "left", 1.0)


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_sin_against_mpmath(self, alpha):
        # independent oracle: adaptive mpmath quadrature of the singular
        # integral defining the left derivative anchored at 0
        N = math.ceil(alpha)
        f = FRACTIONAL_CORPUS["sin"]
        spec = FractionalSpec(alpha, 0.0, "left")
        fN = [mpmath.sin, mpmath.cos, lambda t: -mpmath.sin(t)][N]
        for x in (0.25, 0.6, 1.0):
            want = float(
                mpmath.quad(
                    lambda t: (x - t) ** (N - alpha - 1) * fN(t), [0, x]
                ) / mpmath.gamma(N - alpha)
            )
            got = caputo(f, spec, x)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


class TestAnchorBehavior:
    @pytest.mark.parametrize("alpha,side", [(0.5, "left"), (0.5, "right"),
                                            (1.5, "left"), (1.5, "right")])
    def test_vanishes_at_anchor(self, alpha, side):
        f = FRACTIONAL_CORPUS["sq"]
        spec = FractionalSpec(alpha, 0.5, side)
        assert abs(caputo(f, spec, 0.5)) <= 1e-12

    def test_zero_extension_exact(self):
        f = FRACTIONAL_CORPUS["sq"]
        left = FractionalSpec(0.5, 0.5, "left")
        right = FractionalSpec(0.5, 0.5, "right")
        assert caputo(f, left, 0.2) == 0.0      # below a left anchor
        assert caputo(f, right, 0.8) == 0.0     # above a right anchor

    def test_side_wrappers_enforce_side(self):
        # spec.side selects the side: the right derivative of f at x is the
        # left derivative of the mirror image g(t) = f(2 x0 - t) at 2 x0 - x
        f = FRACTIONAL_CORPUS["sq"]
        g = monomial_spec(1.0, 2, "right")  # (1 - t)^2 = f(1 - t)
        xs = np.linspace(0.0, 0.45, 10)
        for alpha in (0.5, 1.5):
            right = caputo(f, FractionalSpec(alpha, 0.5, "right"), xs)
            mirrored = caputo(g, FractionalSpec(alpha, 0.5, "left"), 1.0 - xs)
            assert np.max(np.abs(right)) > 0.1
            assert np.max(np.abs(right - mirrored)) <= 1e-12

    def test_integer_order_rejected(self):
        with pytest.raises(PreconditionViolated):
            FractionalSpec(1.0, 0.0)


class TestNonFinite:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_nan_point_gives_nan(self, side):
        # a nan x is on neither side of the anchor, and read 0.0
        f, spec = FRACTIONAL_CORPUS["sin"], FractionalSpec(0.5, 0.5, side)
        assert math.isnan(caputo(f, spec, math.nan))
        x = 0.75 if side == "left" else 0.25
        got = caputo(f, spec, np.array([x, math.nan, 0.5]))
        assert got[0] == caputo(f, spec, x) != 0.0
        assert math.isnan(got[1]) and got[2] == 0.0

    def test_the_monomial_oracle_gives_nan_at_a_nan_point(self):
        got = caputo_monomial(0.5, 0.0, 2, "left", np.array([0.5, math.nan, -0.5]))
        assert got[0] > 0.0 and math.isnan(got[1]) and got[2] == 0.0
        assert math.isnan(caputo_monomial(1.5, 1.0, 2, "right", math.nan))

    @pytest.mark.parametrize("alpha, anchor", [
        (0.5, math.nan),        # every value read 0.0
        (0.5, math.inf), (0.5, -math.inf),
        (math.inf, 0.0),        # N raised OverflowError
        (math.nan, 0.0),
    ])
    def test_a_non_finite_order_or_anchor_is_a_precondition(self, alpha, anchor):
        with pytest.raises(PreconditionViolated, match="must be finite"):
            FractionalSpec(alpha, anchor)

    def test_a_bad_side_is_a_precondition(self):
        with pytest.raises(PreconditionViolated, match="side must be 'left' or 'right', got 'up'"):
            FractionalSpec(0.5, 0.0, "up")

    @pytest.mark.parametrize("specs, sub, match", [
        ([], (0.0, 1.0), "at least one spec"),
        ([FractionalSpec(0.5, 0.0)], (0.5, 0.5), r"need lo < hi, got \[0.5, 0.5\]"),
    ])
    def test_a_table_needs_a_spec_and_an_interval(self, specs, sub, match):
        with pytest.raises(PreconditionViolated, match=match):
            caputo_table(FRACTIONAL_CORPUS["sq"], specs, sub)

    def test_a_table_shares_one_anchor_and_one_side(self):
        f = FRACTIONAL_CORPUS["sq"]
        for other in (FractionalSpec(1.5, 0.25, "left"), FractionalSpec(1.5, 0.0, "right")):
            with pytest.raises(PreconditionViolated, match="one anchor and one side"):
                caputo_table(f, [FractionalSpec(0.5, 0.0, "left"), other], (0.5, 1.0))


class TestChainLevelsInOnePass:
    def test_an_expression_chain_is_evaluated_once_per_node_matrix(self, monkeypatch):
        # alpha = 0.5 and 1.5 share N - alpha = 0.5, so f' and f'' are read
        # on one node matrix: one evaluate call gives both, with the rows of
        # one call per level
        f = corpus.function_from_expression("e", "exp(-0.8*x^2)*cos(1.9*x)",
                                            domain=(0.0, 1.0), orders=2)
        specs = [FractionalSpec(0.5, 0.0), FractionalSpec(1.5, 0.0)]
        levels, real = [], corpus.evaluate

        def spy(program, x, level=0):
            levels.append(level)
            return real(program, x, level)

        monkeypatch.setattr(corpus, "evaluate", spy)
        _, joint = caputo_table(f, specs, (0.0, 1.0), 65)
        assert levels == [(1, 2)]
        alone = dataclasses.replace(f, derivatives=tuple(
            dataclasses.replace(g, eval=lambda t, g=g: g.eval(t)) for g in f.derivatives))
        _, rows = caputo_table(alone, specs, (0.0, 1.0), 65)
        assert levels == [(1, 2), 1, 2]
        assert joint.tobytes() == rows.tobytes()


class TestEnvelopes:
    def test_growth_envelope(self):
        # |D f(x)| <= ||f^(N)|| (x-x0)^(N-alpha) / Gamma(N-alpha+1)
        f = FRACTIONAL_CORPUS["sq"]
        spec = FractionalSpec(0.5, 0.0, "left")
        sup_n = f.derivative(spec.N).sup_norm
        for x in np.linspace(0.05, 1.0, 20):
            envelope = sup_n * x ** (spec.N - spec.alpha) / gamma_fn(spec.N - spec.alpha + 1.0)
            assert abs(caputo(f, spec, float(x))) <= envelope * (1 + 1e-9)

    def test_modulus_below_ceiling_and_table_agrees(self):
        # D f(x) = Gamma(3)/Gamma(2.5) x^1.5 for f = t^2 is increasing, so
        # omega_1(D f, delta) on [0, 1] is D f(1) - D f(1 - delta); the table's
        # window spans at most delta and at least delta minus one grid step
        f = FRACTIONAL_CORPUS["sq"]
        spec = FractionalSpec(0.5, 0.0, "left")
        xs, (ys,) = caputo_table(f, [spec], (0.0, 1.0))
        table, h = (xs, ys), 1.0 / (len(xs) - 1)

        def exact(d):
            lo, hi = caputo_monomial(0.5, 0.0, 2, "left", np.array([1.0 - d, 1.0]))
            return hi - lo

        for delta in (0.01, 0.1, 0.5):
            got = table_modulus(table, (delta,))[0]
            assert exact(delta - h) - 1e-12 <= got <= exact(delta) + 1e-12

    @given(st.integers(2, 600), st.floats(1e-4, 2.0), st.sampled_from(["left", "right"]))
    @settings(max_examples=40, deadline=None)
    def test_end_points_and_values_give_the_table_modulus(self, points, delta, side):
        # the grid step comes from the grid's two end points alone
        f = FRACTIONAL_CORPUS["sq"]
        spec = FractionalSpec(1.5, 0.0 if side == "left" else 1.0, side)
        xs, (ys,) = caputo_table(f, [spec], (0.0, 1.0), points)
        full = table_modulus((xs, ys), (delta,))[0]
        assert table_modulus((xs[[0, -1]], ys), (delta,))[0].hex() == full.hex()

    def test_side_interval_checked(self):
        f = FRACTIONAL_CORPUS["sq"]
        with pytest.raises(PreconditionViolated):
            caputo_table(f, [FractionalSpec(0.5, 0.5, "left")], (0.0, 1.0))
        with pytest.raises(PreconditionViolated):
            caputo_table(f, [FractionalSpec(0.5, 0.5, "right")], (0.4, 1.0))
