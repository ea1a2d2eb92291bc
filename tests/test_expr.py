"""Expression language: parsing, evaluation, differentiation, printing."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erfapprox.errors import (
    DivisionByZero,
    ExprSyntaxError,
    NonDifferentiable,
    UnknownFunction,
)
from erfapprox import expr
from erfapprox.expr import (
    Add,
    Fun,
    Mul,
    Num,
    Pow,
    Var,
    derivatives,
    differentiate,
    evaluate,
    parse,
    serialize,
)
from erfapprox.special_functions import TWO_OVER_SQRT_PI, erf


class TestParsing:
    def test_shapes(self):
        assert parse("x") == Var()
        assert parse("2 + x") == Add(Num(2.0), Var())
        assert parse("sin(x)") == Fun("sin", Var())
        assert parse("x^2") == Pow(Var(), 2.0)
        assert parse("x^-2") == Pow(Var(), -2.0)
        assert parse("2*x") == Mul(Num(2.0), Var())

    def test_precedence(self):
        # 2 + 3*x^2 groups as 2 + (3*(x^2))
        assert parse("2 + 3*x^2") == Add(Num(2.0), Mul(Num(3.0), Pow(Var(), 2.0)))

    def test_left_associativity(self):
        assert evaluate(parse("8 - 3 - 2"), 0.0) == 3.0
        assert evaluate(parse("8 / 4 / 2"), 0.0) == 1.0

    def test_constants(self):
        assert evaluate(parse("pi"), 0.0) == math.pi
        assert evaluate(parse("e"), 0.0) == math.e

    def test_syntax_error_offsets(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x + $")
        assert exc.value.offset == 4
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x^x")
        assert exc.value.offset == 2
        with pytest.raises(ExprSyntaxError):
            parse("sin(x")
        with pytest.raises(ExprSyntaxError):
            parse("x 2")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse("tan(x)")


class TestEvaluation:
    @pytest.mark.parametrize("text,fn", [
        ("sin(x)", np.sin),
        ("cos(2*x)", lambda t: np.cos(2 * t)),
        ("exp(-x^2)", lambda t: np.exp(-t ** 2)),
        ("abs(x) + 1", lambda t: np.abs(t) + 1),
        ("x^3 - 2*x", lambda t: t ** 3 - 2 * t),
    ])
    def test_identities(self, text, fn):
        node = parse(text)
        xs = np.linspace(-2.0, 2.0, 37)
        assert np.max(np.abs(evaluate(node, xs) - fn(xs))) <= 1e-14

    def test_erf_delegates_inhouse(self):
        assert evaluate(parse("erf(x)"), 1.0) == erf(1.0)

    def test_scalar_vs_array(self):
        node = parse("sin(x) * x")
        assert isinstance(evaluate(node, 0.5), float)
        assert evaluate(node, np.array([0.5]))[0] == evaluate(node, 0.5)

    def test_constant_broadcasts(self):
        node = parse("3")
        out = evaluate(node, np.zeros(5))
        assert out.shape == (5,)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            evaluate(parse("1 / x"), 0.0)

    def test_evaluate_computes_each_distinct_node_once(self, monkeypatch):
        calls = []
        real, deriv = expr._FUNCTIONS["sin"]
        monkeypatch.setitem(expr._FUNCTIONS, "sin", (lambda u: calls.append(1) or real(u), deriv))
        node = Fun("sin", Var())
        for _ in range(12):          # 4096 paths to sin, 14 distinct nodes
            node = Add(node, node)
        assert evaluate(node, 0.5) == 4096.0 * math.sin(0.5)
        assert len(calls) == 1

    def test_evaluate_drops_a_shared_value_after_its_last_use(self, monkeypatch):
        # holding every intermediate array to the end of the call doubled
        # the evaluation time of the expression benchmark
        values = []
        real_sin, d_sin = expr._FUNCTIONS["sin"]
        real_cos, d_cos = expr._FUNCTIONS["cos"]

        def sin(u):
            out = real_sin(u)
            values.append(weakref.ref(out))
            return out

        def cos(u):
            assert values[0]() is None      # the two uses of sin(x) are done
            return real_cos(u)

        monkeypatch.setitem(expr._FUNCTIONS, "sin", (sin, d_sin))
        monkeypatch.setitem(expr._FUNCTIONS, "cos", (cos, d_cos))
        shared = Fun("sin", Var())
        xs = np.linspace(0.0, 1.0, 9)
        got = evaluate(Add(Mul(shared, shared), Fun("cos", Var())), xs)
        assert np.array_equal(got, np.sin(xs) * np.sin(xs) + np.cos(xs))


class TestDifferentiation:
    CASES = [
        "sin(x)", "cos(3*x)", "exp(-x^2)", "x^5 - x^2 + 7", "erf(x)",
        "sin(x) * exp(x)", "x / (x^2 + 1)", "2^2 + x^-1",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_matches_central_difference(self, text):
        node = parse(text)
        d = differentiate(node)
        rng = np.random.default_rng(11)
        h = 1e-6
        for x in rng.uniform(0.2, 2.0, 50):
            x = float(x)
            fd = (evaluate(node, x + h) - evaluate(node, x - h)) / (2.0 * h)
            got = evaluate(d, x)
            assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_erf_derivative_closed_form(self):
        d = differentiate(parse("erf(x)"))
        for x in (-1.5, 0.0, 0.8):
            want = TWO_OVER_SQRT_PI * math.exp(-x * x)
            assert abs(evaluate(d, x) - want) <= 1e-14

    def test_higher_order(self):
        d2 = differentiate(parse("sin(x)"), order=2)
        assert abs(evaluate(d2, 0.7) + math.sin(0.7)) <= 1e-14

    def test_abs_refused(self):
        with pytest.raises(NonDifferentiable):
            differentiate(parse("abs(x)"))

    def test_order_zero_is_identity(self):
        node = parse("x^2")
        assert differentiate(node, order=0) == node

    def test_a_derivative_chain_shares_its_subtrees(self):
        # without sharing the order-8 tree held 40,970 nodes; count by
        # identity, since == on a shared tree walks every path
        chain = derivatives(parse("exp(-x^2)*sin(3*x)"), 8)
        seen = {}
        stack = [chain[-1]]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(v for v in vars(node).values() if not isinstance(v, (str, float)))
        assert len(seen) <= 1000
        assert chain[3] == differentiate(parse("exp(-x^2)*sin(3*x)"), 3)

class TestSerialization:
    ROUND_TRIP = [
        "x", "sin(x)", "x^2", "x^-2", "-x", "2 + x", "x - 1", "2*x/3",
        "sin(x) * exp(-x^2) + cos(x)/2", "(x + 1) * (x - 1)", "erf(2*x)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip(self, text):
        node = parse(text)
        assert parse(serialize(node)) == node

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_value(self, x):
        node = parse("sin(x)*x - exp(-x^2)/(x^2 + 1)")
        again = parse(serialize(node))
        assert evaluate(again, x) == evaluate(node, x)

    def test_derivative_round_trips(self):
        d = differentiate(parse("x / (x^2 + 1)"))
        assert parse(serialize(d)) == d
