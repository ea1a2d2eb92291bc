"""The theorem table: one row per theorem drives verify and the harness."""

import math
from collections import Counter

import numpy as np
import pytest

from erfapprox import bounds, corpus
from erfapprox.bounds import THEOREMS, GridPolicy, Theorem, fractional_bound, verify
from erfapprox.corpus import COMPLEX_INTERVAL_CORPUS, INTERVAL_CORPUS, function_from_expression
from erfapprox.harness import ExperimentConfig, run_verify

FAST_GRID = GridPolicy(x_points=256, refinement=False, anchors=9, table_points=129)

BASE = {
    "schema_version": 1,
    "sweep": [9, 16, 81],
    "rate_exponents": [0.5],
    "grid": {"x_points": 128, "refinement": False, "anchors": 5, "table_points": 65},
}


def run(**overrides):
    return run_verify(ExperimentConfig.from_dict({**BASE, **overrides}))


class TestBoundTerms:
    @pytest.mark.parametrize("tid", sorted(THEOREMS))
    def test_terms_sum_to_bound(self, tid):
        th = THEOREMS[tid]
        f = next(iter(getattr(corpus, th.pool).values()))
        rows = verify(tid, f, (16, 81), 0.5, FAST_GRID)
        assert len(rows) == 2 * len(th.families)
        for r in rows:
            assert math.isclose(sum(r.terms.values()), r.bound_value, rel_tol=1e-12)


class TestComplexFractional:
    def test_t39_follows_the_anchor_grid(self):
        f = COMPLEX_INTERVAL_CORPUS["circle"]
        values = []
        for anchors, points in ((5, 65), (33, 129)):
            grid = GridPolicy(x_points=128, refinement=False, anchors=anchors,
                              table_points=points)
            (row,) = verify("T39", f, (81,), 0.5, grid, alpha_frac=0.5)
            want = sum(
                fractional_bound(part, 81, 0.5, 0.5, "sup",
                                 run=bounds.Run.of((81,), (0.5,), grid))[0]
                for part in (f.re, f.im)
            )
            assert math.isclose(row.bound_value, want, rel_tol=1e-12)
            values.append(row.bound_value)
        assert values[0] != values[1]

    def test_taylor_terms_share_one_monomial_image_per_point(self, monkeypatch):
        calls = Counter()
        real = bounds.apply_operator

        def counting(f, x, cfg, work=None):
            calls[f.name] += 1
            return real(f, x, cfg, work)

        monkeypatch.setattr(bounds, "apply_operator", counting)
        f = COMPLEX_INTERVAL_CORPUS["circle"]
        verify("T39", f, (81,), 0.5, GridPolicy(pointwise_points=3, anchors=5, table_points=65),
               alpha_frac=1.5, mode="taylor_pointwise")
        # N = 2: one image of f and one of (t - x) per point, not one per part
        assert calls == {"circle": 3, "shifted_power": 3}

    def test_complex_taylor_deviation_is_the_hypot_of_the_parts(self):
        f = COMPLEX_INTERVAL_CORPUS["circle"]
        cfg = bounds._family_config("A", 81, f.domain)
        for x in np.linspace(*f.domain, 5):
            for order in (0, 2, 3):
                parts = [bounds._deviation(p, x, cfg, order) for p in f.parts]
                assert bounds._deviation(f, x, cfg, order) == np.hypot(*parts)


class TestExpansion:
    def test_no_admissible_fractional_order_is_skipped(self):
        result = run(functions=[{"id": "sq", "builtin": "sq"},
                                {"id": "circle", "builtin": "circle"}],
                     theorems=["C31", "T39"], fractional_orders=[2.5])
        assert result.rows == ()
        reasons = {(s["theorem"], s["function"]): s["reason"] for s in result.skipped}
        assert set(reasons) == {("C31", "sq"), ("C31", "circle"),
                                ("T39", "sq"), ("T39", "circle")}
        assert "alpha_frac" in reasons[("C31", "sq")]
        assert "alpha_frac" in reasons[("T39", "circle")]

    def test_c31_skips_when_only_higher_orders_are_listed(self):
        result = run(functions=[{"id": "sq", "builtin": "sq"}], theorems=["C31"],
                     fractional_orders=[1.5])
        assert result.rows == ()
        assert [s["reason"] for s in result.skipped] == ["no alpha_frac in [1.5] lies in (0, 1)"]

    def test_an_expression_gets_the_derivatives_its_theorem_reads(self):
        # with no orders key it used to be built without derivatives, and
        # every T16 cell was skipped
        result = run(functions=[{"id": "bump", "expr": "exp(-x^2)", "domain": [-1.0, 1.0]}],
                     theorems=["T16"], highorder_orders=[1, 2])
        assert [(r["n"], r["verdict"]) for r in result.rows] == [
            (n, "holds") for _ in (1, 2) for n in (9, 16, 81)]
        assert result.skipped == ()

    def test_an_expression_without_derivatives_is_rejected(self):
        result = run(functions=[{"id": "vee", "expr": "abs(x)", "domain": [0.0, 1.0]}],
                     theorems=["T12", "T30"], fractional_orders=[0.5])
        assert len(result.rows) == 3
        [skip] = result.skipped
        assert skip["theorem"] == "T30" and skip["reason"].startswith("expression rejected")

    def test_missing_derivatives_skip_cells(self):
        result = run(functions=[{"id": "abs", "builtin": "abs"}], theorems=["T16"],
                     highorder_orders=[1, 2])
        assert result.rows == ()
        assert {s["reason"] for s in result.skipped} == {"needs derivatives to order 1, have 0"}
        assert sorted(s["n"] for s in result.skipped) == [9, 16, 81]


class TestCallShape:
    BOUNDS = ("mu1", "mu2", "mu3", "highorder_bound", "fractional_bound")

    @pytest.mark.parametrize("tid", sorted(THEOREMS))
    def test_verify_passes_the_rows_parameters_and_the_run(self, tid, monkeypatch):
        # outermost calls only: mu1 calls mu2 itself
        calls, depth = [], [0]
        for name in self.BOUNDS:
            def spy(*args, _real=getattr(bounds, name), _name=name, **kw):
                if not depth[0]:
                    calls.append((_name, args[1:], kw))
                depth[0] += 1
                try:
                    return _real(*args, **kw)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(bounds, name, spy)
        th = THEOREMS[tid]
        f = next(iter(getattr(corpus, th.pool).values()))
        run = bounds.Run.of((16, 81), (0.5,), FAST_GRID)
        verify(tid, f, (16, 81), 0.5, FAST_GRID, run=run)
        assert [name for name, _, _ in calls] == [th.bound] * (4 if th.complex else 2)
        for (_, args, kw), n in zip(calls, (16, 16, 81, 81) if th.complex else (16, 81)):
            assert args == (n, 0.5)
            assert kw.pop("run") is run
            assert kw == th.params


class TestNewRow:
    def test_one_row_declares_a_theorem(self, monkeypatch):
        monkeypatch.setitem(THEOREMS, "X1", Theorem("LINE_CORPUS", ("B", "C"), "mu3"))
        result = run(functions=[{"id": "sin", "builtin": "sin"}], theorems=["X1"])
        assert [(r["theorem"], r["family"], r["n"]) for r in result.rows] == [
            ("X1", "B", 9), ("X1", "C", 9), ("X1", "B", 16), ("X1", "C", 16),
            ("X1", "B", 81), ("X1", "C", 81),
        ]
        assert all(r["verdict"] == "holds" for r in result.rows)

    def test_bound_resolved_at_call_time(self, monkeypatch):
        calls = []
        real = bounds.mu1

        def spy(*args, **kw):
            calls.append(args[1])
            return real(*args, **kw)

        monkeypatch.setattr(bounds, "mu1", spy)
        verify("T12", INTERVAL_CORPUS["linear"], (16, 81), 0.5, FAST_GRID)
        verify("T36", COMPLEX_INTERVAL_CORPUS["circle"], (16,), 0.5, FAST_GRID)
        assert calls == [16, 81, 16, 16]


class TestDerivativeChains:
    def test_corpus_chain_shares_levels(self):
        f = INTERVAL_CORPUS["sin"]
        assert f.derivative(1).derivatives[0] is f.derivative(2)
        assert f.derivative(2).derivatives[0] is f.derivative(3)

    def test_expression_shares_levels(self):
        f = function_from_expression("w", "sin(2*x)", domain=(0.0, 1.0), orders=4)
        assert len(f.derivatives) == 4
        assert f.derivative(1).derivatives[0] is f.derivative(2)
        assert f.derivative(3).derivatives == (f.derivative(4),)
        assert abs(float(f.derivative(4)(0.3)) - 16.0 * math.sin(0.6)) <= 1e-12
