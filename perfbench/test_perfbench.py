"""Tests of the benchmark's own machinery: tracer, verdict check, generator.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import copy
import os

import pytest

import oracle
import tracer
import verdicts
import workloads
from erfapprox.harness import ExperimentConfig, run_verify

TINY = {
    "schema_version": 1,
    "functions": [
        {"id": "sin", "builtin": "sin"},
        {"id": "g", "expr": "exp(-0.7*x^2)*cos(1.3*x) + 0.2*erf(x)", "domain": [-1.0, 1.5]},
        {"id": "w", "expr": "0.5*sin(0.8*x)*cos(1.1*x)", "sup_norm": 0.5},
    ],
    "theorems": ["T12", "T13", "T14", "T15", "T30"],
    "sweep": [16, 81, 256],
    "rate_exponents": [0.5],
    "fractional_orders": [0.5],
    "grid": {"x_points": 64, "anchors": 5, "table_points": 33},
}


def bindings():
    return {(m.__name__, attr): getattr(m, attr) for m, attr, *_ in tracer.binding_sites()}


@pytest.fixture(scope="module")
def tiny_rows():
    return [dict(r) for r in run_verify(ExperimentConfig.from_dict(TINY)).rows]


def test_importing_the_tracer_and_untraced_runs_install_no_wrapper(tiny_rows):
    for (module, attr), obj in bindings().items():
        assert not hasattr(obj, "__wrapped__"), f"{module}.{attr} is wrapped"


def test_traced_run_restores_every_binding_and_matches_untraced(tiny_rows):
    before = bindings()
    with tracer.Tracer() as tr:
        traced = run_verify(ExperimentConfig.from_dict(TINY))
        assert all(hasattr(obj, "__wrapped__") for obj in bindings().values())
    after = bindings()
    assert all(after[k] is before[k] for k in before)
    assert [dict(r) for r in traced.rows] == tiny_rows

    m = tracer.layer_metrics(tr.spans, sweep_wall_s=1.0)
    # sin: T12-T15 and T30; g: T12 and T30; w: T13-T15
    assert m["harness.groups"] == 10
    assert m["bounds.verify_cells"] == 30
    assert m["operators.A_calls"] > 0 and m["operators.D_calls"] > 0
    assert m["special_functions.chi_calls"] == sum(
        m[f"operators.{f}_calls"] for f in "ABCD")
    assert m["special_functions.erf_calls"] > 2 * m["special_functions.chi_calls"]
    assert m["expr.evaluate_calls"] > 0 and m["fractional.caputo_calls"] > 0
    assert 0.0 < m["modulus.exact_share"] < 1.0
    groups = {s[2] for s in tr.spans if s[3] == "operator"}
    assert None not in groups and len(groups) == 10


def test_tracer_restores_bindings_when_the_run_raises():
    before = bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(bindings()[k] is before[k] for k in before)


def test_mismatch_check_admits_erf_drift_and_catches_wrong_values(tiny_rows):
    reference = copy.deepcopy(tiny_rows)
    assert verdicts.mismatches(tiny_rows, reference) == []

    drift = copy.deepcopy(tiny_rows)
    for row in drift:
        row["empirical_error"] *= 1.0 + 2e-12
    assert verdicts.mismatches(drift, reference) == []

    wrong = copy.deepcopy(tiny_rows)
    wrong[3]["empirical_error"] *= 1.0 + 1e-6
    wrong[5]["verdict"] = "violated"
    del wrong[7]
    assert len(verdicts.mismatches(wrong, reference)) == 3


def test_reference_round_trip(tmp_path, tiny_rows):
    path = str(tmp_path / "ref.csv")
    verdicts.write_reference(tiny_rows, path)
    assert verdicts.mismatches(tiny_rows, verdicts.read_reference(path)) == []


def test_expr_dense_generator_is_seeded_and_shape_stable():
    a, b = workloads.expr_dense_config(3), workloads.expr_dense_config(3)
    assert a == b
    assert workloads.expr_dense_config(4) != a
    ExperimentConfig.from_dict(a)
    shapes = {len(workloads.expected_dense_keys(workloads.expr_dense_config(s)))
              for s in range(20)}
    assert shapes == {288}


def test_group_tail_needs_ten_groups_beyond():
    assert tracer.group_tail([1.0] * 96)[0] == 75.0
    assert tracer.group_tail([1.0] * 100)[0] == 90.0
    assert tracer.group_tail([1.0] * 24)[0] == 50.0
    assert tracer.group_tail([2.0]) == (50.0, 2.0)


def test_oracle_confirms_stored_errors_and_catches_a_wrong_one():
    directory = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
    rows = verdicts.read_reference(verdicts.reference_path(directory, "expr-dense", 0))[::24]
    functions = workloads.expr_dense_functions(0)
    assert {r["family"] for r in rows} == set("ABCD")
    assert oracle.mismatches(rows, functions, 2048) == []
    rows[1]["empirical_error"] *= 1.0 + 1e-4
    assert len(oracle.mismatches(rows, functions, 2048)) == 1
