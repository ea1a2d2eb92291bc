"""Harness: config validation, determinism, skip handling, exit codes."""

import dataclasses
import json
import math
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import erfapprox
from erfapprox import bounds, cli, corpus, harness, operators
from erfapprox.bounds import fit_rate
from erfapprox.cli import main
from erfapprox.corpus import FRACTIONAL_CORPUS, INTERVAL_CORPUS
from erfapprox.errors import ConfigError, MissingDerivative, PreconditionViolated
from erfapprox.expr import compile, derivatives, parse
from erfapprox.funcs import ComplexFunctionSpec, FunctionSpec
from erfapprox.harness import (
    CSV_COLUMNS,
    SCHEMA,
    ExperimentConfig,
    run_partition_check,
    run_verify,
    write_csv,
)
from erfapprox.modulus import evaluate_modulus

BASE = {
    "schema_version": 1,
    "functions": [{"id": "linear", "builtin": "linear"}],
    "theorems": ["T12"],
    "sweep": [9, 16, 81],
    "rate_exponents": [0.5],
    "grid": {"x_points": 128, "refinement": False},
}


def cfg_with(**overrides) -> ExperimentConfig:
    doc = {**BASE, **overrides}
    return ExperimentConfig.from_dict(doc)


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestConfigValidation:
    def test_round_trip(self):
        cfg = cfg_with()
        assert cfg.sweep == (9, 16, 81)
        assert cfg.theorems == ("T12",)

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({k: v for k, v in BASE.items() if k != "schema_version"})
        assert exc.value.field == "schema_version"

    def test_unknown_theorem(self):
        with pytest.raises(ConfigError) as exc:
            cfg_with(theorems=["T99"])
        assert exc.value.field == "theorems"

    def test_duplicate_function_id(self):
        with pytest.raises(ConfigError):
            cfg_with(functions=[{"id": "a", "builtin": "sin"},
                                {"id": "a", "builtin": "cos"}])

    def test_function_needs_source(self):
        with pytest.raises(ConfigError):
            cfg_with(functions=[{"id": "a"}])

    def test_exponent_range(self):
        with pytest.raises(ConfigError):
            cfg_with(rate_exponents=[1.5])

    def test_missing_sweep(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({k: v for k, v in BASE.items() if k != "sweep"})
        assert exc.value.field == "sweep"

    @pytest.mark.parametrize("overrides, field", [
        ({"theorem": ["T12"]}, "theorem"),
        ({"truncation_epsilon": 1e-14}, "truncation_epsilon"),
        ({"grid": {"x_point": 64}}, "grid.x_point"),
        ({"output": {"cvs": "a.csv"}}, "output.cvs"),
        ({"grid": {"pointwise_points": 9}}, "grid.pointwise_points"),
        # an estimated modulus in place of the misspelt exact one
        ({"functions": [{"id": "g", "expr": "sin(x)", "domain": [0.0, 1.0],
                         "exact_modulu": "sine_rising"}]}, "functions[0].exact_modulu"),
        # the builtin's own domain in place of this one
        ({"functions": [{"id": "s", "builtin": "sin", "domain": [0.0, 1.0]}]},
         "functions[0].domain"),
        # expr in place of builtin
        ({"functions": [{"id": "s", "builtin": "sin", "expr": "cos(x)", "domain": [0.0, 1.0]}]},
         "functions[0].builtin"),
    ])
    def test_unknown_key_is_named(self, overrides, field):
        # each of these used to load without a word and never take effect
        with pytest.raises(ConfigError) as exc:
            cfg_with(**overrides)
        assert exc.value.field == field

    def test_expr_entry_takes_every_key_it_reads(self):
        # a domain and a grid_window are never read together
        specs = [{"id": "g", "expr": "sin(x)", "domain": [0.0, 1.0],
                  "exact_modulus": "sine_rising", "sup_norm": 1.0},
                 {"id": "w", "expr": "sin(x)", "exact_modulus": "sine_period",
                  "sup_norm": 1.0, "grid_window": [-3.0, 3.0]}]
        assert cfg_with(functions=specs).functions == tuple(specs)

    @pytest.mark.parametrize("key, value", [
        ("x_points", 1), ("anchors", 0), ("table_points", 1),
    ])
    def test_grid_size_below_its_least_is_rejected(self, key, value):
        # anchors 0 and table_points 1 used to crash run_verify on T30 with
        # a bare ValueError
        with pytest.raises(ConfigError) as exc:
            cfg_with(grid={key: value})
        assert exc.value.field == f"grid.{key}"

    def test_every_grid_policy_field_but_pointwise_points_is_a_grid_key(self):
        # a new GridPolicy field cannot silently stay out of reach of a config
        fields = [f.name for f in dataclasses.fields(bounds.GridPolicy) if f.name != "pointwise_points"]
        assert list(SCHEMA["grid"]) == fields

    def test_absent_functions_load_the_default_list(self):
        doc = {k: v for k, v in BASE.items() if k != "functions"}
        ids = [spec["id"] for spec in ExperimentConfig.from_dict(doc).functions]
        assert ids == ["linear", "sin", "cos", "abs", "exp", "sq", "circle", "ramp_pair"]

    def test_packaged_default_loads(self):
        path = Path(erfapprox.__file__).parent / "default.yaml"
        assert ExperimentConfig.from_file(str(path)).theorems == tuple(bounds.THEOREMS)


class TestRunVerify:
    def test_basic_run_holds(self):
        result = run_verify(cfg_with())
        assert len(result.rows) == 3
        assert result.violated == 0
        assert all(r["verdict"] == "holds" for r in result.rows)
        assert all(set(r) == set(CSV_COLUMNS) for r in result.rows)

    def test_empty_theorems_empty_report(self):
        # neither a config nor `erfapprox fractional` can name no theorem,
        # but a library caller can
        result = run_verify(dataclasses.replace(cfg_with(), theorems=()))
        assert result.rows == ()
        assert result.violated == 0

    def test_hypothesis_violation_skipped_not_crashed(self):
        result = run_verify(cfg_with(sweep=[4, 16]))
        assert len(result.rows) == 1              # only n=16 computed
        skipped = [s for s in result.skipped if s.get("n") == 4]
        assert skipped and "n^(1-exponent)" in skipped[0]["reason"]

    def test_incompatible_function_skipped(self):
        result = run_verify(cfg_with(
            functions=[{"id": "exp", "builtin": "exp"}], theorems=["T13"]))
        assert result.rows == ()
        assert any("variant" in s["reason"] for s in result.skipped)

    def test_rate_columns_filled_per_group(self):
        result = run_verify(cfg_with())
        slopes = {r["slope"] for r in result.rows}
        assert len(slopes) == 1
        assert all(r["r2"] is not None for r in result.rows)

    def test_each_family_of_a_group_gets_its_own_rate(self):
        # one slope fitted over both operators' errors would be neither one's rate
        rows = run_verify(cfg_with(functions=[{"id": "circle", "builtin": "circle"}],
                                   theorems=["T41"], sweep=[9, 16, 81, 256])).rows
        rates = {}
        for family in ("C", "D"):
            own = [r for r in rows if r["family"] == family]
            assert len(own) == 4
            (rates[family],) = {(r["slope"], r["r2"]) for r in own}
            assert rates[family] == fit_rate([(r["n"], r["empirical_error"]) for r in own])
        assert rates["C"][0] != rates["D"][0]

    def test_a_family_with_too_few_rows_gets_no_rate(self):
        # two n give each family two points, though the group has four rows
        rows = run_verify(cfg_with(functions=[{"id": "circle", "builtin": "circle"}],
                                   theorems=["T41"], sweep=[81, 256])).rows
        assert len(rows) == 4 and {(r["slope"], r["r2"]) for r in rows} == {(None, None)}

    def test_expression_function(self):
        result = run_verify(cfg_with(functions=[{
            "id": "wave", "expr": "sin(2*x)", "domain": [0.0, 1.0],
        }]))
        assert len(result.rows) == 3
        assert all(r["verdict"] in ("holds", "inconclusive-estimated") for r in result.rows)

    def test_declared_sup_norm_below_the_sampled_sup_is_skipped(self):
        # T13 used to read 0.5 as sin's sup, a bound too small to certify
        result = run_verify(cfg_with(theorems=["T13"], functions=[
            {"id": "w", "expr": "sin(x)", "sup_norm": 0.5, "exact_modulus": "sine_period"},
            {"id": "v", "expr": "sin(x)", "sup_norm": 1.0, "exact_modulus": "sine_period"}]))
        assert {r["function"] for r in result.rows} == {"v"}
        (skip,) = result.skipped
        assert skip["function"] == "w"
        assert skip["reason"].startswith(
            "expression rejected: declared sup_norm 0.5 is below the sampled sup 0.99")

    def test_declared_sup_norm_check_is_one_part_in_1e12(self):
        # a declared value 1e-9 below the sampled sup is rejected, the
        # sampled sup itself is accepted
        sampled = bounds.Run((), ()).sampled_sup(corpus.function_from_expression("w", "sin(x)"))
        result = run_verify(cfg_with(theorems=["T13"], functions=[
            {"id": "low", "expr": "sin(x)", "sup_norm": sampled * (1.0 - 1e-9),
             "exact_modulus": "sine_period"},
            {"id": "equal", "expr": "sin(x)", "sup_norm": sampled,
             "exact_modulus": "sine_period"}]))
        assert {r["function"] for r in result.rows} == {"equal"}
        assert [s["function"] for s in result.skipped] == ["low"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_declared_sup_norm_of_a_nan_sample_is_rejected(self):
        # the sample is nan left of 0.3, and nan > 0.5 is False: a check
        # written that way trusts 0.5, though the true sup is 0.84
        result = run_verify(cfg_with(theorems=["T13"], functions=[
            {"id": "g", "expr": "(x - 0.3)^0.5", "sup_norm": 0.5, "grid_window": [0.0, 1.0]}]))
        assert result.rows == ()
        (skip,) = result.skipped
        assert skip["reason"] == "expression rejected: its sample on [0.0, 1.0] is not finite"

    @pytest.mark.parametrize("theorem,spec", [
        ("T13", {"sup_norm": 5.0, "grid_window": [-1.0, 1.0]}),
        ("T12", {"domain": [-1.0, 1.0]}),
    ])
    def test_zero_denominator_in_the_sample_is_skipped(self, theorem, spec):
        # x = 0 is a sample point; the T13 run used to raise DivisionByZero
        result = run_verify(cfg_with(theorems=[theorem], functions=[
            {"id": "g", "expr": "1/x", **spec}]))
        assert result.rows == ()
        assert [(s["theorem"], s["reason"]) for s in result.skipped] == [
            (theorem, "expression rejected: division by zero during evaluation")]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_time_skips_follow_every_plan_time_skip(self):
        # n = 4 at exponent 0.5 fails the hypothesis when the run is
        # planned; the overflow of exp(709*x) shows only once its group has run
        result = run_verify(cfg_with(sweep=[4, 9, 16], functions=[
            {"id": "g", "expr": "exp(709*x)", "domain": [0.0, 1.0]},
            {"id": "linear", "builtin": "linear"}]))
        reasons = [(s["function"], s["n"], s["reason"].split()[0]) for s in result.skipped]
        assert reasons == [("g", 4, "hypothesis"), ("linear", 4, "hypothesis"),
                           ("g", 9, "non-finite"), ("g", 16, "non-finite")]
        assert [r["n"] for r in result.rows] == [9, 16]

    def test_jobs_other_than_one_is_a_precondition(self):
        with pytest.raises(PreconditionViolated, match="jobs"):
            ExperimentConfig(functions=(), theorems=(), sweep=(16,), rate_exponents=(0.5,),
                             jobs=2)

    def test_replace_with_jobs_one_keeps_working(self, tmp_path):
        # the form perfbench/child.py uses
        cfg = dataclasses.replace(cfg_with(), jobs=1, csv_path=str(tmp_path / "r.csv"),
                                  json_path=str(tmp_path / "r.json"))
        assert (cfg.jobs, cfg.csv_path, cfg.json_path) == (
            1, str(tmp_path / "r.csv"), str(tmp_path / "r.json"))
        assert run_verify(cfg).rows == run_verify(cfg_with()).rows


class TestInputChecks:
    def test_a_malformed_yaml_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("sweep: [1, 2\n")
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_file(str(path))
        assert exc.value.field == "yaml"

    def test_a_document_that_is_not_a_mapping_is_a_config_error(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict([BASE])
        assert (exc.value.field, exc.value.message) == ("document", "top level must be a mapping")

    @pytest.mark.parametrize("shape, domain, message", [
        ("exp_interval", None, "exp_interval needs a finite interval"),
        ("vee", [1.0, 2.0], "vee needs an interval containing 0"),
        ("parabola_right", [-1.0, 1.0], "parabola_right needs [a, b] with a >= 0"),
    ])
    def test_an_exact_modulus_outside_its_shape_is_a_config_error(self, shape, domain, message):
        spec = {"id": "g", "expr": "x", "exact_modulus": shape}
        if domain is not None:
            spec["domain"] = domain
        with pytest.raises(ConfigError) as exc:
            cfg_with(functions=[spec])
        assert (exc.value.field, exc.value.message) == ("functions[0].exact_modulus", message)

    def test_a_whole_line_expression_without_a_sup_norm_is_skipped(self):
        result = run_verify(cfg_with(theorems=["T13"], functions=[{"id": "w", "expr": "sin(x)"}]))
        assert result.rows == ()
        assert [s["reason"] for s in result.skipped] == [
            "whole-line theorem needs a declared sup_norm"]

    def test_a_non_finite_sum_of_finite_terms_names_the_bound(self):
        report = bounds.BoundReport("T12", "g", "A", 16, 0.5, "sup over grid", 0.1, math.inf,
                                    {"modulus_term": 1e308, "tail_term": 1e308}, "exact",
                                    "non-finite")
        assert harness._non_finite_reason(report) == (
            "non-finite empirical error or bound: bound")

    def test_a_report_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        argv = ["verify", "--config", write_config(tmp_path, BASE), "--out-csv", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: --out-csv: {tmp_path} is a directory")

    @pytest.mark.parametrize("order", [0, 3])
    def test_a_derivative_the_chain_lacks_is_missing(self, order):
        f = INTERVAL_CORPUS["linear"]
        assert len(f.derivatives) == 2
        with pytest.raises(MissingDerivative, match=f"order {order} not supplied"):
            f.derivative(order)

    def test_complex_parts_on_different_domains_are_a_precondition(self):
        # a bare ValueError would escape `except ErfApproxError`
        re, im = (FunctionSpec(name, np.sin, domain=d)
                  for name, d in (("re", (0.0, 1.0)), ("im", (0.0, 2.0))))
        with pytest.raises(PreconditionViolated, match="must share a domain"):
            ComplexFunctionSpec("z", re, im)


class TestDeterminism:
    def test_csv_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_verify(cfg_with()), str(p1))
        write_csv(run_verify(cfg_with()), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_fixed(self, tmp_path):
        p = tmp_path / "r.csv"
        write_csv(run_verify(cfg_with()), str(p))
        header = p.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


class TestPartitionCheck:
    def test_defaults(self):
        summary = run_partition_check()
        assert summary["max_partition_deviation"] <= 1e-12
        assert summary["partition_ok"]
        assert summary["tail_strictly_below_bound"]
        assert summary["boundary_deficiency_min"] >= 0.2488


class TestCli:
    def test_verify_exit_zero(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "out.csv"
        assert main(["verify", "--config", path, "--out-csv", str(out)]) == 0
        assert out.exists()

    def test_config_error_exit_two(self, tmp_path):
        path = write_config(tmp_path, {**BASE, "theorems": ["T99"]})
        assert main(["verify", "--config", path]) == 2

    @pytest.mark.parametrize("overrides, field", [
        # a bare ValueError and a traceback
        ({"grid": {"anchors": "abc"}}, "grid.anchors"),
        # ran with refinement on: bool("false") is True
        ({"grid": {"refinement": "false"}}, "grid.refinement"),
        # ran as 2048, n = 16 and n = 1
        ({"grid": {"x_points": 2048.9}}, "grid.x_points"),
        ({"sweep": [16.7]}, "sweep"),
        ({"sweep": [True]}, "sweep"),
        # a TypeError out of run_verify
        ({"functions": [{"id": "g", "expr": "x", "domain": 5}]}, "functions[0].domain"),
        # a ValueError out of run_verify; the theorem now decides the orders
        ({"functions": [{"id": "g", "expr": "x", "domain": [0.0, 1.0], "orders": "two"}]},
         "functions[0].orders"),
        # every row a skip: "unknown modulus shape", "group failed"
        ({"functions": [{"id": "g", "expr": "x", "domain": [0.0, 1.0],
                         "exact_modulus": "lineer"}]}, "functions[0].exact_modulus"),
        ({"functions": [{"id": "g", "expr": "x", "domain": [1.0, 0.0]}]}, "functions[0].domain"),
        # open(1, "w") closed the process's stdout
        ({"output": {"csv": 1}}, "output.csv"),
        ({"output": {"json": 1}}, "output.json"),
        # an uncaught TypeError: unhashable type: 'list'
        ({"functions": [{"id": [1], "builtin": "sin"}]}, "functions[0].id"),
        # loaded, then the same TypeError out of run_verify
        ({"functions": [{"id": "s", "builtin": ["sin"]}]}, "functions[0].builtin"),
        # loaded, and every theorem skipped it
        ({"functions": [{"id": "s", "builtin": "nosuch"}]}, "functions[0].builtin"),
        # loaded, and every row became the skip "expression rejected"
        ({"functions": [{"id": "g", "expr": "sin(x)", "domain": [2.0, 3.0],
                         "exact_modulus": "sine_rising"}]}, "functions[0].exact_modulus"),
        ({"functions": [{"id": "g", "expr": "x^2", "domain": [0.0, 1.0],
                         "exact_modulus": "parabola"}]}, "functions[0].exact_modulus"),
        # loaded, and every group became the skip "group failed"
        ({"theorems": ["T16"], "highorder_orders": [0]}, "highorder_orders"),
        ({"theorems": ["T16"], "highorder_orders": [-1]}, "highorder_orders"),
        ({"theorems": ["T30"], "fractional_orders": [2.0]}, "fractional_orders"),
        ({"theorems": ["T30"], "fractional_orders": [0.0]}, "fractional_orders"),
        ({"theorems": ["T30"], "fractional_orders": [-0.5]}, "fractional_orders"),
        # loaded, and never read: the domain is the sampling window
        ({"functions": [{"id": "g", "expr": "x", "domain": [0.0, 1.0],
                         "grid_window": [0.2, 0.4]}]}, "functions[0].grid_window"),
        # loaded, and every row became the skip "expression rejected: expected ')'"
        ({"functions": [{"id": "g", "expr": "sin(x", "domain": [0.0, 1.0]}]},
         "functions[0].expr"),
        # loaded, and whole-line bounds took -5 as the function's sup
        ({"functions": [{"id": "w", "expr": "sin(x)", "sup_norm": -5.0}]},
         "functions[0].sup_norm"),
        ({"functions": [{"id": "w", "expr": "sin(x)", "sup_norm": float("inf")}]},
         "functions[0].sup_norm"),
        # loaded, and gave 0 rows: nothing was checked
        ({"theorems": []}, "theorems"),
        ({"functions": []}, "functions"),
        # loaded, wrote the n = 16 row twice and fitted the rate with it twice
        ({"sweep": [16, 16, 81]}, "sweep"),
        # loaded, and every group of the repeated entry ran twice
        ({"theorems": ["T12", "T12"]}, "theorems"),
        ({"rate_exponents": [0.5, 0.5]}, "rate_exponents"),
        ({"theorems": ["T30"], "fractional_orders": [0.5, 0.5]}, "fractional_orders"),
        ({"theorems": ["T16"], "highorder_orders": [1, 1]}, "highorder_orders"),
        # loaded, and every function became the one skip "no alpha_frac in []"
        ({"theorems": ["T30"], "fractional_orders": []}, "fractional_orders"),
        ({"theorems": ["T16"], "highorder_orders": []}, "highorder_orders"),
        ({"sweep": []}, "sweep"),
        ({"rate_exponents": []}, "rate_exponents"),
        # a run that crashed with exit 1: an OverflowError, then a ValueError
        ({"functions": [{"id": "g", "expr": "x", "domain": [float("-inf"), 1.0]}]},
         "functions[0].domain"),
        ({"theorems": ["T13"], "functions": [{"id": "w", "expr": "sin(x)", "sup_norm": 1.0,
                                               "grid_window": [float("-inf"), 1.0]}]},
         "functions[0].grid_window"),
        # RecursionError tracebacks with exit 1: in the parser, and under T16
        # in the differentiator
        ({"functions": [{"id": "g", "expr": "(" * 1200 + "x" + ")" * 1200,
                         "domain": [0.0, 1.0]}]}, "functions[0].expr"),
        ({"theorems": ["T16"], "functions": [{"id": "g", "expr": " + ".join(["x"] * 1500),
                                               "domain": [0.0, 1.0]}]}, "functions[0].expr"),
    ])
    def test_value_of_the_wrong_type_exits_two_naming_its_field(self, tmp_path, capsys,
                                                                overrides, field):
        path = write_config(tmp_path, {**BASE, **overrides})
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    def test_jobs_flag_is_gone(self, capsys):
        # runs are serial; the flag used to pick a thread pool
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_config_exit_two(self):
        assert main(["verify", "--config", "/no/such/file.yaml"]) == 2

    @pytest.mark.parametrize("command, flag, key", [
        ("verify", "--out-csv", "--out-csv"), ("verify", "--out-json", "--out-json"),
        ("verify", None, "output.csv"), ("verify", None, "output.json"),
        ("check-partition", "--out-json", "--out-json"),
    ])
    def test_unwritable_output_exits_two_before_any_group_runs(self, tmp_path, capsys,
                                                              monkeypatch, command, flag, key):
        # ended in a FileNotFoundError traceback and exit 1 after the sweep
        out = str(tmp_path / "missing" / "x.csv")
        ran = []
        monkeypatch.setattr(cli, "run_verify", lambda cfg: ran.append(cfg))
        monkeypatch.setattr(cli, "run_partition_check", lambda: ran.append(None))
        if command == "check-partition":
            argv = [command, flag, out]
        elif flag:
            argv = [command, "--config", write_config(tmp_path, BASE), flag, out]
        else:
            doc = {**BASE, "output": {key.split(".")[1]: out}}
            argv = [command, "--config", write_config(tmp_path, doc)]
        assert main(argv) == 2
        assert not ran
        assert capsys.readouterr().err.startswith(f"config error: {key}: cannot write {out}")

    def test_check_partition_exit_zero(self, tmp_path):
        out = tmp_path / "partition.json"
        assert main(["check-partition", "--out-json", str(out)]) == 0
        assert json.loads(out.read_text())["partition_ok"]

    @pytest.mark.parametrize("flags", [
        ["--config", "/nonexistent.yaml"], ["--out-csv", "x.csv"], ["--jobs", "0"],
    ])
    def test_check_partition_rejects_the_flags_it_would_ignore(self, flags, capsys):
        # all three used to be parsed and ignored, with exit code 0
        with pytest.raises(SystemExit) as exc:
            main(["check-partition", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fractional_subcommand(self, tmp_path):
        doc = {**BASE, "functions": [{"id": "sq", "builtin": "sq"}],
               "theorems": ["T12", "C33"], "sweep": [9, 16],
               "grid": {"x_points": 64, "refinement": False,
                        "anchors": 9, "table_points": 129}}
        path = write_config(tmp_path, doc)
        out = tmp_path / "frac.json"
        assert main(["fractional", "--config", path, "--out-json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(r["theorem"] == "C33" for r in doc["rows"])

    def test_fractional_subcommand_without_a_fractional_theorem_exits_two(self, tmp_path,
                                                                          capsys):
        # printed rows=0 and exited 0: nothing was checked
        path = write_config(tmp_path, BASE)
        assert main(["fractional", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error: theorems: ")

    def test_rates_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["rates", "--config", path]) == 0
        assert "slope=" in capsys.readouterr().out

    def test_rates_prints_every_group_and_family_in_config_order(self, tmp_path, capsys):
        # keyed by (theorem, function, family, exponent), the N = 1 and 2
        # groups of T16 and T38 and the alpha_frac groups of T30, C31 and T39
        # overwrote each other: 76 lines for 98 rates
        path = resources.files("erfapprox").joinpath("default.yaml")
        assert main(["rates", "--config", str(path), "--out-csv", str(tmp_path / "out.csv"),
                     "--out-json", str(tmp_path / "out.json")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "slope=" in line]
        assert len(lines) == 98 == len(set(lines))
        assert lines[0].startswith("T12 linear A exponent=0.5: ")
        assert "T16 sin A exponent=0.5 N=2: slope=-0.987 r2=0.9959" in lines
        assert any(line.startswith("T39 circle A exponent=0.8 alpha_frac=1.5: ")
                   for line in lines)
        theorems = [line.split()[0] for line in lines]
        assert theorems == sorted(theorems, key=list(dict.fromkeys(theorems)).index)
        assert list(dict.fromkeys(theorems)) == [
            t for t in ExperimentConfig.from_file(str(path)).theorems if t in theorems]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    def run_cli(self, tmp_path, spec):
        doc = {**BASE, "functions": [{"id": "g", "domain": [0.0, 1.0], **spec}]}
        out = tmp_path / "out.json"
        code = main(["verify", "--config", write_config(tmp_path, doc),
                     "--out-json", str(out)])
        return code, json.loads(out.read_text())

    def test_pole_is_skipped_not_violated(self, tmp_path):
        # nan error against an infinite bound was reported "violated" (exit
        # 1) while the exact modulus made the verdict final; the sample at
        # x = 0 is inf, so the function is skipped before any group runs
        code, doc = self.run_cli(tmp_path, {"expr": "x^-1", "exact_modulus": "linear"})
        assert code == 0
        assert doc["rows"] == []
        assert [(s["theorem"], s["reason"]) for s in doc["skipped"]] == [
            ("T12", "expression rejected: its sample on [0.0, 1.0] is not finite")]

    def test_overflow_is_skipped_not_inconclusive(self, tmp_path):
        # the sample is finite (exp(709) = 8.2e307); 1/chi(1) times it is not
        code, doc = self.run_cli(tmp_path, {"expr": "exp(709*x)"})
        assert code == 0
        assert doc["rows"] == []
        assert {s["family"] for s in doc["skipped"]} == {"A"}
        assert {s["reason"] for s in doc["skipped"]} == {
            "non-finite empirical error or bound: modulus_term"}


class TestSupErrorPerRun:
    def test_each_distinct_sup_error_is_measured_once_per_run(self, monkeypatch):
        calls = Counter()
        real = bounds.apply_operator

        def counting(f, x, cfg, work=None):
            calls[(f.name, cfg.family, cfg.n, np.size(x))] += 1
            return real(f, x, cfg, work)

        monkeypatch.setattr(bounds, "apply_operator", counting)
        cfg = cfg_with(functions=[{"id": "sin", "builtin": "sin"}], theorems=["T12", "T16"],
                       sweep=[9, 16, 81, 256], rate_exponents=[0.5, 0.8],
                       highorder_orders=[1, 2], grid={"x_points": 64, "refinement": True})
        first = run_verify(cfg)
        # T12 and T16 (N = 1, 2) at both exponents measure the same
        # (f, A, n) images; exponent 0.8 admits only n = 256
        assert len(first.rows) == 15
        assert dict(calls) == {("sin", "A", n, p): 1
                               for n in (9, 16, 81, 256) for p in (127,)}

        second = run_verify(cfg)
        assert set(calls.values()) == {2}
        assert second.rows == first.rows


class TestComplexFromParts:
    """A complex function's one operator call per (n, family) gives its own
    grid-sup error and its parts' real ones: the run measures complex
    groups first, so no image is measured twice, bit for bit as when each
    part measures itself."""

    COMPLEX = ("circle", "ramp_pair")
    DOC = {"functions": [{"id": name, "builtin": name} for name in (
               "cos", "sin", "linear", "sq", *COMPLEX)],
           "theorems": ["T12", "T13", "T14", "T15", "T30", "T36", "T37", "T38", "T39", "T41"],
           "sweep": [16, 81, 256], "rate_exponents": [0.5], "fractional_orders": [0.5, 1.5],
           "grid": {"x_points": 64, "anchors": 5, "table_points": 65}}

    @staticmethod
    def operator_calls(monkeypatch):
        """The (f, cfg) of every operator call from here on."""
        calls, real = [], bounds.apply_operator

        def spy(f, x, cfg, work=None):
            calls.append((f, cfg))
            return real(f, x, cfg, work)

        monkeypatch.setattr(bounds, "apply_operator", spy)
        return calls

    def run_alone(self):
        """A run of DOC's complex functions alone."""
        alone = [s for s in self.DOC["functions"] if s["id"] in self.COMPLEX]
        return run_verify(cfg_with(**{**self.DOC, "functions": alone}))

    def runs(self):
        """(a run of DOC, a run of its complex functions alone)."""
        return run_verify(cfg_with(**self.DOC)), self.run_alone()

    def complex_of(self, result):
        """result's rows and skips of the complex functions."""
        return ([r for r in result.rows if r["function"] in self.COMPLEX],
                [s for s in result.skipped if s["function"] in self.COMPLEX])

    def test_part_rows_equal_those_of_a_run_without_the_complex_functions(self, monkeypatch):
        calls = self.operator_calls(monkeypatch)
        together = run_verify(cfg_with(**self.DOC))
        # circle and ramp_pair under T36, T38 and T39 give their parts' A
        # images; the line circle of T37 and T41 gives the line cos and sin
        # of T13-T15
        assert len(calls) == len(set(calls))
        assert {f.name for f, _ in calls if isinstance(f, ComplexFunctionSpec)} == set(
            self.COMPLEX)
        reals = [s for s in self.DOC["functions"] if s["id"] not in self.COMPLEX]
        without = run_verify(cfg_with(**{**self.DOC, "functions": reals}))
        # repr tells every float apart by its bits, -0.0 from 0.0 too
        assert without.rows
        assert repr([r for r in together.rows if r["function"] not in self.COMPLEX]) == repr(
            list(without.rows))
        assert repr(self.complex_of(together)) == repr(self.complex_of(self.run_alone()))
        assert {r["verdict"] for r in together.rows} == {"holds"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_at_one_sup_grid_point_of_one_part(self, monkeypatch):
        # circle's real part is the interval cos, which T12 measures; its
        # bound reads a declared sup and an exact modulus, so only the
        # sup-grid sample sees the NaN, which is off every node k/n
        clean, _ = self.runs()
        cos = corpus.INTERVAL_CORPUS["cos"]
        x_nan, real = np.linspace(*cos.domain, 127)[50], cos.eval
        monkeypatch.setitem(vars(cos), "eval", lambda t: np.where(
            np.asarray(t) == x_nan, np.nan, real(t)))
        together, alone = self.runs()
        assert repr(self.complex_of(together)) == repr(self.complex_of(alone))
        poisoned = [r for r in clean.rows if r["function"] in ("cos", "circle")
                    and r["family"] == "A"]
        assert len(poisoned) == 3 * (1 + 1 + 1 + 2)        # T12 cos, T36, T38, T39 twice
        assert list(together.rows) == [r for r in clean.rows if r not in poisoned]
        failed = [s for s in together.skipped if "non-finite" in s["reason"]]
        assert [(s["theorem"], s["function"], s["n"]) for s in failed] == [
            (r["theorem"], r["function"], r["n"]) for r in poisoned]
        assert {s["reason"] for s in failed} == {
            "non-finite empirical error or bound: empirical_error"}

    def test_the_packaged_default_measures_each_image_once(self, monkeypatch):
        # 80 calls when the complex functions took their errors from their
        # parts' real groups, 100 when every group measured its own
        calls = self.operator_calls(monkeypatch)
        path = resources.files("erfapprox").joinpath("default.yaml")
        run_verify(ExperimentConfig.from_file(str(path)))
        assert len(calls) == len(set(calls)) == 60
        assert sum(isinstance(f, ComplexFunctionSpec) for f, _ in calls) == 20

    def test_a_complex_function_alone_makes_one_call_per_cfg(self, monkeypatch):
        calls, kernels, real = self.operator_calls(monkeypatch), [], operators._kernel
        monkeypatch.setattr(operators, "_kernel", lambda *a: kernels.append(a) or real(*a))
        result = run_verify(cfg_with(functions=[{"id": "circle", "builtin": "circle"}],
                                     theorems=["T36"], sweep=[16, 81, 256],
                                     rate_exponents=[0.5, 0.6]))
        assert len(result.rows) == 6
        assert [(f.name, cfg.n) for f, cfg in calls] == [("circle", n) for n in (16, 81, 256)]
        assert len(kernels) == len(calls)

    def test_a_complex_call_gives_a_part_its_real_rows(self, monkeypatch):
        # T12 measures cos but not sin: circle's calls give cos its errors
        calls = self.operator_calls(monkeypatch)
        doc = {"functions": [{"id": name, "builtin": name} for name in ("cos", "circle")],
               "theorems": ["T12", "T36"], "sweep": [16, 81, 256]}
        result = run_verify(cfg_with(**doc))
        assert [f.name for f, _ in calls] == ["circle"] * 3
        cos_alone = run_verify(cfg_with(**{**doc, "functions": doc["functions"][:1],
                                           "theorems": ["T12"]}))
        assert repr([r for r in result.rows if r["function"] == "cos"]) == repr(
            list(cos_alone.rows))

    @pytest.mark.parametrize("theorems", [["T36", "T12"], ["T12", "T36"]])
    def test_either_theorem_order_measures_each_image_once(self, monkeypatch, theorems):
        calls = self.operator_calls(monkeypatch)
        doc = {"functions": [{"id": name, "builtin": name} for name in ("cos", "sin", "circle")],
               "theorems": theorems, "sweep": [16, 81, 256]}
        result = run_verify(cfg_with(**doc))
        # T36 runs first either way, and its calls give T12's cos and sin rows
        assert [f.name for f, _ in calls] == ["circle"] * 3
        baseline = run_verify(cfg_with(**{**doc, "theorems": ["T12", "T36"]}))
        key = lambda r: (r["theorem"], r["function"], r["n"])
        assert sorted(result.rows, key=key) == sorted(baseline.rows, key=key)
        assert len(result.rows) == 9 and result.held == 9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_skips_and_rows_keep_their_config_order_places(self, monkeypatch):
        # T36 and T37 run before T12 and T13, but a failed group, a
        # non-finite cell and a row each keep the place of their group
        doc = {"functions": [{"id": name, "builtin": name} for name in (
                   "cos", "linear", "circle", "ramp_pair")],
               "theorems": ["T12", "T36", "T13", "T37"], "sweep": [16, 81, 256],
               "grid": {"x_points": 64}}
        clean = run_verify(cfg_with(**doc))
        # the interval cos, circle's real part, is NaN at one sup-grid point
        # off every node k/n, so T12 cos and T36 circle read non-finite
        cos = corpus.INTERVAL_CORPUS["cos"]
        x_nan, real_eval = np.linspace(*cos.domain, 127)[50], cos.eval
        monkeypatch.setitem(vars(cos), "eval", lambda t: np.where(
            np.asarray(t) == x_nan, np.nan, real_eval(t)))
        # and the line cos's bound fails, so T13 cos and T37 circle fail
        real_mu2 = bounds.mu2

        def mu2(f, *args, **kw):
            if f is corpus.LINE_CORPUS["cos"]:
                raise PreconditionViolated("no bound for cos")
            return real_mu2(f, *args, **kw)

        monkeypatch.setattr(bounds, "mu2", mu2)
        result = run_verify(cfg_with(**doc))
        plan_skips = list(clean.skipped)
        assert list(result.skipped[:len(plan_skips)]) == plan_skips
        assert [(s["theorem"], s["function"], s.get("n"), s["reason"].split(":")[0])
                for s in result.skipped[len(plan_skips):]] == [
            *[("T12", "cos", n, "non-finite empirical error or bound") for n in (16, 81, 256)],
            *[("T36", "circle", n, "non-finite empirical error or bound")
              for n in (16, 81, 256)],
            ("T13", "cos", None, "group failed"), ("T37", "circle", None, "group failed")]
        assert [(r["theorem"], r["function"]) for r in result.rows] == [
            (t, f) for t, f in (("T12", "linear"), ("T36", "ramp_pair"), ("T13", "linear"))
            for _ in range(3)]
        assert list(result.rows) == [r for r in clean.rows if (r["theorem"], r["function"])
                                     in {("T12", "linear"), ("T36", "ramp_pair"),
                                         ("T13", "linear")}]



class TestZeroDerivativeLevels:
    def test_a_level_that_simplifies_to_0_is_not_evaluated_at_caputo_nodes(self, monkeypatch):
        # 3*x + 1 has f'' = 0: it declares sup_norm 0.0, so T30 at alpha 1.5
        # skips its node matrices; undeclared, it was evaluated there to 0.0
        f = corpus.function_from_expression("l", "3*x + 1", domain=(0.0, 1.0), orders=2)
        assert (f.derivative(1).sup_norm, f.derivative(2).sup_norm) == (None, 0.0)
        doc = {"functions": [{"id": "l", "expr": "3*x + 1", "domain": [0.0, 1.0]}],
               "theorems": ["T30"], "sweep": [16, 81, 256], "rate_exponents": [0.5, 0.6],
               "fractional_orders": [1.5], "grid": {"x_points": 64, "anchors": 5,
                                                     "table_points": 65}}
        at_nodes, real_evaluate = [], corpus.evaluate

        def spy(program, x, level=0):
            if np.ndim(x) == 2:         # operator node blocks and Caputo node matrices
                at_nodes.extend(level if isinstance(level, tuple) else (level,))
            return real_evaluate(program, x, level)

        monkeypatch.setattr(corpus, "evaluate", spy)
        declared = run_verify(cfg_with(**doc))
        assert 2 not in at_nodes and len(declared.rows) == 6

        real_build = corpus.function_from_expression

        def undeclared(*args, **kw):
            f = real_build(*args, **kw)
            f2 = dataclasses.replace(f.derivative(2), sup_norm=None)
            return dataclasses.replace(f, derivatives=(
                dataclasses.replace(f.derivative(1), derivatives=(f2,)), f2))

        monkeypatch.setattr(corpus, "function_from_expression", undeclared)
        assert repr(run_verify(cfg_with(**doc)).rows) == repr(declared.rows)
        assert 2 in at_nodes


class TestModuliPerRun:
    def test_each_function_is_sampled_once_per_window(self, monkeypatch):
        # one 8191-point sample gives every modulus step and the sup of a
        # (function, window); T13 and T14 share the wave's function
        sampled, programs = Counter(), []
        real = corpus.evaluate

        def spy(program, x, level=0):
            if np.size(x) == 8191:
                programs.append(program)
                sampled[(id(program), level)] += 1
            return real(program, x, level)

        monkeypatch.setattr(corpus, "evaluate", spy)
        cfg = cfg_with(functions=[
            {"id": "g", "expr": "exp(-0.7*x^2)*cos(1.3*x)", "domain": [-1.0, 1.5]},
            {"id": "w", "expr": "0.5*sin(0.8*x)*cos(1.1*x)", "sup_norm": 0.5},
        ], theorems=["T12", "T13", "T14"], sweep=[16, 81, 256, 1024],
            rate_exponents=[0.5, 0.6], grid={"x_points": 64})
        result = run_verify(cfg)
        assert len(result.rows) == 3 * 4 * 2 and result.held == len(result.rows)
        assert list(sampled.values()) == [1, 1]

    def test_an_expression_is_built_once_per_derivative_order(self):
        # T13-T15 read the wave's order 0, T16 at N = 1 and C31 the line's
        # order 1, and T12 its order 0
        cfg = cfg_with(functions=[
            {"id": "w", "expr": "0.5*sin(x)", "sup_norm": 0.5},
            {"id": "l", "expr": "x^2", "domain": [0.0, 1.0]},
        ], theorems=["T12", "T13", "T14", "T15", "T16", "C31"])
        groups, _ = harness._plan(cfg, bounds.Run.of(cfg.sweep, cfg.rate_exponents, cfg.grid))
        f = {(g.theorem, g.function): g.f for g in groups}
        assert len(f) == 6
        assert f["T13", "w"] is f["T14", "w"] is f["T15", "w"]
        assert f["T16", "l"] is f["C31", "l"] is not f["T12", "l"]

    def test_the_declared_sup_norm_check_reads_the_runs_sample(self, monkeypatch):
        # the check used to evaluate the wave once more on its own 4096 points
        sizes = []
        real = corpus.evaluate

        def spy(program, x, level=0):
            sizes.append(np.size(x))
            return real(program, x, level)

        monkeypatch.setattr(corpus, "evaluate", spy)
        cfg = cfg_with(functions=[
            {"id": "w", "expr": "0.5*sin(0.8*x)*cos(1.1*x)", "sup_norm": 0.5}],
            theorems=["T13"], sweep=[16, 81], rate_exponents=[0.5], grid={"x_points": 64})
        assert run_verify(cfg).held == 2
        assert sizes.count(8191) == 1 and 4096 not in sizes

    def test_a_run_reads_the_moduli_a_scalar_query_gives(self):
        f = corpus.function_from_expression("g", "sin(2.1*x) + 0.3*x^2", domain=(-1.0, 1.0),
                                            orders=1)
        run = bounds.Run.of((16, 81, 256), (0.5, 0.75))
        for n in (16, 81, 256):
            for e in (0.5, 0.75):
                for delta in (float(n) ** -e, 1.0 / n + float(n) ** -e):
                    one = evaluate_modulus(f, (delta,))
                    assert run.modulus(f, delta) == (one.value[0], one.quality,
                                                     bounds.Run((), ()).sampled_sup(f))
                    assert run.moduli[f].refinement_gap[
                        run.steps.index(delta)] == one.refinement_gap[0]
                assert run.sup(f.derivative(1)) == bounds.Run((), ()).sampled_sup(
                    f.derivative(1))
        # the derivative's sup is sampled alone: no bound reads its omega
        assert list(run.moduli) == [f] and list(run.sups) == [f, f.derivative(1)]
        with pytest.raises(PreconditionViolated):
            run.modulus(f, 0.3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFaultInjection:
    """A NaN at one point of one sample of function g: g's rows read
    non-finite, and the rows of the functions measured before and after it
    in the same run are bit-identical to those of a run without the NaN."""

    G = "exp(-0.7*x^2)*cos(1.3*x)"
    OMEGA_SAMPLE = 2 * 4096 - 1         # odd indices are the refinement's own points
    TABLE_NODES = (65 - 1) * 32         # a table's live points times the Jacobi nodes

    def assert_only_g_reads_non_finite(self, monkeypatch, doc, chain, poisons, at, part):
        """Run doc with a NaN at index at of the first value corpus.evaluate
        gives for the program of chain at each (level, size) in poisons,
        whether the call evaluates that level alone or with others; each
        skip's reason names the bound's term part."""
        clean = run_verify(cfg_with(**doc))
        target, hit, real = compile(*chain), [], corpus.evaluate

        def spy(program, x, level=0):
            joint = isinstance(level, tuple)
            outs = list(real(program, x, level)) if joint else [real(program, x, level)]
            for j, k in enumerate(level if joint else (level,)):
                key = (k, np.size(x))
                if program == target and key in poisons and key not in hit:
                    hit.append(key)
                    outs[j] = np.array(outs[j])
                    outs[j].flat[at] = np.nan
            return tuple(outs) if joint else outs[0]

        monkeypatch.setattr(corpus, "evaluate", spy)
        poisoned = run_verify(cfg_with(**doc))
        assert sorted(hit) == sorted(poisons)
        g_rows = [r for r in clean.rows if r["function"] == "g"]
        assert g_rows and {r["verdict"] for r in clean.rows} == {"holds"}
        assert list(poisoned.rows) == [r for r in clean.rows if r["function"] != "g"]
        assert [(s["function"], s["n"], s["exponent"]) for s in poisoned.skipped] == [
            (r["function"], r["n"], r["exponent"]) for r in g_rows]
        assert {s["reason"] for s in poisoned.skipped} == {
            f"non-finite empirical error or bound: {part}"}

    @pytest.mark.parametrize("theorem, functions", [
        ("T12", [{"id": "a", "expr": "sin(2*x) + x", "domain": [-1.0, 1.0]},
                 {"id": "g", "expr": G, "domain": [-1.0, 1.5]},
                 {"id": "b", "expr": "x^3 - x", "domain": [0.0, 2.0]}]),
        ("T13", [{"id": "a", "expr": "0.5*sin(x)", "sup_norm": 0.5},
                 {"id": "g", "expr": G, "sup_norm": 1.0},
                 {"id": "b", "expr": "exp(-x^2)", "sup_norm": 1.0}]),
    ])
    def test_a_nan_at_one_refined_omega_sample_point(self, monkeypatch, theorem, functions):
        doc = {"functions": functions, "theorems": [theorem], "sweep": [16, 81, 256],
               "rate_exponents": [0.5, 0.6], "grid": {"x_points": 64}}
        self.assert_only_g_reads_non_finite(monkeypatch, doc, [parse(self.G)],
                                            [(0, self.OMEGA_SAMPLE)], 4001, "modulus_term")

    def test_a_nan_at_one_jacobi_node_of_one_caputo_table(self, monkeypatch):
        # T30 at alpha 0.5 integrates g' and at alpha 1.5 g'': the first table
        # of each gets the NaN, at node 5 of its fourth point
        doc = {"functions": [{"id": "a", "expr": "sin(2*x) + x", "domain": [0.0, 1.0]},
                             {"id": "g", "expr": self.G, "domain": [0.0, 1.5]},
                             {"id": "b", "expr": "x^3 - x", "domain": [0.0, 2.0]}],
               "theorems": ["T30"], "sweep": [16, 81, 256], "rate_exponents": [0.5, 0.6],
               "fractional_orders": [0.5, 1.5],
               "grid": {"x_points": 64, "anchors": 5, "table_points": 65}}
        self.assert_only_g_reads_non_finite(
            monkeypatch, doc, derivatives(parse(self.G), 2),
            [(1, self.TABLE_NODES), (2, self.TABLE_NODES)], 3 * 32 + 5, "fractional_block")

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_a_nan_at_one_pointwise_x(self, monkeypatch, level):
        # T16 at N = 2 in pointwise mode reads f (level 0) and |f'| and |f''|
        # (levels 1, 2) at each of grid.pointwise_points points of f's
        # interval; f^(level) is NaN at the sixth of g's
        grid = bounds.GridPolicy(x_points=64, pointwise_points=9)
        sweep = (16, 81, 256)
        specs = [corpus.function_from_expression(fid, text, domain=dom, orders=2)
                 for fid, text, dom in [("a", "sin(2*x) + x", (-1.0, 1.0)),
                                        ("g", self.G, (-1.0, 1.5)),
                                        ("b", "x^3 - x", (0.0, 2.0))]]

        def rows():
            run = bounds.Run.of(sweep, (0.5,), grid)
            return {f.name: bounds.verify("T16", f, sweep, 0.5, grid, run=run, N=2,
                                          mode="pointwise") for f in specs}

        clean = rows()
        x0 = float(np.linspace(-1.0, 1.5, 9)[5])
        target, hit, real = compile(*derivatives(parse(self.G), 2)), [], corpus.evaluate

        def spy(program, x, at=0):
            out = real(program, x, at)
            if program == target and at == level and np.ndim(x) == 0 and x == x0:
                hit.append(x)
                out = np.nan
            return out

        monkeypatch.setattr(corpus, "evaluate", spy)
        poisoned = rows()
        assert hit and {r.verdict for rs in clean.values() for r in rs} == {"holds"}
        assert {r.verdict for r in poisoned["g"]} == {"non-finite"}
        assert len(poisoned["g"]) == len(clean["g"]) == len(sweep)
        assert poisoned["a"] == clean["a"] and poisoned["b"] == clean["b"]


class TestHighOrderChains:
    def test_specs_compare_by_identity(self):
        # the same fields make two specs: a spec equals only itself
        a, b = (FunctionSpec("f", np.sin, domain=(0.0, 1.0)) for _ in range(2))
        assert a == a and a != b and len({a, b, a}) == 2

    def test_repr_leaves_out_the_derivatives(self):
        # each level printed its whole tail: about 13 MB at order 16
        f = corpus.function_from_expression("g", "exp(-0.7*x^2)*cos(1.3*x)",
                                            domain=(-1.0, 1.0), orders=16)
        assert len(repr(f)) < 1000

    def test_t16_at_order_20_takes_under_two_seconds(self):
        # each run memo lookup hashed the whole chain: about 9 s, 2^N growth
        start = time.perf_counter()
        result = run_verify(cfg_with(theorems=["T16"], highorder_orders=[20], functions=[
            {"id": "s", "expr": "sin(x)", "domain": [0, 1]}]))
        assert time.perf_counter() - start < 2.0
        assert result.rows and not result.skipped


class TestCaputoPerRun:
    def test_a_run_keeps_only_moduli_at_its_steps(self, monkeypatch):
        # each Caputo table is read at the run's steps once and dropped
        entries = []
        real = bounds._anchor_tables

        def spy(*args):
            entries.append((args, real(*args)))
            return entries[-1][1]

        monkeypatch.setattr(bounds, "_anchor_tables", spy)
        path = resources.files("erfapprox").joinpath("default.yaml")
        cfg = dataclasses.replace(ExperimentConfig.from_file(str(path)), theorems=("T30",))
        assert run_verify(cfg).held > 0
        deltas = bounds.Run.of(cfg.sweep, cfg.rate_exponents).deltas
        assert len(deltas) == 8 and entries
        anchors = cfg.grid.anchors
        for args, arrays in entries:
            assert args[1] == cfg.fractional_orders and args[-1] == deltas
            # anchors, their moduli at every order and step and their sups: no table
            orders = len(cfg.fractional_orders)
            assert [a.shape for a in arrays] == [
                (anchors,), (orders, anchors, 2, len(deltas)), (orders, anchors, 2)]

    def test_the_plan_records_each_functions_fractional_orders(self):
        # const lacks f''', T39 reads no 2.5 and C31 only 0.5; ramp_pair's
        # imaginary part is the fractional sq
        cfg = cfg_with(functions=[
            {"id": "sq", "builtin": "sq"}, {"id": "const", "builtin": "const"},
            {"id": "ramp_pair", "builtin": "ramp_pair"},
            {"id": "g", "expr": "x^3", "domain": [0.0, 1.0]},
        ], theorems=["T30", "C31", "T39"], fractional_orders=[0.5, 1.5, 2.5])
        run = bounds.Run.of(cfg.sweep, cfg.rate_exponents, cfg.grid)
        groups, _ = harness._plan(cfg, run)
        g = {group.theorem: group.f for group in groups if group.function == "g"}
        ramp = corpus.COMPLEX_INTERVAL_CORPUS["ramp_pair"]
        assert ramp.im is FRACTIONAL_CORPUS["sq"]
        assert run.orders == {
            FRACTIONAL_CORPUS["sq"]: {0.5, 1.5, 2.5}, FRACTIONAL_CORPUS["const"]: {0.5, 1.5},
            ramp.re: {0.5, 1.5}, g["T30"]: {0.5, 1.5, 2.5}, g["C31"]: {0.5}}

    def test_the_packaged_default_builds_each_anchor_side_once(self, monkeypatch):
        # one table per (function, order, anchor, side) made 640 caputo_table
        # and 640 table_modulus calls, and evaluated linear's f'' = 0 in 64
        counts = Counter()
        for name in ("caputo_table", "table_modulus"):
            def spy(*args, _real=getattr(bounds, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(bounds, name, spy)
        zero = corpus.INTERVAL_CORPUS["linear"].derivative(2)
        assert zero.sup_norm == 0.0

        def at_nodes(t, _real=zero.eval):
            counts["zero f'' at Caputo nodes"] += np.ndim(t) == 2
            return _real(t)

        monkeypatch.setitem(vars(zero), "eval", at_nodes)
        path = resources.files("erfapprox").joinpath("default.yaml")
        bounds._anchor_tables.cache_clear()
        try:
            assert run_verify(ExperimentConfig.from_file(str(path))).held > 0
        finally:
            bounds._anchor_tables.cache_clear()
        assert counts == {"caputo_table": 320, "table_modulus": 158}

    def test_library_verify_per_exponent_matches_run_verify(self):
        # verify alone reads the tables at its own steps, run_verify at the
        # steps of every exponent; the rows are the same
        cfg = cfg_with(functions=[{"id": "sq", "builtin": "sq"}], theorems=["T30"],
                       sweep=[16, 81, 256], rate_exponents=[0.5, 0.6],
                       fractional_orders=[0.5], grid={"x_points": 64, "anchors": 5,
                                                      "table_points": 65})
        keys = ("n", "exponent", "empirical_error", "bound", "verdict")
        rows = [tuple(r[k] for k in keys) for r in run_verify(cfg).rows]
        library = [(r.n, r.rate_exponent, r.empirical_error, r.bound_value, r.verdict)
                   for e in cfg.rate_exponents
                   for r in bounds.verify("T30", FRACTIONAL_CORPUS["sq"], cfg.sweep, e,
                                          cfg.grid, alpha_frac=0.5)]
        assert len(rows) == 6 and library == rows
