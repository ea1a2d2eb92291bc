"""Harness: config validation, determinism, skip handling, exit codes."""

import dataclasses
import json
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import erfapprox
from erfapprox import bounds, corpus
from erfapprox.cli import main
from erfapprox.corpus import FRACTIONAL_CORPUS
from erfapprox.errors import ConfigError, PreconditionViolated
from erfapprox.funcs import FunctionSpec
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
        assert {s["reason"] for s in doc["skipped"]} == {"non-finite empirical error or bound"}


class TestSupErrorPerRun:
    def test_each_distinct_sup_error_is_measured_once_per_run(self, monkeypatch):
        calls = Counter()
        real = bounds.apply_operator

        def counting(f, x, cfg):
            calls[(f.name, cfg.family, cfg.n, np.size(x))] += 1
            return real(f, x, cfg)

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


class TestModuliPerRun:
    def test_each_function_is_sampled_once_per_window(self, monkeypatch):
        # one 8191-point sample gives every modulus step and the sup of a
        # (function, window); each theorem resolves its own function
        sampled, programs = Counter(), []
        real = corpus.evaluate

        def spy(program, x):
            if np.size(x) == 8191:
                programs.append(program)
                sampled[id(program)] += 1
            return real(program, x)

        monkeypatch.setattr(corpus, "evaluate", spy)
        cfg = cfg_with(functions=[
            {"id": "g", "expr": "exp(-0.7*x^2)*cos(1.3*x)", "domain": [-1.0, 1.5]},
            {"id": "w", "expr": "0.5*sin(0.8*x)*cos(1.1*x)", "sup_norm": 0.5},
        ], theorems=["T12", "T13", "T14"], sweep=[16, 81, 256, 1024],
            rate_exponents=[0.5, 0.6], grid={"x_points": 64})
        result = run_verify(cfg)
        assert len(result.rows) == 3 * 4 * 2 and result.held == len(result.rows)
        assert list(sampled.values()) == [1, 1, 1]

    def test_the_declared_sup_norm_check_reads_the_runs_sample(self, monkeypatch):
        # the check used to evaluate the wave once more on its own 4096 points
        sizes = []
        real = corpus.evaluate

        def spy(program, x):
            sizes.append(np.size(x))
            return real(program, x)

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
            assert args[-1] == deltas
            # anchors, their moduli at every step and their sups: no table
            assert [a.shape for a in arrays] == [
                (anchors,), (anchors, 2, len(deltas)), (anchors, 2)]

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
