"""Harness: config validation, determinism, skip handling, exit codes."""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import erfapprox
from erfapprox import bounds
from erfapprox.cli import main
from erfapprox.errors import ConfigError
from erfapprox.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    run_partition_check,
    run_verify,
    write_csv,
)

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
        spec = {"id": "g", "expr": "sin(x)", "domain": [0.0, 1.0], "orders": 1,
                "exact_modulus": "sine_rising", "sup_norm": 1.0, "grid_window": [0.0, 1.0]}
        assert cfg_with(functions=[spec]).functions == (spec,)

    @pytest.mark.parametrize("key, value", [
        ("x_points", 1), ("anchors", 0), ("table_points", 1),
    ])
    def test_grid_size_below_its_least_is_rejected(self, key, value):
        # anchors 0 and table_points 1 used to crash run_verify on T30 with
        # a bare ValueError
        with pytest.raises(ConfigError) as exc:
            cfg_with(grid={key: value})
        assert exc.value.field == f"grid.{key}"

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
        result = run_verify(cfg_with(theorems=[]))
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

    def test_jobs_match_serial(self):
        serial = run_verify(cfg_with())
        doc = {**BASE}
        cfg = ExperimentConfig(**{**ExperimentConfig.from_dict(doc).__dict__, "jobs": 4})
        parallel = run_verify(cfg)
        assert serial.rows == parallel.rows


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

    def test_single_n(self):
        summary = run_partition_check(n_list=(1,), alpha_list=(0.5,), grid_points=2000)
        assert summary["max_partition_deviation"] <= 1e-12


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
        # a TypeError and a ValueError out of run_verify
        ({"functions": [{"id": "g", "expr": "x", "domain": 5}]}, "functions[0].domain"),
        ({"functions": [{"id": "g", "expr": "x", "domain": [0.0, 1.0], "orders": "two"}]},
         "functions[0].orders"),
        # every row a skip: "unknown modulus shape", "group failed"
        ({"functions": [{"id": "g", "expr": "x", "domain": [0.0, 1.0],
                         "exact_modulus": "lineer"}]}, "functions[0].exact_modulus"),
        ({"functions": [{"id": "g", "expr": "x", "domain": [1.0, 0.0]}]}, "functions[0].domain"),
        # open(1, "w") closed the process's stdout
        ({"output": {"csv": 1}}, "output.csv"),
        ({"output": {"json": 1}}, "output.json"),
    ])
    def test_value_of_the_wrong_type_exits_two_naming_its_field(self, tmp_path, capsys,
                                                                overrides, field):
        path = write_config(tmp_path, {**BASE, **overrides})
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    def test_missing_config_exit_two(self):
        assert main(["verify", "--config", "/no/such/file.yaml"]) == 2

    def test_check_partition_exit_zero(self):
        assert main(["check-partition"]) == 0

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
        # nan error against an infinite bound; reported "violated" (exit 1)
        # while the exact modulus made the verdict final
        code, doc = self.run_cli(tmp_path, {"expr": "x^-1", "exact_modulus": "linear"})
        assert code == 0
        assert doc["rows"] == []
        assert [(s["family"], s["n"]) for s in doc["skipped"]] == [("A", 9), ("A", 16), ("A", 81)]
        assert {s["reason"] for s in doc["skipped"]} == {"non-finite empirical error or bound"}

    def test_overflow_is_skipped_not_inconclusive(self, tmp_path):
        code, doc = self.run_cli(tmp_path, {"expr": "exp(800*x)"})
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

    def test_threads_sharing_one_run_match_serial(self):
        cfg = cfg_with(functions=[{"id": "sin", "builtin": "sin"},
                                  {"id": "cos", "builtin": "cos"}],
                       theorems=["T12", "T16"], sweep=[9, 16, 81], highorder_orders=[1, 2],
                       rate_exponents=[0.5, 0.6], grid={"x_points": 64})
        serial = run_verify(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_verify(dataclasses.replace(cfg, jobs=4))
        finally:
            sys.setswitchinterval(interval)
        assert threaded.rows == serial.rows
