"""The pair statistics and tree ids that tools/bench_pairs.py writes."""

import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import bench_pairs  # noqa: E402

PARENT = [2.0, 2.1, 2.2, 2.0, 2.1, 2.3, 2.0, 2.2, 2.1, 2.0]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_spread():
    change = [p - 0.5 for p in PARENT]
    change[0] = 2.5                                    # one lost pair: 9/10
    stats = bench_pairs.compare(PARENT, change, "lower", 0.24)
    assert stats["change_wins"] == 9
    assert bench_pairs.claim_verdict(stats)["met"]

    change[1] = 2.5                                    # 8/10
    assert not bench_pairs.claim_verdict(bench_pairs.compare(PARENT, change, "lower", 0.24))["met"]

    small_gain = [p - 0.01 for p in PARENT]          # every pair won, gain inside the spread
    verdict = bench_pairs.claim_verdict(bench_pairs.compare(PARENT, small_gain, "lower", 0.24))
    assert not verdict["met"]
    assert verdict["not_met_because"] == ["median gain within the parent's quartile spread"]

    for pairs in (1, 3, 9):                            # won outright, but too few pairs
        verdict = bench_pairs.claim_verdict(bench_pairs.compare(
            PARENT[:pairs], [p - 0.5 for p in PARENT[:pairs]], "lower", 0.24))
        assert verdict["wins"] == f"{pairs}/{pairs}"
        assert not verdict["met"]
        assert verdict["not_met_because"] == ["fewer than 10 pairs"]


def test_no_regression_verdicts():
    assert bench_pairs.compare(PARENT, PARENT, "lower", 0.1)["no_regression"] == "within bound"
    worse = [1.2 * p for p in PARENT]
    assert bench_pairs.compare(PARENT, worse, "lower", 0.1)["no_regression"] == "regressed"
    # higher-is-better metrics flip the sign
    assert bench_pairs.compare(PARENT, worse, "higher", 0.1)["no_regression"] == "within bound"
    wide = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
    assert bench_pairs.compare(wide, [1.05 * v for v in wide], "lower", 0.1)[
        "no_regression"] == "unresolved"


def test_count_differences_names_each_changed_count_and_only_counts():
    traced = {
        "default:11": {"metrics": {
            "special_functions.erf_points": {"parent": 100, "change": 40},
            "special_functions.erf_self_s": {"parent": 0.3, "change": 0.1},
            "modulus.calls": {"parent": 7, "change": 7},
            "operators.points": {"parent": 5, "change": 6},
            "operators.kernel_keys": {"parent": 20, "change": 20},
            "operators.kernel_repeat_share": {"parent": 0.5, "change": 0.1},
        }},
        "expr-dense:11": {"metrics": {
            "bounds.verify_cells": {"parent": 9, "change": 9},
            "harness.groups": {"parent": 4, "change": 3},
            "fractional.caputo_calls": {"parent": 2, "change": 2},
        }},
    }
    assert bench_pairs.count_differences(traced) == [
        "default:11 special_functions.erf_points: parent 100 -> change 40",
        "default:11 operators.points: parent 5 -> change 6",
        "expr-dense:11 harness.groups: parent 4 -> change 3",
    ]
    for entry in traced.values():
        for sides in entry["metrics"].values():
            sides["change"] = sides["parent"]
    assert bench_pairs.count_differences(traced) == [
        "all 7 traced counts are equal on default:11, expr-dense:11"]


def test_reports_identical_compares_both_reports_byte_for_byte(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        out = side / ".bench_out" / "expr-dense-seed13"
        out.mkdir(parents=True)
        (out / "rep1.csv").write_bytes(b"theorem,n\nT12,16\n")
        (out / "rep1.json").write_bytes(b'{"rows": []}\n')
        (out / "rep2.json").write_bytes(side.name.encode())      # not compared

    def identical():
        return bench_pairs.reports_identical(str(parent), str(change), "expr-dense", 13)

    assert identical()
    assert not bench_pairs.reports_identical(str(parent), str(change), "expr-dense", 0)
    report = change / ".bench_out" / "expr-dense-seed13" / "rep1.json"
    report.write_bytes(b'{"rows": [] }\n')
    assert not identical()
    report.write_bytes(b'{"rows": []}\n')
    table = parent / ".bench_out" / "expr-dense-seed13" / "rep1.csv"
    table.write_bytes(b"theorem,n\r\nT12,16\r\n")
    assert not identical()
    table.unlink()
    assert not identical()


def test_tree_id_matches_git_for_files_on_disk(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    try:
        git("init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    (tmp_path / "sub" / "deep").mkdir(parents=True)
    (tmp_path / "sub" / "a.py").write_text("a = 1\n")
    (tmp_path / "sub" / "deep" / "b.txt").write_text("b\n")
    (tmp_path / "sub" / "deep" / "__pycache__").mkdir()
    (tmp_path / "sub" / "deep" / "__pycache__" / "c.pyc").write_bytes(b"\0")
    (tmp_path / ".gitignore").write_text("__pycache__/\n")
    git("add", "-A")
    git("commit", "-q", "-m", "x")
    assert bench_pairs.tree_id(str(tmp_path), "sub") == git("rev-parse", "HEAD:sub")

    (tmp_path / "sub" / "a.py").write_text("a = 2\n")
    assert bench_pairs.tree_id(str(tmp_path), "sub") != git("rev-parse", "HEAD:sub")


def test_json_diff_names_each_differing_key_path():
    parent = {"boundary_deficiency": {"10": {"a": 0.28932480176257136, "b": 0.3}},
              "boundary_deficiency_min": 0.28932480176257136, "partition_ok": True,
              "tail_worst_margin": None}
    assert bench_pairs.json_diff(parent, parent) == []
    change = {"boundary_deficiency": {"10": {"a": 0.28932480176257114, "b": 0.3}},
              "boundary_deficiency_min": 0.28932480176257114, "partition_ok": True,
              "chi_integral_deviation": 0.0}
    assert bench_pairs.json_diff(parent, change) == [
        "boundary_deficiency.10.a", "boundary_deficiency_min", "chi_integral_deviation",
        "tail_worst_margin"]
    # a mapping on one side only differs as a whole
    assert bench_pairs.json_diff({"a": {"b": 1}}, {"a": 1}) == ["a"]


def test_json_diff_descends_into_lists_by_index():
    parent = {"rows": [{"bound": 0.5, "n": 16}, {"bound": 0.25, "n": 81}], "skipped": []}
    assert bench_pairs.json_diff(parent, parent) == []
    change = {"rows": [{"bound": 0.5, "n": 16}, {"bound": 0.2500000000000001, "n": 81}],
              "skipped": []}
    assert bench_pairs.json_diff(parent, change) == ["rows.1.bound"]
    # an item only one side has differs as a whole, on either side
    longer = {"rows": parent["rows"] + [{"bound": 0.1, "n": 256}], "skipped": [{"n": 9}]}
    assert bench_pairs.json_diff(parent, longer) == ["rows.2", "skipped.0"]
    assert bench_pairs.json_diff(longer, parent) == ["rows.2", "skipped.0"]
    # a list against a non-list differs as a whole
    assert bench_pairs.json_diff({"rows": []}, {"rows": {}}) == ["rows"]
    assert bench_pairs.json_diff([1, [2, 3]], [1, [2, 4]]) == ["1.1"]


def test_summary_prints_the_line_counts_beside_the_report_checks():
    doc = {"commits": {"parent": {"source_lines": 3105}, "change": {"source_lines": 3079}},
           "workloads": {"default:0": {"reports_identical": True},
                         "expr-dense:13": {"reports_identical": False}},
           "partition_json_diff": [], "golden_json_diff": ["rows.1.bound"]}
    assert bench_pairs.summary(doc) == [
        "default:0 reports_identical: True",
        "expr-dense:13 reports_identical: False",
        "partition_json_diff: []",
        "golden_json_diff: ['rows.1.bound']",
        "source_lines: parent 3105 -> change 3079",
    ]
    doc["traced"] = {"default:0": {"metrics": {"modulus.calls": {"parent": 7, "change": 7}}}}
    assert bench_pairs.summary(doc)[-1] == "all 1 traced counts are equal on default:0"


def test_summary_names_each_file_whose_line_count_changed(tmp_path):
    for side, files in (("parent", {"bounds.py": "a\nb\nc\n", "cli.py": "x\n",
                                    "gone.py": "y\n"}),
                        ("change", {"bounds.py": "a\n", "cli.py": "x\n", "new.py": "z\nw\n"})):
        package = tmp_path / side / "src" / "erfapprox"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    parent, change = (bench_pairs.describe(str(tmp_path / s)) for s in ("parent", "change"))
    assert parent["file_lines"] == {"bounds.py": 3, "cli.py": 1, "gone.py": 1}
    assert change["source_lines"] == 4
    doc = {"commits": {"parent": parent, "change": change}, "workloads": {},
           "partition_json_diff": [], "golden_json_diff": []}
    assert bench_pairs.summary(doc)[2:6] == [
        "source_lines: parent 5 -> change 4", "bounds.py 3 -> 1", "gone.py 1 -> 0",
        "new.py 0 -> 2"]


def test_public_names_are_read_from_each_checkouts_own_source(tmp_path):
    for side, names in (("parent", '["omega1", "ModulusQuery", "chi"]'),
                        ("change", '["omega1", "chi", "SAMPLE_POINTS"]')):
        package = tmp_path / side / "src" / "erfapprox"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(f"__all__ = {names}\n")
    broken = tmp_path / "broken" / "src" / "erfapprox"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text("raise ImportError('no')\n")
    parent, change = (bench_pairs.public_names(str(tmp_path / s)) for s in ("parent", "change"))
    assert parent == ["ModulusQuery", "chi", "omega1"]
    assert bench_pairs.public_names(str(tmp_path / "broken")) is None

    doc = {"commits": {"parent": {"source_lines": 3081, "public_names": parent},
                       "change": {"source_lines": 3048, "public_names": change}},
           "workloads": {}, "partition_json_diff": [], "golden_json_diff": []}
    assert bench_pairs.summary(doc)[-2:] == [
        "source_lines: parent 3081 -> change 3048",
        "public_names: removed ['ModulusQuery'], added ['SAMPLE_POINTS']"]
    doc["commits"]["change"]["public_names"] = None
    assert bench_pairs.summary(doc)[-1] == (
        "public_names: unknown, erfapprox does not import on one side")
