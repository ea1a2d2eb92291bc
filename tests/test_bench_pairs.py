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
