"""Alternating parent/change pairs of the benchmark, written to BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pr NUMBER \\
        --run default:0 --run expr-dense:13 --claim default:0:verify_s \\
        --trace default:11

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
example a ``git clone`` of the parent commit and the working tree of the
change).  For every ``--run WORKLOAD:SEED`` the script makes ten pairs
of

    python3 perfbench/run.py --workload W --seed S --trace 0 --seconds T

one in each checkout, with the parent first in odd pairs and the change
first in even ones.  T is ``run_seconds`` from the change's BENCHMARK.json
on both sides.  Each ``--trace WORKLOAD:SEED`` adds one ``--trace 1`` run
per side and records its per-layer metrics.

For every end-to-end metric the file holds both sides' per-run values,
medians and quartiles (``statistics.quantiles(method="inclusive")``), the
number of pairs the change won (ties count for neither), the parent's
quartile spread and a no-regression verdict against the metric's bound in
BENCHMARK.json, read as a relative change of the median.  The metric named
by ``--claim`` gets a claim verdict: the change wins at least nine tenths
of at least ten pairs and its median beats the parent's by more than the
parent's quartile spread.  The output, CHANGE_DIR/BENCH_<pr>.json, also
records both commits, git tree ids of ``src/`` and ``perfbench/`` computed
from the files on disk (equal to ``git rev-parse <commit>:src`` once
committed), whether the perfbench trees match, nproc,
``wc -l src/erfapprox/*.py`` (the total and each file's count), the
lines of those files that are not blank, comment-only or docstring
(``code_lines``),
``erfapprox.__all__`` and the minor page faults (``ru_minflt``) of one
``run_verify`` of the packaged default config for both sides, the last
two read by a fresh interpreter with ``PYTHONPATH=<checkout>/src``, and
each side's Tier-1 result (``tier1``: passed, failed and seconds from
the last line of ROADMAP.md's Tier-1 command, run in that checkout with
``PYTHONPATH=<checkout>/src``, BLAS pinned to one thread and
``-p no:cacheprovider``; None when the line does not parse).

After each ``--run`` the script compares the two sides' reports of the
last repetition, ``.bench_out/<workload>-seed<seed>/rep1.csv`` and
``rep1.json``, byte for byte.  The file records the answer as that
workload's ``reports_identical``.

The script also runs ``erfapprox check-partition --out-json`` and
``erfapprox verify --config tests/data/golden.yaml --out-json`` once in
each checkout, into ``.bench_out/partition.json`` and
``.bench_out/golden.json``, and records as ``partition_json_diff`` and
``golden_json_diff`` the key paths whose values differ between the two
sides' files, or ``[]`` when they match.  The golden
JSON holds every row at full precision, where ``golden.csv`` rounds to
``.12g``.

After writing the file the script prints each run's
``reports_identical``, both JSON diffs, both sides' ``source_lines`` and
``code_lines``, the files whose line count changed (``bounds.py 664 ->
640``), both sides' ``tier1`` and ``default_minor_faults`` and the public names the
change removes and adds, then each traced count (a metric whose last word is ``calls``,
``points`` or ``keys``, plus ``bounds.verify_cells`` and
``harness.groups``) that differs between the sides, or one line saying
that all of them are equal, so a change's line count and work counts
stand next to its timings.

The script refuses to run when the two perfbench trees differ.
"""

from __future__ import annotations

import argparse
import ast
import glob
import hashlib
import io
import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import tokenize
from typing import Dict, List, Optional, Tuple

RUN_TIMEOUT_S = 600.0
PAIRS = 10                  # the fewest pairs a claim of a gain is judged on
COUNTS = ("bounds.verify_cells", "harness.groups")     # counts with no count word
REPORTS = ("rep1.csv", "rep1.json")     # what perfbench/run.py writes for repetition 1
_ABSENT = object()


def git(checkout: str, *args: str) -> Optional[str]:
    """Output of a git command in checkout, or None when it fails."""
    try:
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode() if proc.returncode == 0 else None


def tree_id(checkout: str, path: str) -> Optional[str]:
    """git's tree id of path as it is on disk: tracked and untracked files
    that .gitignore does not exclude, hashed without writing any object."""
    listing = git(checkout, "ls-files", "-z", "--cached", "--others", "--exclude-standard",
                  "--", path)
    if listing is None:
        return None
    root: Dict[str, object] = {}
    for name in listing.split("\0"):
        full = os.path.join(checkout, name)
        if not name or not os.path.isfile(full):
            continue                        # deleted in the working tree
        node = root
        *dirs, leaf = name.split("/")
        for d in dirs:
            node = node.setdefault(d, {})
        with open(full, "rb") as fh:
            data = fh.read()
        mode = "100755" if os.access(full, os.X_OK) else "100644"
        node[leaf] = (mode, hashlib.sha1(b"blob %d\0" % len(data) + data).digest())

    def digest(node: Dict[str, object]) -> bytes:
        entries = []
        for name, item in node.items():
            if isinstance(item, dict):
                entries.append((name + "/", b"40000 %s\0" % name.encode() + digest(item)))
            else:
                mode, sha = item
                entries.append((name, b"%s %s\0" % (mode.encode(), name.encode()) + sha))
        body = b"".join(e for _, e in sorted(entries))
        return hashlib.sha1(b"tree %d\0" % len(body) + body).digest()

    node = root
    for part in path.strip("/").split("/"):
        if part not in node:
            return None
        node = node[part]
    return digest(node).hex()


#: counts the minor page faults of one run_verify of the packaged default config
FAULTS_PROGRAM = """\
import resource
from importlib import resources
from erfapprox.harness import ExperimentConfig, run_verify
cfg = ExperimentConfig.from_file(str(resources.files("erfapprox").joinpath("default.yaml")))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_verify(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def fresh_env(checkout: str) -> Dict[str, str]:
    """The environment of a fresh interpreter on checkout's own source,
    with BLAS and OpenMP pinned to one thread as in perfbench's repetitions."""
    return {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"), "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fresh_python(checkout: str, program: str) -> Optional[str]:
    """The output of program in a fresh interpreter on checkout's own
    source (``fresh_env``); None when it fails."""
    proc = subprocess.run([sys.executable, "-c", program], cwd=checkout,
                          env=fresh_env(checkout), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.stdout if proc.returncode == 0 else None


def public_names(checkout: str) -> Optional[List[str]]:
    """checkout's own ``erfapprox.__all__``, sorted; None when the package
    does not import."""
    out = fresh_python(checkout, "import erfapprox, json; print(json.dumps(erfapprox.__all__))")
    return sorted(json.loads(out)) if out is not None else None


def minor_faults(checkout: str) -> Optional[int]:
    """The minor page faults of one run_verify of checkout's packaged
    default config (FAULTS_PROGRAM); None when it fails."""
    out = fresh_python(checkout, FAULTS_PROGRAM)
    return int(out) if out is not None else None


#: ROADMAP.md's Tier-1 command after ``python``, without pytest's cache
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
#: pytest's last line: its counts ("2 failed, 793 passed, 1 warning") and
#: wall time, which a run over a minute follows with "(0:01:13)"
TIER1_LINE = re.compile(r"(\d+ \w+(?:, \d+ \w+)*) in (\d+(?:\.\d+)?)s(?: \(.*\))?")


def parse_tier1(line: str) -> Optional[dict]:
    """{passed, failed, seconds} from pytest's last line, errors counted
    as failed; None when the line does not parse."""
    match = TIER1_LINE.fullmatch(line.strip())
    if match is None:
        return None
    counts = {word: int(number) for number, word in
              (item.split() for item in match.group(1).split(", "))}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
            "seconds": float(match.group(2))}


def tier1(checkout: str) -> Optional[dict]:
    """``parse_tier1`` of the last output line of the Tier-1 suite run in
    checkout on its own source (``fresh_env``)."""
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=fresh_env(checkout),
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return parse_tier1(lines[-1]) if lines else None


#: the tokens that make no line a code line
NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER)


def code_lines(source: bytes) -> int:
    """The lines of a Python source that are not blank, comment-only or
    docstring: a line counts when a token other than a docstring's string
    starts on it or spans it."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def describe(checkout: str) -> dict:
    head = git(checkout, "rev-parse", "HEAD")
    status = git(checkout, "status", "--porcelain", "--", "src", "perfbench")
    file_lines, code = {}, 0
    for path in sorted(glob.glob(os.path.join(checkout, "src", "erfapprox", "*.py"))):
        with open(path, "rb") as fh:
            source = fh.read()
        file_lines[os.path.basename(path)] = source.count(b"\n")
        code += code_lines(source)
    return {
        "head": head.strip() if head else None,
        "src_or_perfbench_uncommitted": bool(status.strip()) if status is not None else None,
        "src_tree": tree_id(checkout, "src"),
        "perfbench_tree": tree_id(checkout, "perfbench"),
        "source_lines": sum(file_lines.values()),
        "code_lines": code,
        "default_minor_faults": minor_faults(checkout),
        "tier1": tier1(checkout),
        "file_lines": file_lines,
        "public_names": public_names(checkout),
    }


def bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> dict:
    """Both sides' statistics and the no-regression verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out = {
        "better": better,
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
        "change_wins": wins,
        "pairs": len(parent),
        "median_ratio": cm / pm if pm else None,
        "parent_quartile_spread": p3 - p1,
    }
    if bound is not None:
        worse_by = sign * (cm - pm) / pm if pm else 0.0
        beats_every_run = max(sign * c for c in change) < min(sign * p for p in parent)
        if worse_by > bound:
            verdict = "regressed"
        elif pm and (p3 - p1) / pm > bound and not beats_every_run:
            verdict = "unresolved"      # the parent's own spread exceeds the bound
        else:
            verdict = "within bound"
        out.update(bound=bound, worse_by=worse_by, no_regression=verdict)
    return out


def claim_verdict(stats: dict) -> dict:
    sign = 1.0 if stats["better"] == "lower" else -1.0
    gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
    failing = [reason for reason, ok in (
        (f"fewer than {PAIRS} pairs", stats["pairs"] >= PAIRS),
        ("fewer than nine tenths of the pairs won",
         10 * stats["change_wins"] >= 9 * stats["pairs"]),
        ("median gain within the parent's quartile spread",
         gain > stats["parent_quartile_spread"]),
    ) if not ok]
    out = {
        "wins": f"{stats['change_wins']}/{stats['pairs']}",
        "median_gain": gain,
        "parent_quartile_spread": stats["parent_quartile_spread"],
        "met": not failing,
    }
    if failing:
        out["not_met_because"] = failing
    return out


def reports_identical(parent: str, change: str, workload: str, seed: int) -> bool:
    """Whether the two checkouts hold byte-identical REPORTS for workload:seed
    under .bench_out; False when either side lacks one."""
    for name in REPORTS:
        sides = []
        for checkout in (parent, change):
            path = os.path.join(checkout, ".bench_out", f"{workload}-seed{seed}", name)
            try:
                with open(path, "rb") as fh:
                    sides.append(fh.read())
            except OSError:
                return False
        if sides[0] != sides[1]:
            return False
    return True


#: each compared JSON report: its name and the erfapprox command that writes it
JSON_REPORTS = {
    "partition": ("check-partition",),
    "golden": ("verify", "--config", os.path.join("tests", "data", "golden.yaml")),
}


def report_json(checkout: str, name: str) -> dict:
    """The JSON report JSON_REPORTS[name] of checkout's own source, written
    to .bench_out/<name>.json; the command's exit code is not read (a
    violated bound exits 1), but it must write the file."""
    path = os.path.join(checkout, ".bench_out", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        os.remove(path)
    subprocess.run([sys.executable, "-m", "erfapprox.cli", *JSON_REPORTS[name], "--out-json", path],
                   cwd=checkout, env={**os.environ, "PYTHONPATH": os.path.join(checkout, "src")},
                   capture_output=True, timeout=RUN_TIMEOUT_S)
    with open(path) as fh:
        return json.load(fh)


def json_diff(parent, change, path: str = "") -> List[str]:
    """The dotted key paths whose values differ between two JSON documents,
    a key that only one side has among them; [] when they match.  Lists
    are compared item by item, each named by its index, and an item only
    one side has is a difference."""
    def child(key) -> str:
        return f"{path}.{key}" if path else str(key)

    if isinstance(parent, dict) and isinstance(change, dict):
        return [diff for key in sorted(parent.keys() | change.keys())
                for diff in json_diff(parent.get(key, _ABSENT), change.get(key, _ABSENT),
                                      child(key))]
    if isinstance(parent, list) and isinstance(change, list):
        pairs = itertools.zip_longest(parent, change, fillvalue=_ABSENT)
        return [diff for i, (p, c) in enumerate(pairs) for diff in json_diff(p, c, child(i))]
    return [] if parent == change else [path]


def is_count(name: str) -> bool:
    return name in COUNTS or name.replace(".", "_").rsplit("_", 1)[-1] in (
        "calls", "points", "keys")


def count_differences(traced: Dict[str, dict]) -> List[str]:
    """One line per traced count that differs between the parent and the
    change, or one line saying that all of them are equal."""
    lines, compared = [], 0
    for run, entry in traced.items():
        for name, sides in entry["metrics"].items():
            if is_count(name):
                compared += 1
                if sides["parent"] != sides["change"]:
                    lines.append(f"{run} {name}: parent {sides['parent']} -> "
                                 f"change {sides['change']}")
    return lines or [f"all {compared} traced counts are equal on {', '.join(traced)}"]


def name_changes(parent: Optional[List[str]], change: Optional[List[str]]) -> str:
    """The public names the change removes and adds, as one line."""
    if parent is None or change is None:
        return "public_names: unknown, erfapprox does not import on one side"
    return (f"public_names: removed {sorted(set(parent) - set(change))}, "
            f"added {sorted(set(change) - set(parent))}")


def file_line_changes(parent: Dict[str, int], change: Dict[str, int]) -> List[str]:
    """One line per source file whose line count differs between the
    sides; a file one side lacks counts 0 lines there."""
    return [f"{name} {parent.get(name, 0)} -> {change.get(name, 0)}"
            for name in sorted(set(parent) | set(change))
            if parent.get(name, 0) != change.get(name, 0)]


def tier1_text(result: Optional[dict]) -> str:
    if result is None:
        return "unknown"
    return f"{result['passed']} passed, {result['failed']} failed in {result['seconds']:g}s"


def summary(doc: dict) -> List[str]:
    """The lines printed once the file is written: each run's
    reports_identical, the JSON report diffs, both sides' source_lines and
    code_lines, the files whose line count changed, both sides' tier1
    and default_minor_faults (None when a side could not count them) and
    the public names removed and added (each but source_lines when both
    sides record it) and, with traced runs, count_differences."""
    lines = [f"{run} reports_identical: {entry['reports_identical']}"
             for run, entry in doc["workloads"].items()]
    lines += [f"{name}_json_diff: {doc[f'{name}_json_diff']}" for name in JSON_REPORTS]
    parent, change = doc["commits"]["parent"], doc["commits"]["change"]
    lines.append(f"source_lines: parent {parent['source_lines']} -> "
                 f"change {change['source_lines']}")
    if "code_lines" in parent and "code_lines" in change:
        lines.append(f"code_lines: parent {parent['code_lines']} -> "
                     f"change {change['code_lines']}")
    if "file_lines" in parent and "file_lines" in change:
        lines += file_line_changes(parent["file_lines"], change["file_lines"])
    if "tier1" in parent and "tier1" in change:
        lines.append(f"tier1: parent {tier1_text(parent['tier1'])} -> "
                     f"change {tier1_text(change['tier1'])}")
    if "default_minor_faults" in parent and "default_minor_faults" in change:
        lines.append(f"default_minor_faults: parent {parent['default_minor_faults']} -> "
                     f"change {change['default_minor_faults']}")
    if "public_names" in parent and "public_names" in change:
        lines.append(name_changes(parent["public_names"], change["public_names"]))
    if "traced" in doc:
        lines += count_differences(doc["traced"])
    return lines


def spec(text: str, fields: int) -> Tuple[str, ...]:
    parts = tuple(text.split(":"))
    if len(parts) != fields:
        raise argparse.ArgumentTypeError(f"expected {fields} ':'-separated fields: {text!r}")
    return parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--run", action="append", default=[], metavar="WORKLOAD:SEED",
                        type=lambda t: spec(t, 2))
    parser.add_argument("--claim", metavar="WORKLOAD:SEED:METRIC", type=lambda t: spec(t, 3))
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD:SEED",
                        type=lambda t: spec(t, 2))
    args = parser.parse_args(argv)
    if args.claim and tuple(args.claim[:2]) not in {tuple(r) for r in args.run}:
        parser.error("--claim must name one of the --run workloads")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    seconds = float(declared["run_seconds"])
    metrics = {m["name"]: m for m in declared["end_to_end"]}

    sides = {"parent": describe(args.parent), "change": describe(args.change)}
    same_bench = sides["parent"]["perfbench_tree"] == sides["change"]["perfbench_tree"]
    if not same_bench or sides["parent"]["perfbench_tree"] is None:
        print("bench_pairs: the two perfbench/ trees differ or are unknown", file=sys.stderr)
        return 2
    checkouts = {"parent": args.parent, "change": args.change}

    doc = {
        "method": (f"{PAIRS} alternating pairs per workload of `python3 perfbench/run.py "
                   f"--workload W --seed S --trace 0 --seconds {seconds:g}`, the parent first "
                   "in odd pairs; quartiles are statistics.quantiles(method='inclusive') over "
                   "the per-run values; a win is a pair the change reads better, ties count "
                   "for neither; no_regression compares the median change with the "
                   "BENCHMARK.json bound, read as relative"),
        "commits": sides,
        "perfbench_trees_match": same_bench,
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload, seed in args.run:
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = bench(checkouts[side], workload, int(seed), seconds, 0)
                runs[side].append(out)
                print(f"{workload}:{seed} pair {i + 1} {side}: verify_s "
                      f"{out['metrics']['verify_s']['value']:.4f}", file=sys.stderr)
        entry = {
            "seed": int(seed),
            "reports_identical": reports_identical(args.parent, args.change, workload, int(seed)),
            "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "metrics": {},
        }
        for name, meta in metrics.items():
            values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
            entry["metrics"][name] = compare(values["parent"], values["change"],
                                             meta["better"], meta.get("bound"))
        doc["workloads"][f"{workload}:{seed}"] = entry
        if args.claim and (workload, seed) == tuple(args.claim[:2]):
            doc["claim"] = {"workload": f"{workload}:{seed}", "metric": args.claim[2],
                            **claim_verdict(entry["metrics"][args.claim[2]])}

    for name in JSON_REPORTS:
        doc[f"{name}_json_diff"] = json_diff(report_json(args.parent, name),
                                             report_json(args.change, name))
    if args.trace:
        doc["traced"] = {}
    for workload, seed in args.trace:
        traced = {s: bench(checkouts[s], workload, int(seed), seconds, 1) for s in checkouts}
        doc["traced"][f"{workload}:{seed}"] = {
            "correct": {s: traced[s]["correct"] for s in traced},
            "metrics": {name: {s: traced[s]["metrics"][name]["value"] for s in traced}
                        for name in traced["change"]["metrics"]},
        }

    path = os.path.join(args.change, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    print("\n".join(summary(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
