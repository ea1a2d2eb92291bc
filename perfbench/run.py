"""Benchmark of ``erfapprox verify``: end-to-end timings and traced layers.

    python3 perfbench/run.py --workload default --seed 0 --seconds 45 --trace 0

``--workload all`` runs every workload in turn and exits with the worst
code; each workload then prints its own block and JSON line.

Run from the repository root; the package runs from ``src/``.  Every
repetition starts a fresh interpreter, because a command-line user pays
the imports, the corpus build and the cold caches on every run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter
start to a validated config; the median over every repetition's own and
SETUP_STARTS extra fresh starts before each), and the medians over
repetitions of ``verify_s`` (``run_verify`` plus the CSV and JSON
writes), its CPU time and the peak resident memory.  Repetitions continue
while the next one is expected to end within ``--seconds`` (at most
MAX_SECONDS), and there are always at least MIN_REPS of them, however
long they take.  Every workload runs serially.

``--trace 1`` alternates untraced and traced repetitions, at least
MIN_TRACED_PAIRS pairs, and reports the per-layer metrics of the median
traced one, plus ``trace.overhead_s``: the median traced minus the median
untraced ``verify_s``.  The tail percentile of group times goes into the
run record printed before the metrics.

Every repetition's report is checked against the stored verdict table
(see verdicts.py), or, for an expr-dense seed without one, against the
rows its config implies and errors recomputed by oracle.py.  The last
output line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when any row mismatches, and 2
when the run could not be made at all.

``--write-reference`` runs one repetition and stores its verdict table.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_STARTS = 5
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: largest --seconds accepted, which keeps a whole run under three minutes
MAX_SECONDS = 120.0
CHILD_TIMEOUT_S = 150.0


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(args) -> dict:
    """Start a fresh interpreter on child.py; its JSON line plus setup_s."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"repetition exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RunFailed(f"repetition exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("setup_end") - start
    return out


class Bench:
    """One workload at one seed: its config, output directory and budget."""

    def __init__(self, workload: workloads.Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        self.config, self.digest = workloads.write_config(workload, seed, self.out_dir)
        self.reps = 0
        self.notes = {}
        self.start = time.monotonic()

    def setup_only(self) -> float:
        return run_child(["--config", self.config, "--setup-only"])["setup_s"]

    def rep(self, traced: bool = False) -> dict:
        self.reps += 1
        stem = os.path.join(self.out_dir, f"rep{self.reps}")
        args = ["--config", self.config, "--csv", stem + ".csv", "--json", stem + ".json"]
        if traced:
            args += ["--spans", stem + "-spans.jsonl"]
        out = run_child(args)
        with open(stem + ".json") as fh:
            out["report"] = json.load(fh)
        return out

    def more(self, done: int, minimum: int, last_s: float) -> bool:
        """Whether to start another repetition of about last_s seconds."""
        return done < minimum or time.monotonic() - self.start + last_s <= self.seconds

    def check(self, reports: list) -> list:
        """Mismatch lines of the worst report.  Against the stored table
        when there is one; for an expr-dense seed without a table, against
        the rows its config implies plus the oracle's recomputed errors."""
        wl = self.workload
        seed = self.seed if wl.generated else None
        path = verdicts.reference_path(REFERENCE_DIR, wl.name, seed)
        if os.path.exists(path):
            reference = verdicts.read_reference(path)
            return max((verdicts.mismatches(r["rows"], reference) for r in reports), key=len)
        if not wl.generated:
            raise RunFailed(f"no reference table {path}")
        return self.derived_check(reports)

    def derived_check(self, reports: list) -> list:
        """The rows an expr-dense config implies, each holding, with the
        errors of the first report confirmed by the oracle."""
        config = workloads.expr_dense_config(self.seed)
        expected = workloads.expected_dense_keys(config)
        worst = max((verdicts.invariant_mismatches(r["rows"], expected) for r in reports),
                    key=len)
        return worst + oracle.mismatches(reports[0]["rows"],
                                         workloads.expr_dense_functions(self.seed),
                                         config["grid"]["x_points"])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "erfapprox", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def timed_run(bench: Bench):
    """Untraced repetitions, each after SETUP_STARTS setup-only starts, so
    the setup samples span the whole run; returns (metrics, repetitions)."""
    setups, reps = [], []
    while not reps or bench.more(len(reps), MIN_REPS,
                                 reps[-1]["verify_s"] + (SETUP_STARTS + 1) * setups[-1]):
        setups += [bench.setup_only() for _ in range(SETUP_STARTS)]
        reps.append(bench.rep())
    setups += [r["setup_s"] for r in reps]
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("verify_s", "verify_cpu_s", "peak_rss_mb"):
        metrics[name] = statistics.median(r[name] for r in reps)
    return metrics, reps


#: per-layer counts that must repeat exactly between traced repetitions
EXACT_COUNTS = ("special_functions.erf_points", "special_functions.chi_points",
                "operators.A_calls", "operators.B_calls", "operators.C_calls",
                "operators.D_calls", "operators.kernel_keys", "fractional.caputo_points",
                "expr.evaluate_points", "bounds.verify_cells")


def traced_run(bench: Bench):
    """Untraced/traced pairs; per-layer metrics of the median traced one."""
    plain, traced = [], []
    while not traced or bench.more(len(traced), MIN_TRACED_PAIRS,
                                   plain[-1]["verify_s"] + traced[-1]["verify_s"]):
        plain.append(bench.rep())
        traced.append(bench.rep(traced=True))
    for name in EXACT_COUNTS:
        values = {t["layers"][name] for t in traced}
        if len(values) > 1:
            raise RunFailed(f"count {name} differs between traced runs: {values}")
    traced_s = [t["verify_s"] for t in traced]
    chosen = sorted(traced, key=lambda t: t["verify_s"])[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    bench.notes["group_tail_pct"] = metrics.pop("harness.group_tail_pct")
    if metrics["trace.layer_self_s"] > chosen["verify_s"]:
        raise RunFailed("layer self times exceed the traced verify_s")
    metrics["harness.report_write_s"] = chosen["report_write_s"]
    metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                   - statistics.median(t["verify_s"] for t in plain))
    return metrics, plain + traced


def write_reference(bench: Bench):
    """Store one repetition's rows as the reference, if they check out."""
    report = bench.rep()["report"]
    generated = bench.workload.generated
    if verdicts.failure_counts(report)[0] or (generated and bench.derived_check([report])):
        raise RunFailed("refusing to store a table that does not check out")
    path = verdicts.reference_path(REFERENCE_DIR, bench.workload.name,
                                   bench.seed if generated else None)
    verdicts.write_reference(report["rows"], path)
    print(f"wrote {len(report['rows'])} rows to {os.path.relpath(path, ROOT)}")


def run_workload(name: str, args) -> int:
    bench = Bench(workloads.WORKLOADS[name], args.seed, args.seconds)
    try:
        if args.write_reference:
            write_reference(bench)
            return 0
        metrics, reps = (traced_run if args.trace else timed_run)(bench)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        unit = {m["name"]: m["unit"] for m in declared}
        if set(unit) != set(metrics):
            raise RunFailed("metrics differ from those BENCHMARK.json declares")
        problems = bench.check([r["report"] for r in reps])
    except RunFailed as exc:
        print(f"benchmark: {name}: {exc}", file=sys.stderr)
        return 2

    failed, attempted = verdicts.failure_counts(reps[-1]["report"])
    record = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "config_sha256": bench.digest, "nproc": nproc(),
        "repetitions": len(reps), "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": reps[0]["numpy"],
        "scipy": reps[0]["scipy"], "source_lines": source_lines(), **bench.notes,
    }
    print("run: " + json.dumps(record, sort_keys=True))
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {unit[metric]}")
    print(f"failed_share = {failed / attempted:.6g} share ({failed} of {attempted})")
    print(f"verdict_mismatches = {len(problems)} count")
    for line in problems[:20]:
        print(f"  mismatch {line}", file=sys.stderr)
    with open(os.path.join(bench.out_dir, "result.json"), "w") as fh:
        samples = [{k: r[k] for k in ("setup_s", "verify_s", "verify_cpu_s", "peak_rss_mb")}
                   for r in reps]
        json.dump({**record, "metrics": metrics, "samples": samples, "mismatches": problems},
                  fh, indent=2)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run once and store this workload's verdict table")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "erfapprox", "__init__.py")):
        print(f"benchmark: no erfapprox sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max([run_workload(name, args) for name in names])


if __name__ == "__main__":
    sys.exit(main())
