"""Command line entry point.

Subcommands:
    check-partition   partition-of-unity and tail invariants
    verify            full bound-verification sweep from a config file
    rates             verification sweep, reported as fitted decay rates
    fractional        fractional-derivative bound rows only

Exit codes: 0 all checked rows hold (estimated-modulus near-misses count
as inconclusive, not failures), 1 at least one row violated a bound,
2 the configuration was rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from importlib import resources
from typing import List, Optional

from .bounds import THEOREMS
from .errors import ConfigError
from .harness import (
    ExperimentConfig,
    RunResult,
    run_partition_check,
    run_verify,
    write_csv,
    write_json,
)


def _default_config_path() -> str:
    return str(resources.files("erfapprox").joinpath("default.yaml"))


def _check_writable(key: str, path: Optional[str]):
    """A ConfigError naming key when the report path cannot be written, so
    it is rejected before any group runs rather than after the sweep."""
    if not path:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ConfigError(key, f"{path} is a directory")
    if not os.path.isdir(folder):
        raise ConfigError(key, f"cannot write {path}: no directory {folder}")
    if not os.access(folder, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ConfigError(key, f"cannot write {path}: permission denied")


def _load_config(args) -> ExperimentConfig:
    path = args.config or _default_config_path()
    cfg = ExperimentConfig.from_file(path)
    _check_writable("--out-csv" if args.out_csv else "output.csv", args.out_csv or cfg.csv_path)
    _check_writable("--out-json" if args.out_json else "output.json",
                    args.out_json or cfg.json_path)
    updates = {}
    if args.out_csv:
        updates["csv_path"] = args.out_csv
    if args.out_json:
        updates["json_path"] = args.out_json
    return dataclasses.replace(cfg, **updates)


def _restrict(cfg: ExperimentConfig, theorems) -> ExperimentConfig:
    kept = tuple(t for t in cfg.theorems if t in theorems)
    if not kept:
        raise ConfigError("theorems", f"names none of {', '.join(theorems)}: nothing to check")
    return dataclasses.replace(cfg, theorems=kept)


def _emit(result: RunResult, cfg: ExperimentConfig) -> int:
    if cfg.csv_path:
        write_csv(result, cfg.csv_path)
    if cfg.json_path:
        write_json(result, cfg.json_path)
    print(
        f"rows={len(result.rows)} holds={result.held} "
        f"violated={result.violated} inconclusive={result.inconclusive} "
        f"skipped={len(result.skipped)}"
    )
    shown = 0
    seen = set()
    for s in result.skipped:
        key = (s.get("theorem"), s.get("function"), s["reason"])
        if key in seen:
            continue
        seen.add(key)
        if shown < 15:
            where = ":".join(str(s[k]) for k in ("theorem", "function") if k in s)
            print(f"  skipped {where}: {s['reason']}")
        shown += 1
    if shown > 15:
        print(f"  ... {shown - 15} more distinct skip reasons (full list in the JSON report)")
    return 1 if result.violated else 0


def _print_rates(result: RunResult):
    """One line per group and family with rows, in config order, naming the
    group's variant (N=2, alpha_frac=1.5) when it has one."""
    for group, rows in result.groups:
        rates = {row["family"]: (row["slope"], row["r2"]) for row in rows}
        variant = "".join(f" {k}={v}" for k, v in group.kw.items())
        for family, (slope, r2) in rates.items():
            s = "n/a" if slope is None else f"{slope:+.3f}"
            r = "n/a" if r2 is None else f"{r2:.4f}"
            print(f"{group.theorem} {group.function} {family} exponent={group.exponent}"
                  f"{variant}: slope={s} r2={r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erfapprox",
        description="verify error bounds for error-function network operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # check-partition reads no config and writes no table: any other flag
    # would be parsed and ignored, so it is an argparse error instead
    p = sub.add_parser("check-partition", help="partition-of-unity and tail invariants")
    p.add_argument("--out-json", help="write the JSON summary here")
    for name, help_text in (
        ("verify", "full bound-verification sweep"),
        ("rates", "sweep reported as fitted decay rates"),
        ("fractional", "fractional-derivative rows only"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config (YAML)")
        p.add_argument("--out-csv", help="write the report table here")
        p.add_argument("--out-json", help="write the JSON summary here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check-partition":
            _check_writable("--out-json", args.out_json)
            summary = run_partition_check()
            text = json.dumps(summary, indent=2, sort_keys=True)
            print(text)
            if args.out_json:
                with open(args.out_json, "w") as fh:
                    fh.write(text + "\n")
            ok = (summary["partition_ok"] and summary["tail_strictly_below_bound"]
                  and summary["boundary_ok"]
                  and summary["chi_integral_deviation"] <= 1e-12)
            return 0 if ok else 1

        cfg = _load_config(args)
        if args.command == "fractional":
            cfg = _restrict(cfg, [t for t, th in THEOREMS.items()
                                  if th.bound == "fractional_bound"])
        result = run_verify(cfg)

        if args.command == "rates":
            _print_rates(result)
        return _emit(result, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
