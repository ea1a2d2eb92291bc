"""Experiment orchestration: config ingestion, verification runs, and
report serialization.

A run fans out over (theorem, function, rate exponent) groups, sweeps n
inside each group, appends fitted log-log rates per group, and writes a
deterministic CSV (fixed column order, fixed float formatting) plus an
optional JSON summary.  Hypothesis-violating combinations are skipped
with a recorded reason, never crashed on.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import yaml

from . import bounds, corpus, partition
from .bounds import GridPolicy, fit_rate, verify
from .errors import ConfigError, DegenerateFit, ErfApproxError

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "theorem", "function", "family", "n", "exponent", "point_mode",
    "empirical_error", "bound", "slack", "modulus_quality", "verdict",
    "slope", "r2",
)

# the keys a config may name, at the top level, inside grid and output, and
# in a builtin or an expr function entry; GridPolicy.pointwise_points is not
# one: a config run uses each theorem's default mode, and no default mode
# reads it
CONFIG_KEYS = ("schema_version", "functions", "theorems", "sweep", "rate_exponents",
               "fractional_orders", "highorder_orders", "grid", "output")
GRID_KEYS = ("x_points", "refinement", "anchors", "table_points")
OUTPUT_KEYS = ("csv", "json")
BUILTIN_KEYS = ("id", "builtin")
EXPR_KEYS = ("id", "expr", "domain", "orders", "exact_modulus", "sup_norm", "grid_window")


@dataclass(frozen=True)
class ExperimentConfig:
    functions: Tuple[dict, ...]
    theorems: Tuple[str, ...]
    sweep: Tuple[int, ...]
    rate_exponents: Tuple[float, ...]
    fractional_orders: Tuple[float, ...] = (0.5, 1.5)
    highorder_orders: Tuple[int, ...] = (1,)
    grid: GridPolicy = field(default_factory=GridPolicy)
    csv_path: Optional[str] = None
    json_path: Optional[str] = None
    jobs: int = 1

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError("path", str(exc))
        except yaml.YAMLError as exc:
            raise ConfigError("yaml", str(exc))
        return ExperimentConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("document", "top level must be a mapping")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
        _known_keys("", raw, CONFIG_KEYS)

        def _list(name, kind, required=False):
            if name not in raw:
                raise ConfigError(name, "missing")
            val = raw[name]
            if not isinstance(val, (list, tuple)) or not val and required:
                raise ConfigError(name, "must be a non-empty list")
            return tuple(_typed(name, v, kind) for v in val)

        theorems = _list("theorems", str) if "theorems" in raw else tuple(bounds.THEOREMS)
        for t in theorems:
            if t not in bounds.THEOREMS:
                raise ConfigError("theorems", f"unknown theorem id {t!r}")
        sweep = _list("sweep", int, required=True)
        if any(n < 1 for n in sweep):
            raise ConfigError("sweep", "all n must be >= 1")
        exponents = _list("rate_exponents", float, required=True)
        if any(not 0.0 < e < 1.0 for e in exponents):
            raise ConfigError("rate_exponents", "exponents must lie in (0, 1)")
        # an absent order list keeps the dataclass default
        orders = {name: _list(name, kind) for name, kind in
                  (("fractional_orders", float), ("highorder_orders", int)) if name in raw}

        functions = raw.get("functions")
        if functions is None:
            functions = [{"id": name, "builtin": name}
                         for name in ("linear", "sin", "cos", "abs", "exp", "sq",
                                      "circle", "ramp_pair")]
        seen = set()
        for i, spec in enumerate(functions):
            if not isinstance(spec, dict) or "id" not in spec:
                raise ConfigError(f"functions[{i}]", "each entry needs an id")
            if spec["id"] in seen:
                raise ConfigError(f"functions[{i}].id", f"duplicate id {spec['id']!r}")
            seen.add(spec["id"])
            if "builtin" not in spec and "expr" not in spec:
                raise ConfigError(f"functions[{i}]", "needs 'builtin' or 'expr'")
            # expr decides the kind, so an entry with both fails on its 'builtin'
            _known_keys(f"functions[{i}].", spec, EXPR_KEYS if "expr" in spec else BUILTIN_KEYS)
            if "expr" in spec:
                _check_expr_entry(f"functions[{i}].", spec)

        grid_raw = raw.get("grid", {})
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid", "must be a mapping")
        _known_keys("grid.", grid_raw, GRID_KEYS)
        # an absent key keeps the GridPolicy default
        grid = GridPolicy(**{
            key: _typed(f"grid.{key}", val, bool if key == "refinement" else int)
            for key, val in grid_raw.items()
        })
        for key, least in (("x_points", 2), ("anchors", 1), ("table_points", 2)):
            if getattr(grid, key) < least:
                raise ConfigError(f"grid.{key}", f"must be >= {least}")

        output = raw.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("output", "must be a mapping")
        _known_keys("output.", output, OUTPUT_KEYS)
        paths = {key: _typed(f"output.{key}", val, str) for key, val in output.items()}

        return ExperimentConfig(
            functions=tuple(dict(s) for s in functions),
            theorems=theorems,
            sweep=sweep,
            rate_exponents=exponents,
            grid=grid,
            csv_path=paths.get("csv"),
            json_path=paths.get("json"),
            **orders,
        )


#: each kind of config value: its name in errors and the types it accepts;
#: a YAML bool is a Python int, so only the bool kind accepts one
_KINDS = {int: ("an integer", int), float: ("a number", (int, float)),
          bool: ("a boolean", bool), str: ("a string", str)}


def _typed(field: str, value, kind: type):
    """value (a number as a float), or a ConfigError naming field if value
    is not of kind."""
    name, types = _KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(field, f"must be {name}, got {value!r}")
    return float(value) if kind is float else value


def _check_expr_entry(prefix: str, spec: dict):
    """Reject an expr function entry whose values have the wrong type or
    range; the entry itself is kept as written."""
    _typed(prefix + "expr", spec["expr"], str)
    for key in ("domain", "grid_window"):
        if key in spec:
            window = spec[key]
            if not isinstance(window, (list, tuple)) or len(window) != 2:
                raise ConfigError(prefix + key, f"must be [lo, hi], got {window!r}")
            lo, hi = (_typed(prefix + key, v, float) for v in window)
            if not lo < hi:
                raise ConfigError(prefix + key, f"needs lo < hi, got {window!r}")
    if "orders" in spec and _typed(prefix + "orders", spec["orders"], int) < 0:
        raise ConfigError(prefix + "orders", "must be >= 0")
    if "sup_norm" in spec:
        _typed(prefix + "sup_norm", spec["sup_norm"], float)
    if "exact_modulus" in spec:
        name = _typed(prefix + "exact_modulus", spec["exact_modulus"], str)
        if name not in corpus.EXACT_MODULI:
            raise ConfigError(prefix + "exact_modulus",
                              f"unknown modulus shape {name!r}; expected one of "
                              f"{', '.join(corpus.EXACT_MODULI)}")


def _known_keys(prefix: str, mapping: dict, known: Tuple[str, ...]):
    """Reject the first key of mapping that the config schema does not know,
    so a misspelt knob fails instead of running the default."""
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", f"unknown key; expected one of {', '.join(known)}")


# ------------------------------------------------------- function resolution


def _resolve(spec: dict, theorem: str):
    """Corpus variant (or expression-built function) suited to a theorem.

    Returns (object, skip_reason); exactly one is None.
    """
    th = bounds.THEOREMS[theorem]
    fid = spec["id"]
    if "expr" in spec:
        domain = tuple(spec["domain"]) if "domain" in spec else None
        if th.complex:
            return None, "expression functions are real-valued"
        if "A" in th.families:
            if domain is None:
                return None, "interval theorem needs a domain"
        elif domain is not None:
            return None, "whole-line theorem, function has a compact domain"
        elif spec.get("sup_norm") is None:
            return None, "whole-line theorem needs a declared sup_norm"
        orders = spec.get("orders", 2 if th.bound == "fractional_bound" else 0)
        try:
            f = corpus.function_from_expression(
                fid, spec["expr"], domain=domain, orders=orders,
                exact_modulus=spec.get("exact_modulus"),
                sup_norm=spec.get("sup_norm"),
                grid_window=tuple(spec["grid_window"]) if "grid_window" in spec else None,
            )
        except ErfApproxError as exc:
            return None, f"expression rejected: {exc}"
        return f, None

    name = spec["builtin"]
    pool = getattr(corpus, th.pool)
    if name not in pool:
        return None, f"no {theorem}-compatible variant of builtin {name!r}"
    return pool[name], None


def _derivatives(f) -> int:
    return min(len(p.derivatives) for p in f.parts)


def _variants(cfg: ExperimentConfig, theorem: str, f) -> Tuple[List[dict], Optional[str]]:
    """Parameter variants of a theorem for f, or a reason to skip the pair.

    Config values outside the theorem's admissible range are dropped.  Of
    the values f lacks derivatives for, only the lowest is kept: the
    precheck skips its cells with the reason, and higher ones fail alike.
    """
    th = bounds.THEOREMS[theorem]
    if th.param is None:
        return [{}], None
    values = cfg.highorder_orders if th.param == "N" else cfg.fractional_orders
    lo, hi = th.orders
    kws = [{th.param: v} for v in values if lo < v < hi]
    if not kws:
        return [], f"no {th.param} in {list(values)} lies in ({lo:g}, {hi:g})"
    have = _derivatives(f)
    fits = [kw for kw in kws if th.derivative_order(kw) <= have]
    short = [kw for kw in kws if th.derivative_order(kw) > have]
    return fits + short[:1], None


def _precheck(theorem: str, f, n: int, exponent: float, kw: dict) -> Optional[str]:
    """Reason to skip this (theorem, function, n) cell, or None."""
    t = float(n) ** (1.0 - exponent)
    if t < partition.TAIL_T_MIN:
        return (f"hypothesis n^(1-exponent) >= {partition.TAIL_T_MIN:g} fails: "
                f"{n}^{1.0 - exponent:.2f} = {t:.3f}")
    need, have = bounds.THEOREMS[theorem].derivative_order(kw), _derivatives(f)
    if have < need:
        return f"needs derivatives to order {need}, have {have}"
    return None


# ------------------------------------------------------- run + serialization


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


@dataclass(frozen=True)
class RunResult:
    rows: Tuple[dict, ...]          # CSV_COLUMNS-keyed, ready to serialize
    skipped: Tuple[dict, ...]
    violated: int
    held: int
    inconclusive: int


def run_verify(cfg: ExperimentConfig) -> RunResult:
    """Execute the configured verification sweep; deterministic output."""
    tasks = []
    skipped = []
    for theorem in cfg.theorems:
        for spec in cfg.functions:
            f, reason = _resolve(spec, theorem)
            kws = []
            if f is not None:
                kws, reason = _variants(cfg, theorem, f)
            if reason is not None:
                skipped.append({"theorem": theorem, "function": spec["id"],
                                "reason": reason})
                continue
            for exponent in cfg.rate_exponents:
                for kw in kws:
                    ns = []
                    for n in cfg.sweep:
                        reason = _precheck(theorem, f, n, exponent, kw)
                        if reason is not None:
                            skipped.append({
                                "theorem": theorem, "function": spec["id"],
                                "n": n, "exponent": exponent, "reason": reason,
                            })
                        else:
                            ns.append(n)
                    if ns:
                        tasks.append((theorem, spec["id"], f, tuple(ns), exponent, kw))

    sup_errors = {}     # one run's grid-sup errors, shared by its groups

    def run_group(task):
        theorem, fid, f, ns, exponent, kw = task
        try:
            return verify(theorem, f, ns, exponent, cfg.grid, sup_errors=sup_errors, **kw)
        except ErfApproxError as exc:
            return [{"theorem": theorem, "function": fid, "exponent": exponent,
                     "reason": f"group failed: {exc}"}]

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run_group, tasks))
    else:
        results = [run_group(t) for t in tasks]

    rows = []
    for task, reports in zip(tasks, results):
        if reports and isinstance(reports[0], dict):
            skipped.extend(reports)
            continue
        theorem, fid, _, _, exponent, _ = task
        finite = []
        for r in reports:
            if r.verdict == "non-finite":
                skipped.append({"theorem": theorem, "function": fid, "family": r.family,
                                "n": r.n, "exponent": exponent,
                                "reason": "non-finite empirical error or bound"})
            else:
                finite.append(r)
        reports = finite
        slope = r2 = None
        try:
            slope, r2 = fit_rate([(r.n, r.empirical_error) for r in reports])
        except DegenerateFit:
            pass
        for r in reports:
            rows.append({
                "theorem": r.theorem_id,
                "function": r.function_id,
                "family": r.family,
                "n": r.n,
                "exponent": r.rate_exponent,
                "point_mode": r.point_mode,
                "empirical_error": r.empirical_error,
                "bound": r.bound_value,
                "slack": r.slack,
                "modulus_quality": r.modulus_quality,
                "verdict": r.verdict,
                "slope": slope,
                "r2": r2,
            })

    verdicts = [r["verdict"] for r in rows]
    return RunResult(
        rows=tuple(rows),
        skipped=tuple(skipped),
        violated=verdicts.count("violated"),
        held=verdicts.count("holds"),
        inconclusive=verdicts.count("inconclusive-estimated"),
    )


def write_csv(result: RunResult, path: str):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in result.rows:
            fh.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")


def write_json(result: RunResult, path: str):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "summary": {
            "rows": len(result.rows),
            "holds": result.held,
            "violated": result.violated,
            "inconclusive_estimated": result.inconclusive,
            "skipped": len(result.skipped),
        },
        "rows": [dict(r) for r in result.rows],
        "skipped": [dict(s) for s in result.skipped],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------- partition check


def run_partition_check(
    n_list: Sequence[int] = (1, 2, 7, 50, 311),
    alpha_list: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
    grid_points: int = 10_000,
) -> dict:
    """Partition-of-unity invariant suite; returns max deviations."""
    xs = np.linspace(-8.0, 8.0, grid_points)
    max_dev = 0.0
    for n in n_list:
        sums = partition.partition_sum(xs, n)
        max_dev = max(max_dev, float(np.max(np.abs(sums - 1.0))))

    tail_ok = True
    worst_margin = math.inf
    rng = np.random.default_rng(0)
    for n in n_list:
        for alpha in alpha_list:
            if float(n) ** (1.0 - alpha) < partition.TAIL_T_MIN:
                continue
            for x in rng.uniform(-2.0, 2.0, 20):
                s, bound = partition.tail_comparison(float(x), n, alpha)
                worst_margin = min(worst_margin, bound - s)
                if s >= bound:
                    tail_ok = False

    deficiencies = {
        str(n): {
            "a": partition.boundary_deficiency(n, 0.0, 1.0, "a"),
            "b": partition.boundary_deficiency(n, 0.0, 1.0, "b"),
        }
        for n in (10, 100, 1000, 10_000)
    }
    min_deficiency = min(min(d.values()) for d in deficiencies.values())

    return {
        "max_partition_deviation": max_dev,
        "partition_ok": max_dev <= 1e-12,
        "tail_strictly_below_bound": tail_ok,
        "tail_worst_margin": None if worst_margin is math.inf else worst_margin,
        "chi_integral_deviation": abs(partition.chi_integral(-12.0, 12.0) - 1.0),
        "boundary_deficiency": deficiencies,
        "boundary_deficiency_min": min_deficiency,
        "boundary_ok": min_deficiency >= 0.2488,
    }
