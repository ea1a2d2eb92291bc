"""Experiment orchestration: config ingestion, verification runs, and
report serialization.

A run goes through its (theorem, function, rate exponent) groups one
after another, sweeps n inside each group, appends fitted log-log rates
per group, and writes a deterministic CSV (fixed column order, fixed
float formatting) plus an optional JSON summary.  Hypothesis-violating
combinations are skipped with a recorded reason, never crashed on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import yaml

from . import bounds, corpus, operators, partition
from .bounds import GridPolicy, fit_rate, verify
from .errors import ConfigError, DegenerateFit, ErfApproxError, PreconditionViolated
from .expr import parse
from .special_functions import CHI_AT_ONE

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "theorem", "function", "family", "n", "exponent", "point_mode",
    "empirical_error", "bound", "slack", "modulus_quality", "verdict",
    "slope", "r2",
)

#: every name a builtin entry may take: the members of the theorems' pools
BUILTINS = tuple(sorted({name for th in bounds.THEOREMS.values()
                         for name in getattr(corpus, th.pool)}))


def _least(key: str):
    """The schema entry of a grid count: an int of at least GridPolicy.LEAST[key]."""
    least = GridPolicy.LEAST[key]
    return int, lambda v: v >= least, f"must be >= {least}"


_STR = (str, None, None)
_WINDOW = ([float, float], lambda w: -math.inf < w[0] < w[1] < math.inf,
           "needs finite lo < hi")

#: every config key, under the README's label of the mapping that takes it,
#: as (kind, test, message).  A kind is int, float, bool, str, dict (a
#: mapping), [kind] (a list of it) or [float, float] (a [lo, hi] window).  A
#: value of another kind, or one its test rejects, is a ConfigError naming
#: its key; a test that raises an ErfApproxError fails with that message.
#: A config run reads every bound in its sup form, so it takes no
#: GridPolicy.pointwise_points.
SCHEMA = {
    "top level": {
        "schema_version": (int, None, None),
        "functions": ([dict], None, None),
        "theorems": ([str], lambda ts: all(t in bounds.THEOREMS for t in ts),
                     f"must be theorem ids: {', '.join(bounds.THEOREMS)}"),
        "sweep": ([int], lambda ns: all(n >= 1 for n in ns), "all n must be >= 1"),
        "rate_exponents": ([float], lambda es: all(0.0 < e < 1.0 for e in es),
                           "exponents must lie in (0, 1)"),
        "fractional_orders": ([float], lambda As: all(0 < a < math.inf and not a.is_integer()
                              for a in As), "each order must be finite, > 0, not an integer"),
        "highorder_orders": ([int], lambda Ns: all(N >= 1 for N in Ns), "each N must be >= 1"),
        "grid": (dict, None, None),
        "output": (dict, None, None),
    },
    "grid": {"x_points": _least("x_points"), "refinement": (bool, None, None),
             "anchors": _least("anchors"), "table_points": _least("table_points")},
    "output": {"csv": _STR, "json": _STR},
    "builtin function": {
        "id": _STR,
        "builtin": (str, lambda b: b in BUILTINS, f"must be one of {', '.join(BUILTINS)}"),
    },
    "expr function": {
        "id": _STR,
        # an expression that does not parse fails with its syntax error
        "expr": (str, lambda text: parse(text) is not None, None),
        "domain": _WINDOW,
        "exact_modulus": _STR,
        "sup_norm": (float, lambda s: 0.0 <= s < math.inf, "must be finite and >= 0"),
        "grid_window": _WINDOW,
    },
}


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
    jobs: int = 1       # runs are serial; perfbench/child.py still passes jobs=1

    def __post_init__(self):
        if self.jobs != 1:
            raise PreconditionViolated(f"jobs must be 1: runs are serial, got {self.jobs!r}")

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
        """The config raw describes; SCHEMA checks each value, and this the
        rules that span keys.  The function entries are kept as written."""
        if not isinstance(raw, dict):
            raise ConfigError("document", "top level must be a mapping")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
        top = _read("top level", raw)
        top.setdefault("functions", [{"id": name, "builtin": name} for name in (
            "linear", "sin", "cos", "abs", "exp", "sq", "circle", "ramp_pair")])
        top.setdefault("theorems", tuple(bounds.THEOREMS))
        for name in ("sweep", "rate_exponents"):        # the lists with no default
            if name not in top:
                raise ConfigError(name, "must be a non-empty list")

        functions = top.pop("functions")
        seen = set()
        for i, spec in enumerate(functions):
            prefix = f"functions[{i}]"
            if "id" not in spec or "builtin" not in spec and "expr" not in spec:
                raise ConfigError(prefix, "needs an id and a 'builtin' or an 'expr'")
            # expr decides the kind, so an entry with both fails on its 'builtin'
            entry = _read("expr function" if "expr" in spec else "builtin function", spec,
                          prefix + ".")
            if entry["id"] in seen:
                raise ConfigError(prefix + ".id", f"duplicate id {entry['id']!r}")
            seen.add(entry["id"])
            if "domain" in entry and "grid_window" in entry:
                raise ConfigError(prefix + ".grid_window",
                                  "unread: a domain is its own sampling window")
            if "exact_modulus" in entry:
                # the shape must exist and fit the domain, or every row would skip
                try:
                    corpus.modulus_from_registry(entry["exact_modulus"], entry.get("domain"))
                except ConfigError as exc:
                    raise ConfigError(prefix + ".exact_modulus", exc.message) from None

        output = _read("output", top.pop("output", {}), "output.")
        del top["schema_version"]
        # the other top-level keys name their fields; an absent one keeps its default
        return ExperimentConfig(
            functions=tuple(dict(s) for s in functions),
            grid=GridPolicy(**_read("grid", top.pop("grid", {}), "grid.")),
            csv_path=output.get("csv"), json_path=output.get("json"), **top)


def _read(label: str, mapping: dict, prefix: str = "") -> dict:
    """mapping's values, typed (a number as a float, a list or a window as
    a tuple); a ConfigError names the first key that SCHEMA[label] does not
    take or whose value it rejects, so a misspelt knob cannot run the default."""
    schema, typed = SCHEMA[label], {}
    for key, value in mapping.items():
        if key not in schema:
            raise ConfigError(prefix + key, f"unknown key; expected one of {', '.join(schema)}")
        kind, test, message = schema[key]
        typed[key] = _typed(prefix + key, value, kind)
        try:
            passes = test is None or test(typed[key])
        except ErfApproxError as exc:
            raise ConfigError(prefix + key, str(exc)) from None
        if not passes:
            raise ConfigError(prefix + key, f"{message}, got {value!r}")
    return typed


#: each kind of config value: its name in errors and the types it accepts;
#: a YAML bool is a Python int, so only the bool kind accepts one
_KINDS = {int: ("an integer", int), float: ("a number", (int, float)),
          bool: ("a boolean", bool), str: ("a string", str), dict: ("a mapping", dict)}


def _typed(field: str, value, kind):
    """value (a number as a float, a list as a tuple), or a ConfigError
    naming field if value is not of kind.  A list must not be empty (a run
    crosses it) nor name a value twice (a repeat would run its groups or
    rows twice); function entries are told apart by their ids instead."""
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)) or len(kind) == 2 and len(value) != 2:
            shape = "[lo, hi]" if len(kind) == 2 else "a list"
            raise ConfigError(field, f"must be {shape}, got {value!r}")
        if not value:
            raise ConfigError(field, "must be a non-empty list")
        items = tuple(_typed(field, v, kind[0]) for v in value)
        if len(kind) == 1 and kind[0] is not dict and len(set(items)) < len(items):
            raise ConfigError(field, f"must name each entry once, got {value!r}")
        return items
    name, types = _KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(field, f"must be {name}, got {value!r}")
    return float(value) if kind is float else value


# ------------------------------------------------------- function resolution


def _resolve(spec: dict, theorem: str, order: int, run: bounds.Run):
    """Corpus variant, or function built from an expression with its
    derivatives to order, suited to a theorem; an expression's sample in
    run must be finite, and a declared sup_norm is checked against it.

    Returns (object, skip_reason); exactly one is None.
    """
    th = bounds.THEOREMS[theorem]
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
        try:
            f = corpus.function_from_expression(
                spec["id"], spec["expr"], domain=domain, orders=order,
                exact_modulus=spec.get("exact_modulus"),
                sup_norm=spec.get("sup_norm"),
                grid_window=tuple(spec["grid_window"]) if "grid_window" in spec else None,
            )
            # a bound that reads no derivative reads f's modulus, whose
            # sample gives the sup
            sampled = run.sampled_sup(f, modulus=order == 0)
        except ErfApproxError as exc:
            return None, f"expression rejected: {exc}"
        if not math.isfinite(sampled):
            lo, hi = f.sample_window()
            return None, f"expression rejected: its sample on [{lo!r}, {hi!r}] is not finite"
        # bounds take a declared sup_norm as the function's sup, so one
        # below the sampled sup would make them too small
        declared = spec.get("sup_norm")
        if declared is not None and sampled > declared * (1.0 + 1e-12):
            return None, (f"expression rejected: declared sup_norm {declared!r} "
                          f"is below the sampled sup {sampled!r}")
        return f, None

    name = spec["builtin"]
    pool = getattr(corpus, th.pool)
    if name not in pool:
        return None, f"no {theorem}-compatible variant of builtin {name!r}"
    return pool[name], None


def _derivatives(f) -> int:
    return min(len(p.derivatives) for p in f.parts)


def _variants(cfg: ExperimentConfig, th: bounds.Theorem) -> Tuple[List[dict], Optional[str]]:
    """A theorem's parameter variants, or a reason to skip it; config
    values outside the theorem's admissible range are dropped."""
    if th.param is None:
        return [{}], None
    values = cfg.highorder_orders if th.param == "N" else cfg.fractional_orders
    lo, hi = th.orders
    kws = [{th.param: v} for v in values if lo < v < hi]
    if not kws:
        return [], f"no {th.param} in {list(values)} lies in ({lo:g}, {hi:g})"
    return kws, None


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
    """Execute the configured verification sweep; deterministic output.

    Each (theorem, function, exponent, variant) group runs in config
    order.  A group that fails, and each non-finite cell, is a skip listed
    after every skip decided before a group runs (no variant, too few
    derivatives, a failed hypothesis).
    """
    run = bounds.Run.of(cfg.sweep, cfg.rate_exponents, cfg.grid)   # shared by the groups
    skipped, failed, finished = [], [], []
    for theorem in cfg.theorems:
        th = bounds.THEOREMS[theorem]
        variants, no_variant = _variants(cfg, th)
        # an expression gets the derivatives its most demanding variant reads
        order = max((th.derivative_order(kw) for kw in variants), default=0)
        for spec in cfg.functions:
            where = {"theorem": theorem, "function": spec["id"]}
            f, reason = _resolve(spec, theorem, order, run)
            reason = reason or no_variant
            if reason is not None:
                skipped.append({**where, "reason": reason})
                continue
            # of the variants f lacks derivatives for only the lowest is kept:
            # the precheck skips its cells with the reason, higher ones fail alike
            have = _derivatives(f)
            kws = [kw for kw in variants if th.derivative_order(kw) <= have]
            kws += [kw for kw in variants if th.derivative_order(kw) > have][:1]
            for exponent in cfg.rate_exponents:
                for kw in kws:
                    ns = []
                    for n in cfg.sweep:
                        reason = _precheck(theorem, f, n, exponent, kw)
                        if reason is not None:
                            skipped.append({**where, "n": n, "exponent": exponent,
                                            "reason": reason})
                        else:
                            ns.append(n)
                    if not ns:
                        continue
                    try:
                        reports = verify(theorem, f, tuple(ns), exponent, cfg.grid, run=run, **kw)
                    except ErfApproxError as exc:
                        failed.append({**where, "exponent": exponent,
                                       "reason": f"group failed: {exc}"})
                        continue
                    failed.extend({**where, "family": r.family, "n": r.n, "exponent": exponent,
                                   "reason": "non-finite empirical error or bound"}
                                  for r in reports if r.verdict == "non-finite")
                    finished.append([r for r in reports if r.verdict != "non-finite"])

    # rates are fitted once every group has run: the first least-squares fit
    # touches about 1 MB of LAPACK workspace, which would otherwise stay
    # resident under the groups' peak
    rows = [row for reports in finished for row in _rows(reports)]
    verdicts = [r["verdict"] for r in rows]
    return RunResult(
        rows=tuple(rows),
        skipped=tuple(skipped + failed),
        violated=verdicts.count("violated"),
        held=verdicts.count("holds"),
        inconclusive=verdicts.count("inconclusive-estimated"),
    )


def _rows(reports) -> List[dict]:
    """One group's reports as CSV rows, each with the group's fitted rate."""
    slope = r2 = None
    try:
        slope, r2 = fit_rate([(r.n, r.empirical_error) for r in reports])
    except DegenerateFit:
        pass
    return [dict(zip(CSV_COLUMNS, (
        r.theorem_id, r.function_id, r.family, r.n, r.rate_exponent, r.point_mode,
        r.empirical_error, r.bound_value, r.slack, r.modulus_quality, r.verdict, slope, r2)))
        for r in reports]


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


#: the n, alpha and x-grid size the partition check covers
PARTITION_NS = (1, 2, 7, 50, 311)
PARTITION_ALPHAS = (0.3, 0.5, 0.7, 0.9)
PARTITION_X_POINTS = 10_000


def run_partition_check() -> dict:
    """Partition-of-unity invariant suite; returns max deviations."""
    xs = np.linspace(-8.0, 8.0, PARTITION_X_POINTS)
    max_dev = 0.0
    for n in PARTITION_NS:
        sums = operators.partition_sum(xs, n)
        max_dev = max(max_dev, float(np.max(np.abs(sums - 1.0))))

    tail_ok = True
    worst_margin = math.inf
    rng = np.random.default_rng(0)
    for n in PARTITION_NS:
        for alpha in PARTITION_ALPHAS:
            if float(n) ** (1.0 - alpha) < partition.TAIL_T_MIN:
                continue
            for x in rng.uniform(-2.0, 2.0, 20):
                s, bound = partition.tail_comparison(float(x), n, alpha)
                worst_margin = min(worst_margin, bound - s)
                if s >= bound:
                    tail_ok = False

    deficiencies = {
        str(n): {
            "a": operators.boundary_deficiency(n, 0.0, 1.0, "a"),
            "b": operators.boundary_deficiency(n, 0.0, 1.0, "b"),
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
        "boundary_ok": min_deficiency >= CHI_AT_ONE,
    }
