"""Outside-in tracer: spans and counts around each layer's public functions.

The package imports names directly (``from .special_functions import
chi``), so a function is wrapped at every module binding the verify path
resolves it through, not only where it is defined.  ``Tracer`` is a
context manager: it installs the wrappers on entry and puts every
original object back on exit.  Nothing is patched at import time, so an
untraced run executes the program untouched.

Spans live in memory as tuples and are written out after the run.  Each
span records its parent span and the verify group it ran in; a layer's
self time is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from erfapprox import bounds, corpus, expr, harness, operators, special_functions

BOUND_FUNCTIONS = ("mu1", "mu2", "mu3", "highorder_bound", "fractional_bound",
                   "complex_bound")

#: fixed percentile ladder for the group tail
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def _size(x) -> int:
    return int(np.size(x))


def _operator_info(args, kwargs, result):
    f, x, cfg = args[:3]
    if np.ndim(x) == 0:
        grid = ("point", float(x))
    else:
        xs = np.asarray(x)
        grid = (xs.size, float(xs.flat[0]), float(xs.flat[-1]))
    key = (cfg.family, cfg.n, cfg.interval, grid)
    return {"family": cfg.family, "points": _size(x), "key": key}


def _modulus_info(args, kwargs, result):
    return {"exact": result.quality == "exact"}


def _caputo_info(args, kwargs, result):
    return {"points": _size(result[0])}


def _verify_info(args, kwargs, result):
    return {"cells": len(args[2])}


def _points_arg(index: int):
    def info(args, kwargs, result):
        return {"points": _size(args[index])}
    return info


def _no_info(args, kwargs, result):
    return None


def binding_sites():
    """(module, attribute, span name, info function, opens a group)."""
    sites = [
        (special_functions, "erf", "erf", _points_arg(0), False),
        (expr, "erf", "erf", _points_arg(0), False),
        (operators, "chi", "chi", _points_arg(0), False),
        (bounds, "apply_operator", "operator", _operator_info, False),
        (bounds, "evaluate_modulus", "modulus", _modulus_info, False),
        (bounds, "caputo_table", "caputo_table", _caputo_info, False),
        (bounds, "table_modulus", "table_modulus", _no_info, False),
        (corpus, "evaluate", "evaluate", _points_arg(1), False),
        (corpus, "function_from_expression", "corpus_build", _no_info, False),
        (harness, "verify", "verify", _verify_info, True),
        (harness, "fit_rate", "fit_rate", _no_info, False),
    ]
    sites += [(bounds, name, "bound_fn", _no_info, False) for name in BOUND_FUNCTIONS]
    return sites


#: span = (span id, parent id, group id, name, start, end, info)
Span = Tuple[int, Optional[int], Optional[int], str, float, float, Optional[dict]]


class Tracer:
    """Installs span-recording wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._groups = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name, info, opens_group in binding_sites():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info, opens_group))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn: Callable, name: str, info: Callable, opens_group: bool):
        local = self._local
        spans = self.spans
        ids = self._ids
        groups = self._groups

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.group = None
            span_id = next(ids)
            parent = stack[-1] if stack else None
            outer_group = local.group
            if opens_group:
                local.group = next(groups)
            stack.append(span_id)
            result = failed = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                group = local.group
                local.group = outer_group
                spans.append((span_id, parent, group, name, start, end,
                              None if failed else info(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                sid, parent, group, name, start, end, info = span
                if info and "key" in info:
                    info = {**info, "key": repr(info["key"])}
                fh.write(json.dumps([sid, parent, group, name, start, end, info]) + "\n")


def group_tail(durations: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it; the median when none has."""
    ordered = sorted(durations)
    count = len(ordered)
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) >= 100.0 * TAIL_MIN_BEYOND - 1e-6:
            best = p
    if count == 1:
        return best, ordered[0]
    cuts = statistics.quantiles(ordered, n=1000, method="inclusive")
    return best, cuts[int(round(best * 10)) - 1]


def layer_metrics(spans: List[Span], sweep_wall_s: float) -> Dict[str, float]:
    """Per-layer counts and self times from one traced sweep."""
    child_time: Dict[int, float] = defaultdict(float)
    for sid, parent, group, name, start, end, info in spans:
        if parent is not None:
            child_time[parent] += end - start

    count = defaultdict(int)
    points = defaultdict(int)
    self_s = defaultdict(float)
    kernel_keys = set()
    exact = cells = 0
    group_s: List[float] = []
    for sid, parent, group, name, start, end, info in spans:
        info = info or {}
        tag = f"op_{info['family']}" if "family" in info else name
        count[tag] += 1
        points[tag] += info.get("points", 0)
        self_s[tag] += (end - start) - child_time[sid]
        if "key" in info:
            kernel_keys.add(info["key"])
        exact += info.get("exact", False)
        if "cells" in info:
            cells += info["cells"]
            group_s.append(end - start)

    op_calls = sum(count[f"op_{fam}"] for fam in "ABCD")
    tail_pct, tail_s = group_tail(group_s) if group_s else (0.0, 0.0)
    anchor = bounds._anchor_tables.cache_info()
    anchor_lookups = anchor.hits + anchor.misses

    out = {
        "special_functions.erf_calls": count["erf"],
        "special_functions.erf_points": points["erf"],
        "special_functions.erf_self_s": self_s["erf"],
        "special_functions.erf_ns_per_point":
            1e9 * self_s["erf"] / points["erf"] if points["erf"] else 0.0,
        "special_functions.chi_calls": count["chi"],
        "special_functions.chi_points": points["chi"],
    }
    for fam in "ABCD":
        out[f"operators.{fam}_calls"] = count[f"op_{fam}"]
    for fam in "ABCD":
        out[f"operators.{fam}_self_s"] = self_s[f"op_{fam}"]
    out.update({
        "operators.points": sum(points[f"op_{fam}"] for fam in "ABCD"),
        "operators.kernel_keys": len(kernel_keys),
        "operators.kernel_repeat_share":
            1.0 - len(kernel_keys) / op_calls if op_calls else 0.0,
        "modulus.calls": count["modulus"],
        "modulus.exact_share": exact / count["modulus"] if count["modulus"] else 0.0,
        "modulus.self_s": self_s["modulus"],
        "fractional.caputo_calls": count["caputo_table"],
        "fractional.caputo_points": points["caputo_table"],
        "fractional.caputo_self_s": self_s["caputo_table"],
        "fractional.table_modulus_calls": count["table_modulus"],
        "fractional.table_modulus_self_s": self_s["table_modulus"],
        "bounds.anchor_cache_hit_share":
            anchor.hits / anchor_lookups if anchor_lookups else 0.0,
        "bounds.verify_cells": cells,
        "bounds.self_s": self_s["verify"] + self_s["bound_fn"],
        "bounds.bound_fn_s": self_s["bound_fn"],
        "expr.evaluate_calls": count["evaluate"],
        "expr.evaluate_points": points["evaluate"],
        "expr.evaluate_self_s": self_s["evaluate"],
        "corpus.build_s": self_s["corpus_build"],
        "harness.groups": len(group_s),
        "harness.group_p50_ms": 1e3 * statistics.median(group_s) if group_s else 0.0,
        "harness.group_tail_ms": 1e3 * tail_s,
        "harness.group_tail_pct": tail_pct,
        "harness.busy_share": sum(group_s) / sweep_wall_s,
        "harness.fit_rate_s": self_s["fit_rate"],
    })
    out["trace.layer_self_s"] = sum(self_s.values())
    return out
