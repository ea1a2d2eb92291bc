"""Independent recomputation of expr-dense empirical errors.

For a seed with no stored verdict table, each row's ``empirical_error``
is recomputed here and compared: the function is the generator's numpy
twin of the expression, ``chi`` comes from ``scipy.special.erf``, and
each operator is written from its definition (window of RADIUS cells,
8-node Gauss-Legendre cell means for C, the uniform theta = 4 sub-cell
combination for D).  The sup error is taken over the two grids the
harness uses.  Nothing from erfapprox is imported, so a wrong kernel,
grid or evaluator in the program shows as a mismatch.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erf

RADIUS = 9
KANTOROVICH_NODES = 8
THETA = 4
#: wider than verdicts.REL_TOL: the oracle sums its own window in its own
#: order, which moves the smallest errors (about 3e-8) by up to 1e-9 relative
REL_TOL = 1e-6
ABS_TOL = 1e-12


def _chi(t):
    return (erf(t + 1.0) - erf(t - 1.0)) / 4.0


def operator(f: Callable, family: str, n: int, xs: np.ndarray,
             interval: Optional[Tuple[float, float]] = None) -> np.ndarray:
    u = n * xs
    ks = np.round(u)[:, None] + np.arange(-RADIUS, RADIUS + 1)[None, :]
    weights = _chi(u[:, None] - ks)
    if family == "A":
        lo, hi = math.ceil(n * interval[0]), math.floor(n * interval[1])
        weights = np.where((ks >= lo) & (ks <= hi), weights, 0.0)
        samples = f(np.clip(ks, lo, hi) / n)
        return (samples * weights).sum(axis=1) / weights.sum(axis=1)
    if family == "B":
        samples = f(ks / n)
    elif family == "C":
        nodes, w = leggauss(KANTOROVICH_NODES)
        samples = f(ks[:, :, None] / n + (nodes + 1.0) / (2.0 * n)) @ (w / 2.0)
    else:
        samples = f(ks[:, :, None] / n + np.arange(THETA + 1) / (n * THETA)).mean(axis=2)
    return (samples * weights).sum(axis=1)


def sup_error(f: Callable, family: str, n: int, window: Tuple[float, float],
              x_points: int, interval=None) -> float:
    err = 0.0
    for points in (x_points, 2 * x_points - 1):
        xs = np.linspace(window[0], window[1], points)
        err = max(err, float(np.max(np.abs(operator(f, family, n, xs, interval) - f(xs)))))
    return err


def mismatches(rows: Sequence[dict], functions: Sequence[Tuple[dict, Callable]],
               x_points: int) -> List[str]:
    """One line per row whose empirical_error the oracle does not confirm."""
    specs = {spec["id"]: (spec, fn) for spec, fn in functions}
    cache: Dict[Tuple, float] = {}
    out = []
    for row in rows:
        key = (row["function"], row["family"], int(row["n"]))
        if key not in cache:
            spec, fn = specs[row["function"]]
            interval = tuple(spec["domain"]) if "domain" in spec else None
            window = interval or tuple(spec["grid_window"])
            cache[key] = sup_error(fn, row["family"], key[2], window, x_points, interval)
        want, got = cache[key], row["empirical_error"]
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"oracle {row['theorem']} {key}: error {got!r}, oracle {want!r}")
    return out
