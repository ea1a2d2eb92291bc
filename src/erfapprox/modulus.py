"""First modulus of continuity omega_1(f, delta) on an interval.

Exact closed forms are used when the function carries one for the queried
interval; otherwise a sliding-window grid estimate with one refinement
pass.  Grid estimates always under-report the true modulus, which is the
safe direction for certifying that an error sits below a bound.

``grid_modulus`` is the sliding-window kernel, in numpy alone: the
largest max - min over every window of m consecutive samples, from a
doubling pass (a sparse table) of running maxima over the pair (ys, -ys)
and two overlapping blocks of width 2^floor(log2 m) per window start.
Given a sequence of deltas it makes that pass once, in ascending window
size, and reads every size on the way.
max, min and a + (-b) == a - b are exact, so the estimate equals the
largest spread of the windows bit for bit.  The grid step comes from the
two end points of xs, so a caller may pass the whole uniform grid or only
its ends.  A NaN sample makes every window that holds it NaN, and so the
estimate: the row that reads it becomes non-finite rather than taking a
finite spread from the other samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import IntervalViolation, PreconditionViolated
from .funcs import FunctionSpec


@dataclass(frozen=True)
class ModulusQuery:
    """One omega_1 request: function, step, interval, grid policy."""

    f: FunctionSpec
    delta: float
    interval: Optional[Tuple[float, float]] = None
    grid_points: int = 4096

    def __post_init__(self):
        if not self.delta > 0:
            raise PreconditionViolated(f"delta must be > 0, got {self.delta}")
        if self.grid_points < 2:
            raise PreconditionViolated("grid_points must be >= 2")
        lo, hi = self.bounds()
        if not lo < hi:
            raise PreconditionViolated(f"need lo < hi, got [{lo}, {hi}]")
        if self.f.domain is not None:
            a, b = self.f.domain
            if lo < a - 1e-12 or hi > b + 1e-12:
                raise IntervalViolation(
                    f"{self.f.name}: query interval [{lo}, {hi}] "
                    f"not contained in domain [{a}, {b}]"
                )

    def bounds(self) -> Tuple[float, float]:
        if self.interval is not None:
            return tuple(self.interval)
        return self.f.sample_window()


@dataclass(frozen=True)
class ModulusResult:
    """omega_1 value plus how it was obtained."""

    value: float
    quality: str                # "exact" or "estimated"
    refinement_gap: Optional[float] = None


def grid_modulus(xs: np.ndarray, ys: np.ndarray, delta):
    """Sliding-window omega_1 estimate from samples ys on the uniform grid
    from xs[0] to xs[-1] (the whole grid or only its two end points).

    delta is one step, giving a float, or a sequence of steps, giving an
    array of the estimates in its order from one doubling pass: the
    levels grow once and each window size is read when they reach it, so
    every entry equals the scalar call bit for bit."""
    n = len(ys)
    h = (xs[-1] - xs[0]) / (n - 1)
    # a window of size m spans (m-1)*h, so m = floor(delta/h) + 1 keeps
    # every in-window pair within distance delta (never overshoots); delta
    # below grid resolution falls back to adjacent differences
    sizes = [max(2, int(math.floor(d / h)) + 1) for d in np.atleast_1d(delta)]
    spreads = {}
    # levels[:, i] holds the maxima of (ys, -ys) over [i, i + width)
    levels, width = np.concatenate((ys, -ys)).reshape(2, n), 1
    for size in sorted(set(sizes)):
        if size >= n:
            spreads[size] = float(ys.max() - ys.min())
            continue
        while 2 * width <= size:
            levels = np.maximum(levels[:, :-width], levels[:, width:])
            width *= 2
        # the window [i, i + size) is the union of [i, i + width) and
        # [i + size - width, i + size)
        top = np.maximum(levels[:, :n - size + 1], levels[:, size - width:])
        spreads[size] = float((top[0] + top[1]).max())
    if np.ndim(delta) == 0:
        return spreads[sizes[0]]
    return np.array([spreads[size] for size in sizes])


def evaluate_modulus(q: ModulusQuery) -> ModulusResult:
    """omega_1 with provenance: exact when the function carries a closed
    form valid on the queried interval, otherwise a grid estimate refined
    once on a doubled grid (the gap between passes is the certificate).

    f is evaluated once, on the refined grid of 2 * grid_points - 1
    points; the coarse pass reads its even samples, which are the
    grid_points grid bit for bit."""
    lo, hi = q.bounds()
    f = q.f

    # a closed form declared without a domain is valid on the whole line,
    # where omega_1 dominates its restriction to any query interval
    if f.exact_modulus is not None and (f.domain is None or (lo, hi) == tuple(f.domain)):
        return ModulusResult(value=float(f.exact_modulus(q.delta)), quality="exact")

    xs = np.linspace(lo, hi, 2 * q.grid_points - 1)
    ys = np.asarray(f.eval(xs), dtype=float)
    coarse = grid_modulus(xs[::2], ys[::2], q.delta)
    fine = grid_modulus(xs, ys, q.delta)
    return ModulusResult(
        value=max(coarse, fine),
        quality="estimated",
        refinement_gap=abs(fine - coarse),
    )


def omega1(q: ModulusQuery) -> float:
    """sup{|f(s) - f(t)| : s, t in interval, |s - t| <= delta}."""
    return evaluate_modulus(q).value
