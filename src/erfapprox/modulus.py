"""First modulus of continuity omega_1(f, delta) on an interval.

Exact closed forms are used when the function carries one for the queried
interval; otherwise a sliding-window grid estimate with one refinement
pass.  Grid estimates always under-report the true modulus, which is the
safe direction for certifying that an error sits below a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

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


def grid_modulus(xs: np.ndarray, ys: np.ndarray, delta: float) -> float:
    """Sliding-window omega_1 estimate from samples ys on the uniform grid xs."""
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    # a window of size m spans (m-1)*h, so m = floor(delta/h) + 1 keeps
    # every in-window pair within distance delta (never overshoots); delta
    # below grid resolution falls back to adjacent differences
    size = max(2, int(math.floor(delta / h)) + 1)
    spread = maximum_filter1d(ys, size, mode="nearest") - minimum_filter1d(ys, size, mode="nearest")
    return float(np.max(spread))


def evaluate_modulus(q: ModulusQuery) -> ModulusResult:
    """omega_1 with provenance: exact when the function carries a closed
    form valid on the queried interval, otherwise a grid estimate refined
    once on a doubled grid (the gap between passes is the certificate)."""
    lo, hi = q.bounds()
    f = q.f

    # a closed form declared without a domain is valid on the whole line,
    # where omega_1 dominates its restriction to any query interval
    if f.exact_modulus is not None and (f.domain is None or (lo, hi) == tuple(f.domain)):
        return ModulusResult(value=float(f.exact_modulus(q.delta)), quality="exact")

    def on(points):
        xs = np.linspace(lo, hi, points)
        return grid_modulus(xs, np.asarray(f.eval(xs), dtype=float), q.delta)

    coarse = on(q.grid_points)
    fine = on(2 * q.grid_points - 1)
    return ModulusResult(
        value=max(coarse, fine),
        quality="estimated",
        refinement_gap=abs(fine - coarse),
    )


def omega1(q: ModulusQuery) -> float:
    """sup{|f(s) - f(t)| : s, t in interval, |s - t| <= delta}."""
    return evaluate_modulus(q).value
