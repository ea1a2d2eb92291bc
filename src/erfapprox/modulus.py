"""First modulus of continuity omega_1(f, delta) on f's own window.

omega_1 is read on f's sample window (its domain, or its grid window on
the whole line) at a sequence of steps, one value per step in its order;
``omega1`` is the one scalar form.  A closed form is used when the
function carries one; otherwise a sliding-window grid estimate with one
refinement pass, which under-reports the true modulus: the safe side for
certifying that an error sits below a bound.  One sample of f and one
doubling pass per grid serve every step, and the estimate also carries
the coarse grid's sup of |f| (``bounds.Run`` keeps one per function).

``grid_modulus`` is the sliding-window kernel, in numpy alone: the
largest max - min over every window of m consecutive samples, from a
doubling pass (a sparse table) of running maxima over the pair (ys, -ys)
and two overlapping blocks of width 2^floor(log2 m) per window start.
The pass runs once, in ascending window size, and reads every size on
the way, so each entry equals a call at its step alone bit for bit.
max, min and a - b are exact, so the estimate equals the largest spread
of the windows bit for bit.  The grid step comes from the two end points
of xs, so a caller may pass the whole uniform grid or only its ends.
Samples stacked along leading axes are read in the same pass, each as if
alone; ``window_sizes`` says which grids may share one: those whose steps
give equal window sizes.  A NaN sample makes every window that holds it
NaN, and so the estimate: the row that reads it becomes non-finite rather
than taking a finite spread from the other samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import PreconditionViolated
from .funcs import SAMPLE_POINTS, FunctionSpec


@dataclass(frozen=True)
class ModulusResult:
    """omega_1 at each step, in the steps' order, plus how it was obtained."""

    value: np.ndarray
    quality: str                # "exact" or "estimated"
    refinement_gap: Optional[np.ndarray] = None
    sup: Optional[float] = None         # grid sup of |f|, for an estimate


def window_sizes(xs: np.ndarray, n: int, steps: Sequence[float]) -> Tuple[int, ...]:
    """The window of each step of steps, in samples, on the uniform grid of
    n points from xs[0] to xs[-1]: grids whose steps give equal sizes give
    equal ``grid_modulus`` estimates of equal samples."""
    if not all(d > 0 for d in steps):
        raise PreconditionViolated(f"every step must be > 0, got {steps}")
    h = (xs[-1] - xs[0]) / (n - 1)
    # a window of size m spans (m-1)*h, so m = floor(delta/h) + 1 keeps
    # every in-window pair within distance delta (never overshoots); delta
    # below grid resolution falls back to adjacent differences
    return tuple(max(2, int(math.floor(d / h)) + 1) for d in steps)


def grid_modulus(xs: np.ndarray, ys: np.ndarray, steps: Sequence[float]) -> np.ndarray:
    """Sliding-window omega_1 estimates at every step of steps, in its
    order, from samples ys on the uniform grid from xs[0] to xs[-1] (the
    whole grid or only its two end points).  ys of shape (..., n) holds
    one sample per leading index, each on that grid, and the estimates
    have shape (..., len(steps))."""
    n = ys.shape[-1]
    sizes = window_sizes(xs, n, steps)
    spreads = {}
    # levels[:, ..., i] holds the maxima of (ys, -ys) over [i, i + width)
    levels, width = np.stack((ys, -ys)), 1
    for size in sorted(set(sizes)):
        if size >= n:
            spreads[size] = ys.max(axis=-1) - ys.min(axis=-1)
            continue
        while 2 * width <= size:
            levels = np.maximum(levels[..., :-width], levels[..., width:])
            width *= 2
        # the window [i, i + size) is the union of [i, i + width) and
        # [i + size - width, i + size)
        top = np.maximum(levels[..., :n - size + 1], levels[..., size - width:])
        # max - min as top[0] - (-top[1]): numpy's commutative add keeps one
        # operand's NaN or the other's by where an entry falls in its SIMD
        # loop, a subtraction always keeps the first's, so a row's NaN has
        # the same bits stacked or alone
        spreads[size] = (top[0] - -top[1]).max(axis=-1)
    return np.stack([spreads[size] for size in sizes], axis=-1)


def evaluate_modulus(f: FunctionSpec, steps: Sequence[float]) -> ModulusResult:
    """omega_1 of f on its sample window at every step of steps: exact when
    f carries a closed form, otherwise a grid estimate refined once on a
    doubled grid (the gap between passes is the certificate).

    f is evaluated once, on the 2 * SAMPLE_POINTS - 1 points of the refined
    grid, and each pass reads every step in one doubling pass.  The coarse
    pass and ``sup``, the grid sup of |f| an estimate carries, read the
    even samples, which are the SAMPLE_POINTS grid bit for bit.  A NaN
    from either pass makes the value and the gap NaN."""
    lo, hi = f.sample_window()
    if not lo < hi:
        raise PreconditionViolated(f"need lo < hi, got [{lo}, {hi}]")
    # a closed form declared without a domain is valid on the whole line,
    # where omega_1 dominates its restriction to the sample window
    if f.exact_modulus is not None:
        if not all(d > 0 for d in steps):
            raise PreconditionViolated(f"every step must be > 0, got {steps}")
        return ModulusResult(np.array([float(f.exact_modulus(float(d))) for d in steps]),
                             "exact")

    xs = np.linspace(lo, hi, 2 * SAMPLE_POINTS - 1)
    ys = np.asarray(f.eval(xs), dtype=float)
    coarse = grid_modulus(xs[::2], ys[::2], steps)
    fine = grid_modulus(xs, ys, steps)
    return ModulusResult(np.maximum(coarse, fine), "estimated", np.abs(fine - coarse),
                         float(np.max(np.abs(ys[::2]))))


def omega1(f: FunctionSpec, delta: float) -> float:
    """sup{|f(s) - f(t)| : s, t in f's sample window, |s - t| <= delta}."""
    return float(evaluate_modulus(f, (delta,)).value[0])
