"""Partition-of-unity facts about the bell density under integer shifts.

The density satisfies sum_k chi(nx - k) = 1 for every n and x; the
operators only ever see finite windows of that sum, so this module owns

* the certified radius ``RADIUS`` of every truncated window (via the
  mean-value envelope chi(t) < exp(-(t-1)^2)/sqrt(pi) for t >= 1) and
  the interval index window ceil(na)..floor(nb),
* the doubly-exponential tail mass of indices with |nx - k| >= n^(1-alpha)
  and its closed-form bound,
* the density integral through the closed antiderivative.

The window sums themselves (the partition sum, the interval denominator
and its boundary deficiency) are sums of the operators' own window
kernel, so they live in ``operators``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.special import erfcx

from .errors import PreconditionViolated, WindowEmpty
from .special_functions import SQRT_PI, chi, erf_antiderivative


def index_window(n: int, a: float, b: float) -> Tuple[int, int]:
    """Inclusive index range (ceil(na), floor(nb)) of the interval mode."""
    lo = math.ceil(n * a)
    hi = math.floor(n * b)
    if lo > hi:
        raise WindowEmpty(
            f"ceil({n}*{a}) = {lo} > floor({n}*{b}) = {hi}; n too small for [{a}, {b}]"
        )
    return lo, hi


def certified_radius(epsilon: float) -> int:
    """Smallest R from 3 up with the chi-tail mass beyond |t| >= R below epsilon.

    Both tails of sum_{|k - u| >= R} chi(k - u) are bounded via the
    Gaussian envelope by (2/sqrt(pi)) e^{-(R-1)^2} / (1 - e^{-2(R-1)}).
    The floor of 3 means every epsilon above about 0.021 gets radius 3.
    """
    if not 0.0 < epsilon < 1.0:
        raise PreconditionViolated(f"truncation epsilon must lie in (0, 1), got {epsilon!r}")
    r = 3
    # e^{-(R-1)^2} underflows to 0 by R = 29, so every positive epsilon stops
    while (2.0 / SQRT_PI) * math.exp(-((r - 1) ** 2)) / (1.0 - math.exp(-2.0 * (r - 1))) >= epsilon:
        r += 1
    return r


#: neglected chi-tail mass of every window sum, and the radius it certifies
TRUNCATION_EPSILON = 1e-14
RADIUS = certified_radius(TRUNCATION_EPSILON)


#: the hypothesis of every tail estimate: t = n^(1-alpha) >= TAIL_T_MIN
TAIL_T_MIN = 3.0


def _check_tail_hypothesis(n: int, alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise PreconditionViolated(f"alpha must lie in (0, 1), got {alpha}")
    t = float(n) ** (1.0 - alpha)
    if t < TAIL_T_MIN:
        raise PreconditionViolated(
            f"n^(1-alpha) = {t:.4f} < {TAIL_T_MIN:g} for n={n}, alpha={alpha}")
    return t


def tail_core(n: int, exponent: float) -> float:
    """1 / (sqrt(pi) (t - 2) e^{(t-2)^2}) with t = n^(1-exponent).

    Twice ``tail_bound``; the factor multiplying ||f||_inf in every
    first-order bound.
    """
    t = _check_tail_hypothesis(n, exponent)
    # written as a product so large t underflows to 0 instead of overflowing
    return math.exp(-((t - 2.0) ** 2)) / (SQRT_PI * (t - 2.0))


def _tail_indices(x: float, n: int, alpha: float):
    """(nx, t, k): the indices k with |nx - k| >= t = n^(1-alpha), taken on
    both sides out to RADIUS beyond t, where the envelope has dropped
    below TRUNCATION_EPSILON."""
    t = _check_tail_hypothesis(n, alpha)
    u = float(x) * n
    ks = np.concatenate(
        [
            np.arange(math.ceil(u + t), math.ceil(u + t + RADIUS) + 1, dtype=float),
            np.arange(math.floor(u - t - RADIUS), math.floor(u - t) + 1, dtype=float),
        ]
    )
    return u, t, ks[np.abs(u - ks) >= t]


def tail_sum(x: float, n: int, alpha: float) -> float:
    """Mass of chi(nx - k) over indices with |nx - k| >= n^(1-alpha)."""
    u, _, ks = _tail_indices(x, n, alpha)
    return float(np.sort(chi(u - ks)).sum())


def tail_bound(n: int, alpha: float) -> float:
    """Closed-form tail bound 1 / (2 sqrt(pi) (t - 2) e^{(t-2)^2}), t = n^(1-alpha)."""
    return tail_core(n, alpha) / 2.0


def tail_comparison(x: float, n: int, alpha: float) -> Tuple[float, float]:
    """(tail sum, tail bound), both rescaled by e^{(t-2)^2}.

    The shared exponential factor makes the strict inequality checkable in
    double precision even when both unscaled quantities underflow to 0.
    Each chi term is expanded through erfcx, the scaled complementary
    error function, so no intermediate quantity over- or underflows.
    """
    u, t, ks = _tail_indices(x, n, alpha)
    v = np.abs(u - ks)              # all >= t >= 3, so chi is on its outer flank
    s = (t - 2.0) ** 2
    # chi(v) = (erfc(v-1) - erfc(v+1)) / 4 for v >= 1; rescaling each erfc
    # through erfcx keeps the exponents (s - (v∓1)^2 <= s - (t-1)^2 < 0) tame
    terms = 0.25 * (
        erfcx(v - 1.0) * np.exp(s - (v - 1.0) ** 2)
        - erfcx(v + 1.0) * np.exp(s - (v + 1.0) ** 2)
    )
    scaled_bound = 1.0 / (2.0 * SQRT_PI * (t - 2.0))
    return float(np.sum(terms)), scaled_bound


def chi_integral(lo: float, hi: float) -> float:
    """Integral of chi over [lo, hi] via the closed antiderivative.

    The antiderivative of chi is (E(x+1) - E(x-1))/4 with E the erf
    antiderivative; the total mass over the line is 1.
    """
    if not lo < hi:
        raise PreconditionViolated(f"need lo < hi, got [{lo}, {hi}]")

    def anti(x: float) -> float:
        return (erf_antiderivative(x + 1.0) - erf_antiderivative(x - 1.0)) / 4.0

    return anti(hi) - anti(lo)
