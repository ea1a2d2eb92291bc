"""The error function and the erf-based bell density.

Everything downstream (partition sums, operators, bounds) reduces to
evaluations of ``erf`` and the density

    chi(x) = (erf(x + 1) - erf(x - 1)) / 4.

``erf`` is a thin wrapper over ``scipy.special.erf`` (absolute error
about 2e-16 against mpmath on [-7, 7]).  ``chi`` resolves ``erf`` through
this module's global at every call, so rebinding it here reaches both of
chi's evaluations.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np
from scipy import special

SQRT_PI = float(np.sqrt(np.pi))
TWO_OVER_SQRT_PI = 2.0 / SQRT_PI


def erf(x, out=None):
    """Gauss error function; a float for a scalar x, else an array (out,
    when given, which may be x itself)."""
    out = special.erf(np.asarray(x, dtype=float), out=out)
    return float(out) if np.ndim(x) == 0 else out


def erf_antiderivative(x):
    """Antiderivative of erf with the free constant fixed to 0.

    Returns x*erf(x) + exp(-x^2)/sqrt(pi); an even function of x.
    """
    x_arr = np.asarray(x, dtype=float)
    out = x_arr * erf(x_arr) + np.exp(-x_arr * x_arr) / SQRT_PI
    return float(out) if np.ndim(x) == 0 else out


def chi(x):
    """Bell density chi(x) = (erf(x+1) - erf(x-1))/4.

    Even, strictly positive, maximized at 0 with chi(0) = erf(1)/2.

    An array call makes two erf calls, on buffers x + 1 and x - 1 that it
    combines in place, and equals the formula bit for bit.  The first
    covers all of x + 1.  Along axis 0, an entry of x - 1 equal to the
    entry of x + 1 two places on takes its erf value, so the second covers
    the last two places and the entries that differ: 17 of 30 arguments
    per point of a window-major kernel d - m (m = -R..R down axis 0), plus
    the few inexact ones.  When over a sixteenth differ, erf runs on all
    of x - 1, so a call holds at most about 2.19 arrays the size of x.
    """
    if np.ndim(x) == 0:
        return (erf(float(x) + 1.0) - erf(float(x) - 1.0)) / 4.0
    x_arr = np.asarray(x, dtype=float)
    hi, lo = x_arr + 1.0, np.subtract(x_arr, 1.0, order="C")
    fresh = lo[:-2] != hi[2:]
    erf(hi, out=hi)
    moved = np.count_nonzero(fresh)
    if moved > fresh.size // 16:
        erf(lo, out=lo)
    else:
        # lo is C-ordered, so the fresh arguments can move next to its last
        # two places in its own buffer, where one erf call covers them all
        tail = lo.reshape(-1)[fresh.size - moved:]
        tail[:moved] = lo[:-2][fresh]
        erf(tail, out=tail)
        values = tail[:moved].copy()
        lo[:-2] = hi[2:]
        lo[:-2][fresh] = values
    hi -= lo
    hi /= 4.0
    return hi


def chi_derivative(x):
    """chi'(x) = (exp(-(x+1)^2) - exp(-(x-1)^2)) / (2 sqrt(pi)).

    Odd; strictly negative for x > 0.
    """
    x_arr = np.asarray(x, dtype=float)
    out = (np.exp(-((x_arr + 1.0) ** 2)) - np.exp(-((x_arr - 1.0) ** 2))) / (2.0 * SQRT_PI)
    return float(out) if np.ndim(x) == 0 else out


#: chi(0) = erf(1)/2, the density's maximum.
CHI_AT_ZERO = chi(0.0)

#: chi(1) = erf(2)/4, the interval-denominator floor.
CHI_AT_ONE = chi(1.0)

#: 1/chi(1) ~= 4.0188; the interval-operator normalization constant.
INV_CHI_AT_ONE = 1.0 / CHI_AT_ONE
