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

    An array x is shifted into two buffers that erf overwrites in place and
    that are then combined in place, the same operations in the same
    order, so a call holds two arrays the size of x besides it.
    """
    if np.ndim(x) == 0:
        return (erf(float(x) + 1.0) - erf(float(x) - 1.0)) / 4.0
    x_arr = np.asarray(x, dtype=float)
    hi, lo = x_arr + 1.0, x_arr - 1.0
    erf(hi, out=hi)
    erf(lo, out=lo)
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
