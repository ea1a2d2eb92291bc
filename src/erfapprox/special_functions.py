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


#: |x| from which erf(x) is exactly +-1 in double precision (scipy's erf
#: is from about 5.92 on), so chi writes sign(x + 1) there instead of erf
ERF_SATURATION = 6.0


def _saturated_rows(a: np.ndarray) -> int:
    """The number of leading rows of a (along axis 0) whose entries all have
    |value| >= ERF_SATURATION, checked in blocks of rows that double, so a
    call reads about twice the rows it counts, plus one."""
    count, rest = 0, tuple(range(1, a.ndim))
    while count < len(a):
        block = a[count:2 * count + 1]
        full = np.logical_and.accumulate(np.all(np.abs(block) >= ERF_SATURATION, axis=rest))
        count += int(np.count_nonzero(full))
        if not full[-1]:
            break
    return count


def _sign_saturated_tail(lo: np.ndarray) -> int:
    """Write the sign into the last rows of lo (of its last two, along
    axis 0, counted from the end) whose entries are all >= ERF_SATURATION
    or all <= -ERF_SATURATION, where erf is exactly that sign, and return
    how many entries of lo's flat end they hold.  Each row is tested by
    its min and max, which a nan keeps from saturating."""
    done = 0
    for i in reversed(range(max(len(lo) - 2, 0), len(lo))):
        row = lo[i:i + 1]
        if row.min(initial=np.inf) >= ERF_SATURATION:
            row[...] = 1.0
        elif row.max() <= -ERF_SATURATION:
            row[...] = -1.0
        else:
            break
        done += row.size
    return done


def chi(x, buffers=None):
    """Bell density chi(x) = (erf(x+1) - erf(x-1))/4.

    Even, strictly positive, maximized at 0 with chi(0) = erf(1)/2.

    An array call writes x + 1 and x - 1 into two C-ordered buffers of
    x's shape, buffers = (hi, lo), or two fresh ones when None; lo may be
    x itself, which then ends as x - 1.  It makes two erf calls on them,
    combines them in place and returns hi, equal to the formula bit for
    bit.

    The leading rows of x + 1 (along axis 0) whose entries all have
    |value| >= ERF_SATURATION, where erf is exactly +-1, take np.sign
    (which keeps nan), and the first erf call covers the remaining rows.
    Along axis 0, an entry of x - 1 equal to the entry of x + 1 two places
    on takes its erf value; the last two places, which no entry of x + 1
    covers, take their sign from the end back while their entries are
    saturated, and the second call covers the rest of them and the entries
    that differ.  On a window-major kernel d - m (m = -R..R down axis 0,
    |d| <= 1/2) the first two rows of x + 1 and the last two of x - 1 are
    saturated, so the two calls see 13 of the 30 arguments per point,
    plus the few inexact ones.  When over a sixteenth differ, erf runs on
    all of x - 1 but its saturated tail, so a call holds at most about
    0.19 arrays the size of x besides the buffers.
    """
    if np.ndim(x) == 0:
        return (erf(float(x) + 1.0) - erf(float(x) - 1.0)) / 4.0
    x_arr = np.asarray(x, dtype=float)
    hi, lo = (np.empty(x_arr.shape), np.empty(x_arr.shape)) if buffers is None else buffers
    np.add(x_arr, 1.0, out=hi)
    np.subtract(x_arr, 1.0, out=lo)
    rows = _saturated_rows(hi)
    end = lo.size - _sign_saturated_tail(lo)
    fresh = lo[:-2] != hi[2:]
    np.sign(hi[:rows], out=hi[:rows])
    erf(hi[rows:], out=hi[rows:])
    moved = np.count_nonzero(fresh)
    flat = lo.reshape(-1)
    if moved > fresh.size // 16:
        erf(flat[:end], out=flat[:end])
    else:
        # lo is C-ordered, so the fresh arguments can move next to the
        # unsaturated places of its last two in its own buffer, where one
        # erf call covers them all
        tail = flat[fresh.size - moved:end]
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
