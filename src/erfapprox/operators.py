"""The four neural-network operators as one sum over the erf density.

Every family computes

    Op f(x) = sum_k L_k(f) chi(nx - k)

over the window of indices round(nx) + offsets of radius
``partition.RADIUS``, and differs from the others only in its node
functional L_k(f) = sum_j w_j f(k/n + t_j) (``_node_rule``).  An
``OperatorConfig`` takes its family's parameters and no others:

* A (n, [a, b]): interval quasi-interpolation, L_k(f) = f(k/n) with k
  restricted to [ceil(na), floor(nb)] and the sum divided by the
  window's chi sum.
* B (n): whole-line quasi-interpolation, L_k(f) = f(k/n).
* C (n): Kantorovich variant, L_k(f) the cell mean of f over [k/n, (k+1)/n].
* D (n, weights): quadrature variant, L_k(f) a convex sub-cell combination.

``apply_operator`` accepts a scalar x or a 1-D array of x values, and a
real FunctionSpec or a ComplexFunctionSpec.  It builds the kernel once
and applies it to every part of f, so a complex f gets the pair
(Op re, Op im).  The kernel (``_kernel``) is one window-major chi matrix
chi((u - r) - m), with u = nx, r = round(u) and the offsets m = -R..R
down axis 0, and one integer matrix of the same layout that points each
(m, x) at its node index k = r + m; for A one mask zeroes the chi matrix
outside [ceil(na), floor(nb)].  Along axis 0 neighbouring offsets share
erf values, the two leading rows of x + 1 and the two trailing rows of
x - 1 are saturated, so chi's two erf calls see 13 of the 30 arguments
per point plus the few inexact ones.  Each image gathers its node values
window-major, weights them by the kernel and adds the rows in the
family's summation order (``_window_sum``), as numpy adds a points-major
row, so every window sum is the same bit for bit; A's denominator is the
kernel's own window sum.  The node functional is evaluated once per
distinct k, in blocks of ``NODE_POINTS`` node points.

A call writes its matrices into a ``Workspace`` of two float buffers, one
index buffer and one mask, each window x points: the argument, which chi
overwrites with x - 1 and each part's gathered node values then replace;
x + 1, which ends as chi's result, the kernel; the node indices; and A's
mask.  A run keeps one workspace for all its calls (``bounds.Run.work``),
so their pages are faulted in once; without one a call takes a fresh
workspace, so its working set stays near four window x points matrices
whatever n and the rule's node count.

The partition sum sum_k chi(nx - k), the interval denominator V(x) and
its boundary deficiency 1 - V(a) are window sums of the same kernel, so
``check-partition`` checks the sums the operators compute.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DomainViolation,
    InvalidWeights,
    PreconditionViolated,
    UnboundedFunction,
)
from .funcs import ComplexFunctionSpec, FunctionSpec
from .partition import RADIUS, index_window
from .special_functions import chi

#: Gauss-Legendre order of C's cell mean, and that rule's nodes and weights
#: on [-1, 1], built once
KANTOROVICH_NODES = 8
_KANTOROVICH_RULE = leggauss(KANTOROVICH_NODES)

#: node points k/n + t_j per evaluation of the node functional L_k(f):
#: 2048 indices k of C's 8-node rule, 16384 of A's and B's single node
NODE_POINTS = 16384

#: window offsets -R..R: chi's rows and A's summation order
ASCENDING = np.arange(-RADIUS, RADIUS + 1.0)
#: window offsets centre-outward in pairs (0, -1, 1, ..., -R, R): the
#: summation order of B, C and D, fixed so that every window sum adds its
#: terms in the same order and stays reproducible bit for bit
CENTRE_OUT = np.array(sorted(ASCENDING, key=lambda m: (abs(m), m)))
#: entries per window
WINDOW = ASCENDING.size


@dataclass(frozen=True)
class QuadratureWeights:
    """Convex weights w_0..w_theta over sub-cell nodes k/n + r/(n*theta)."""

    theta: int
    w: Tuple[float, ...]

    def __post_init__(self):
        if (not isinstance(self.theta, numbers.Integral) or isinstance(self.theta, bool)
                or self.theta < 1):
            raise InvalidWeights(f"theta must be a positive integer, got {self.theta!r}")
        if len(self.w) != self.theta + 1:
            raise InvalidWeights(f"need theta+1 = {self.theta + 1} weights, got {len(self.w)}")
        # written to fail closed: a NaN weight passes no comparison
        if not all(wr >= 0.0 for wr in self.w):
            raise InvalidWeights("weights must be nonnegative")
        if not abs(math.fsum(self.w) - 1.0) <= 1e-15:
            raise InvalidWeights(f"weights sum to {math.fsum(self.w)!r}, not 1")

    @staticmethod
    def uniform(theta: int) -> "QuadratureWeights":
        return QuadratureWeights(theta, (1.0 / (theta + 1),) * (theta + 1))


@dataclass(frozen=True)
class OperatorConfig:
    family: str
    n: int
    interval: Optional[Tuple[float, float]] = None
    weights: Optional[QuadratureWeights] = None

    def __post_init__(self):
        if self.family not in ("A", "B", "C", "D"):
            raise PreconditionViolated(f"unknown operator family {self.family!r}")
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise PreconditionViolated(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise PreconditionViolated("n must be >= 1")
        if self.family == "A":
            if self.interval is None:
                raise PreconditionViolated("family A needs an interval [a, b]")
            a, b = self.interval
            if not a < b:
                raise PreconditionViolated(f"need a < b, got [{a}, {b}]")
            index_window(self.n, a, b)
        elif self.interval is not None:
            raise PreconditionViolated(f"family {self.family} takes no interval")
        if self.family == "D":
            if self.weights is None:
                raise PreconditionViolated("family D needs quadrature weights")
        elif self.weights is not None:
            raise PreconditionViolated(f"family {self.family} takes no weights")


def _node_rule(cfg: OperatorConfig) -> Tuple[np.ndarray, np.ndarray]:
    """(t, w) of the family's node functional L_k(f) = sum_j w_j f(k/n + t_j).

    A and B sample f(k/n); C takes the cell mean by fixed-order
    Gauss-Legendre (KANTOROVICH_NODES); D combines the sub-cell nodes
    k/n + r/(n*theta) with cfg.weights.
    """
    if cfg.family == "C":
        glx, glw = _KANTOROVICH_RULE
        return (glx + 1.0) / (2.0 * cfg.n), glw / 2.0
    if cfg.family == "D":
        wts = cfg.weights
        rr = np.arange(wts.theta + 1, dtype=float)
        return rr / (cfg.n * wts.theta), np.asarray(wts.w)
    return np.zeros(1), np.ones(1)


class Workspace:
    """The buffers an apply_operator call writes its kernel into: two float
    matrices, one index matrix and one mask, each of WINDOW x points
    entries (window-major: offsets -R..R down axis 0).  They grow to the
    largest call and are sliced for smaller ones, so calls that share a
    workspace (``bounds.Run`` keeps one per run) fault their pages in once;
    a call without one takes a fresh one.  It serves one call at a time,
    and a call reads only what it wrote itself; the kernel stays in its
    buffer until the next call."""

    def __init__(self):
        self._buffers = (np.empty(0), np.empty(0), np.empty(0, np.intp), np.empty(0, bool))

    def take(self, points: int) -> Tuple[np.ndarray, ...]:
        """(arg, kernel, index, mask): WINDOW x points views of the buffers,
        the same views for the same points until they grow."""
        size = points * WINDOW
        if self._buffers[0].size < size:
            self._buffers = tuple(np.empty(size, b.dtype) for b in self._buffers)
        return tuple(b[:size].reshape(WINDOW, points) for b in self._buffers)


def _node_indices(r: np.ndarray, lo: float, hi: float, index: np.ndarray, mask: np.ndarray):
    """The window indices k = r + m (m = -R..R down axis 0) of every point,
    as (kk, idx, outside): the distinct k, clipped to [lo, hi], as floats;
    one window-major integer matrix with k = kk[idx]; and, when [lo, hi] is
    finite, the mask of the window entries outside it (a nan index counts
    as outside), else None.

    Windows that overlap into one range take the arange over that range
    and build idx in integers in index, and the mask in mask, both
    WINDOW x points buffers.  Scattered windows, and windows that contain
    nan, take np.unique of the float indices instead: the work stays
    bounded by their size, and nan is never cast to an integer.
    """
    finite = math.isfinite(lo)
    span = r.max() - r.min() if r.size else math.nan
    if span < r.size * WINDOW and np.abs(r).max() < 2.0**52:      # no nan or inf
        k0 = max(r.min() - RADIUS, lo)
        m = int(min(r.max() + RADIUS, hi) - k0)
        np.add(ASCENDING.astype(np.intp)[:, None], (r - k0).astype(np.intp), out=index)
        if finite:
            np.logical_or(np.less(index, 0, out=mask), index > m, out=mask)
            np.clip(index, 0, m, out=index)
        return k0 + np.arange(m + 1.0), index, mask if finite else None
    ks = ASCENDING[:, None] + r
    kk, idx = np.unique(np.clip(ks, lo, hi), return_inverse=True)
    return kk, idx.reshape(ks.shape), ~((ks >= lo) & (ks <= hi)) if finite else None


def _kernel(u: np.ndarray, lo: float, hi: float, work: Workspace):
    """The window kernel chi(u - k), k = round(u) + m with m = -R..R down
    axis 0, as (chiv, kk, idx): chi's window-major result and, when
    [lo, hi] is finite (A's index window), zero outside it; the distinct
    k, clipped to [lo, hi]; and the window-major integer matrix with
    k = kk[idx].

    chi runs on work's arg buffer, which then ends as x - 1 and is free,
    with its result in the kernel buffer; chiv and idx are views of work
    until its next use.
    """
    arg, kernel, index, mask = work.take(u.size)
    r = np.round(u)
    # u - r and r + m are exact, so this is chi(u - k) bit for bit
    np.subtract(u - r, ASCENDING[:, None], out=arg)
    chiv = chi(arg, (kernel, arg))
    kk, idx, outside = _node_indices(r, lo, hi, index, mask)
    if outside is not None:
        np.copyto(chiv, 0.0, where=outside)
    return chiv, kk, idx


def _window_sum(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The sum down axis 0 of the window-major rows (offsets -R..R), added
    in order's offsets as numpy's add.reduce adds a contiguous row of
    8 to 15 entries c0, c1, ...: ((c0 + c1) + (c2 + c3)) + ((c4 + c5) +
    (c6 + c7)), then c8 on one at a time, and the total onto +0.0 (so a
    window of -0.0 sums to +0.0).  It equals the points-major
    ``sum(axis=1)`` of the rows in that order bit for bit."""
    c = [rows[int(m) + RADIUS] for m in order]
    total = c[0] + c[1]
    pair = c[2] + c[3]
    total += pair
    quad = c[4] + c[5]
    np.add(c[6], c[7], out=pair)
    quad += pair
    total += quad
    for row in c[8:]:
        total += row
    total += 0.0
    return total


def _kernel_sum(x, n: int, interval: Optional[Tuple[float, float]], order: np.ndarray):
    """The window sum, added in order's offsets, of the kernel chi(nx - k)
    at x (scalar or array): over the whole line when interval is None,
    else over the indices k of interval's index window."""
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    u = np.atleast_1d(np.asarray(x, dtype=float)) * n
    lo, hi = (-math.inf, math.inf) if interval is None else index_window(n, *interval)
    total = _window_sum(_kernel(u, lo, hi, Workspace())[0], order)
    return float(total[0]) if np.ndim(x) == 0 else total


def partition_sum(x, n: int):
    """Truncated sum_k chi(nx - k) over the window centered at round(nx),
    added outermost-first.

    Equals 1 to within partition.TRUNCATION_EPSILON for every n >= 1 and
    real x.  Accepts scalar or array x.
    """
    return _kernel_sum(x, n, None, CENTRE_OUT[::-1])


def interval_denominator(x, n: int, a: float, b: float):
    """V(x) = sum_{k=ceil(na)}^{floor(nb)} chi(nx - k), the A_n denominator,
    summed over A's own window kernel.

    Strictly above chi(1) ~= 0.2488 for x in [a, b], and at most 1.
    """
    return _kernel_sum(x, n, (a, b), ASCENDING)


def boundary_deficiency(n: int, a: float, b: float, at_end: str) -> float:
    """1 - V(endpoint): the mass the interval window misses at a or b.

    Stays >= chi(1) > 0 for every n, so the truncated partition sum does
    not converge to 1 at the endpoints.
    """
    if at_end not in ("a", "b"):
        raise PreconditionViolated(f"at_end must be 'a' or 'b', got {at_end!r}")
    end = a if at_end == "a" else b
    return 1.0 - interval_denominator(end, n, a, b)


def apply_operator(f: FunctionSpec, x, cfg: OperatorConfig, work: Optional[Workspace] = None):
    """Op f at x for cfg's family; the pair (Op re, Op im) for a complex f.

    The kernel and each part's node values are written into work's buffers
    (a fresh Workspace when None); the images are new arrays.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n = cfg.n
    if cfg.family == "A":
        a, b = cfg.interval
        if np.any(xs < a) or np.any(xs > b):
            raise DomainViolation(f"x outside [{a}, {b}]")
        order = ASCENDING
        lo, hi = index_window(n, a, b)
    else:
        for p in f.parts:
            if p.sup_norm is None:
                raise UnboundedFunction(
                    f"{p.name}: family {cfg.family} needs a finite sup_norm "
                    "for its truncation certificate"
                )
        order = CENTRE_OUT
        lo, hi = -math.inf, math.inf

    work = Workspace() if work is None else work
    chiv, kk, idx = _kernel(n * xs, lo, hi, work)
    # chi's argument buffer, free once chi returns
    spare = work.take(xs.size)[0]
    den = _window_sum(chiv, ASCENDING) if cfg.family == "A" else 1.0
    t, w = _node_rule(cfg)
    step = max(1, NODE_POINTS // t.size)

    def image(p):
        node = np.empty(kk.size)
        for s in range(0, kk.size, step):
            block = kk[s:s + step, None] / n + t
            node[s:s + step] = np.tensordot(p.eval(block), w, axes=([1], [0]))
        vals = np.take(node, idx, out=spare, mode="clip")      # idx is in range
        vals *= chiv
        return _window_sum(vals, order) / den

    outs = tuple(float(v[0]) if np.ndim(x) == 0 else v for v in map(image, f.parts))
    return outs if isinstance(f, ComplexFunctionSpec) else outs[0]
