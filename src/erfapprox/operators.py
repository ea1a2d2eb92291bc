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
(Op re, Op im).  The kernel (``_kernel``) is one chi matrix
chi((u - r) - offsets), with u = nx and r = round(u), and one integer
matrix that points each (x, offset) at its node index k = r + offset;
for A one mask zeroes it outside [ceil(na), floor(nb)], and its row sums
are the denominator.  chi runs on the matrix window-major (offsets
-R..R down axis 0), where neighbouring offsets share erf values, so its
two erf calls see 17 of the 30 arguments per point plus the few inexact
ones; the result is copied once points-major with its columns in the
family's summation order, so every window sum adds as before.  The node
functional is evaluated once per distinct k, in blocks of
``NODE_POINTS`` node points, so a call's working set stays near three
points x window matrices whatever n and the rule's node count.

The partition sum sum_k chi(nx - k), the interval denominator V(x) and
its boundary deficiency 1 - V(a) are window sums of the same kernel, so
``check-partition`` checks the sums the operators compute.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class QuadratureWeights:
    """Convex weights w_0..w_theta over sub-cell nodes k/n + r/(n*theta)."""

    theta: int
    w: Tuple[float, ...]

    def __post_init__(self):
        if self.theta < 1:
            raise InvalidWeights("theta must be a positive integer")
        if len(self.w) != self.theta + 1:
            raise InvalidWeights(f"need theta+1 = {self.theta + 1} weights, got {len(self.w)}")
        if any(wr < 0.0 for wr in self.w):
            raise InvalidWeights("weights must be nonnegative")
        if abs(math.fsum(self.w) - 1.0) > 1e-15:
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


def _node_indices(r: np.ndarray, offsets: np.ndarray, lo: float, hi: float):
    """The window indices k = r + offsets of every point, as (kk, idx,
    outside): the distinct k, clipped to [lo, hi], as floats; one integer
    matrix with k = kk[idx]; and, when [lo, hi] is finite, the mask of the
    window entries outside it (a nan index counts as outside), else None.

    Windows that overlap into one range take the arange over that range
    and build idx in integers, masked and clipped in place.  Scattered
    windows, and windows that contain nan, take np.unique of the float
    indices instead: the work stays bounded by their size, and nan is
    never cast to an integer.
    """
    finite = math.isfinite(lo)
    span = r.max() - r.min() if r.size else math.nan
    if span < r.size * offsets.size and np.abs(r).max() < 2.0**52:      # no nan or inf
        k0 = max(r.min() + offsets.min(), lo)
        m = int(min(r.max() + offsets.max(), hi) - k0)
        idx = (r - k0).astype(np.intp)[:, None] + offsets.astype(np.intp)
        outside = (idx < 0) | (idx > m) if finite else None
        if finite:
            np.clip(idx, 0, m, out=idx)
        return k0 + np.arange(m + 1.0), idx, outside
    ks = r[:, None] + offsets
    kk, idx = np.unique(np.clip(ks, lo, hi), return_inverse=True)
    return kk, idx.reshape(ks.shape), ~((ks >= lo) & (ks <= hi)) if finite else None


def _kernel(u: np.ndarray, offsets: np.ndarray, lo: float, hi: float):
    """The window kernel chi(u - k), k = round(u) + offsets, as (chiv, kk,
    idx): one points x window matrix with its columns in offsets' order and,
    when [lo, hi] is finite (A's index window), zero outside it; the
    distinct k, clipped to [lo, hi]; and the integer matrix with k = kk[idx].
    """
    r = np.round(u)
    # u - r and r + offset are exact, so this is chi(u - k) bit for bit.  idx
    # is built before the kernel is copied and dropped, in the space chi
    # freed: dropping the kernel first let glibc trim the heap, and a
    # 4095-point call then faulted 536 pages instead of 208
    kernel = chi((u - r) - ASCENDING[:, None])
    kk, idx, outside = _node_indices(r, offsets, lo, hi)
    chiv = np.stack([kernel[int(m) + RADIUS] for m in offsets], axis=1)
    del kernel
    if outside is not None:
        np.copyto(chiv, 0.0, where=outside)
    return chiv, kk, idx


def partition_sum(x, n: int):
    """Truncated sum_k chi(nx - k) over the window centered at round(nx),
    added outermost-first.

    Equals 1 to within partition.TRUNCATION_EPSILON for every n >= 1 and
    real x.  Accepts scalar or array x.
    """
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    u = np.atleast_1d(np.asarray(x, dtype=float)) * n
    total = _kernel(u, CENTRE_OUT, -math.inf, math.inf)[0][:, ::-1].sum(axis=1)
    return float(total[0]) if np.ndim(x) == 0 else total


def interval_denominator(x, n: int, a: float, b: float):
    """V(x) = sum_{k=ceil(na)}^{floor(nb)} chi(nx - k), the A_n denominator,
    summed over A's own window kernel.

    Strictly above chi(1) ~= 0.2488 for x in [a, b], and at most 1.
    """
    u = np.atleast_1d(np.asarray(x, dtype=float)) * n
    total = _kernel(u, ASCENDING, *index_window(n, a, b))[0].sum(axis=1)
    return float(total[0]) if np.ndim(x) == 0 else total


def boundary_deficiency(n: int, a: float, b: float, at_end: str) -> float:
    """1 - V(endpoint): the mass the interval window misses at a or b.

    Stays >= chi(1) > 0 for every n, so the truncated partition sum does
    not converge to 1 at the endpoints.
    """
    if at_end not in ("a", "b"):
        raise PreconditionViolated(f"at_end must be 'a' or 'b', got {at_end!r}")
    end = a if at_end == "a" else b
    return 1.0 - interval_denominator(end, n, a, b)


def apply_operator(f: FunctionSpec, x, cfg: OperatorConfig):
    """Op f at x for cfg's family; the pair (Op re, Op im) for a complex f."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n = cfg.n
    if cfg.family == "A":
        a, b = cfg.interval
        if np.any(xs < a) or np.any(xs > b):
            raise DomainViolation(f"x outside [{a}, {b}]")
        offsets = ASCENDING
        lo, hi = index_window(n, a, b)
    else:
        for p in f.parts:
            if p.sup_norm is None:
                raise UnboundedFunction(
                    f"{p.name}: family {cfg.family} needs a finite sup_norm "
                    "for its truncation certificate"
                )
        offsets = CENTRE_OUT
        lo, hi = -math.inf, math.inf

    chiv, kk, idx = _kernel(n * xs, offsets, lo, hi)
    den = chiv.sum(axis=1) if cfg.family == "A" else 1.0
    t, w = _node_rule(cfg)
    step = max(1, NODE_POINTS // t.size)

    def image(p):
        node = np.empty(kk.size)
        for s in range(0, kk.size, step):
            block = kk[s:s + step, None] / n + t
            node[s:s + step] = np.tensordot(p.eval(block), w, axes=([1], [0]))
        vals = node[idx]
        vals *= chiv
        return vals.sum(axis=1) / den

    outs = tuple(float(v[0]) if np.ndim(x) == 0 else v for v in map(image, f.parts))
    return outs if isinstance(f, ComplexFunctionSpec) else outs[0]
