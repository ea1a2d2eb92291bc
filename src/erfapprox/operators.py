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
real FunctionSpec or a ComplexFunctionSpec.  It builds the kernel (the
window indices, one chi matrix and A's denominator) once and applies it
to every part of f, so a complex f gets the pair (Op re, Op im).
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
from .partition import RADIUS, _window_offsets, index_window
from .special_functions import chi

#: Gauss-Legendre order of C's cell mean
KANTOROVICH_NODES = 8


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
    def degenerate(theta: int = 1) -> "QuadratureWeights":
        """w_0 = 1, rest 0: collapses family D onto family B."""
        return QuadratureWeights(theta, (1.0,) + (0.0,) * theta)

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


def _at_nodes(functional, ks: np.ndarray) -> np.ndarray:
    """functional(k) for every index in ks, evaluated once per distinct k
    and gathered back into the shape of ks.  Contiguous indices take
    arange(k_min, k_max + 1); scattered or nan ones take np.unique, so the
    work stays bounded by ks.size."""
    if ks.size == 0:
        return np.zeros(ks.shape)
    k_min = ks.min()
    if ks.max() - k_min < ks.size:
        return functional(np.arange(k_min, ks.max() + 1))[(ks - k_min).astype(np.intp)]
    distinct, where = np.unique(ks, return_inverse=True)
    return functional(distinct)[where].reshape(ks.shape)


def _node_rule(cfg: OperatorConfig) -> Tuple[np.ndarray, np.ndarray]:
    """(t, w) of the family's node functional L_k(f) = sum_j w_j f(k/n + t_j).

    A and B sample f(k/n); C takes the cell mean by fixed-order
    Gauss-Legendre (KANTOROVICH_NODES); D combines the sub-cell nodes
    k/n + r/(n*theta) with cfg.weights.
    """
    if cfg.family == "C":
        glx, glw = leggauss(KANTOROVICH_NODES)
        return (glx + 1.0) / (2.0 * cfg.n), glw / 2.0
    if cfg.family == "D":
        wts = cfg.weights
        rr = np.arange(wts.theta + 1, dtype=float)
        return rr / (cfg.n * wts.theta), np.asarray(wts.w)
    return np.zeros(1), np.ones(1)


def apply_operator(f: FunctionSpec, x, cfg: OperatorConfig):
    """Op f at x for cfg's family; the pair (Op re, Op im) for a complex f."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n = cfg.n
    if cfg.family == "A":
        a, b = cfg.interval
        if np.any(xs < a) or np.any(xs > b):
            raise DomainViolation(f"x outside [{a}, {b}]")
        offsets = np.arange(-RADIUS, RADIUS + 1, dtype=float)
    else:
        for p in f.parts:
            if p.sup_norm is None:
                raise UnboundedFunction(
                    f"{p.name}: family {cfg.family} needs a finite sup_norm "
                    "for its truncation certificate"
                )
        offsets = _window_offsets(RADIUS)

    u = n * xs
    ks = np.round(u)[:, None] + offsets[None, :]
    chiv = chi(u[:, None] - ks)
    den = 1.0
    if cfg.family == "A":
        lo, hi = index_window(n, a, b)
        valid = (ks >= lo) & (ks <= hi)
        chiv = np.where(valid, chiv, 0.0)
        den = chiv.sum(axis=1)
        ks = np.clip(ks, lo, hi)
    t, w = _node_rule(cfg)

    def image(p):
        def functional(kk):
            return np.tensordot(p.eval(kk[:, None] / n + t[None, :]), w, axes=([1], [0]))

        return (_at_nodes(functional, ks) * chiv).sum(axis=1) / den

    outs = tuple(float(v[0]) if np.ndim(x) == 0 else v for v in map(image, f.parts))
    return outs if isinstance(f, ComplexFunctionSpec) else outs[0]
