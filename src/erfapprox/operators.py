"""The four neural-network operators and their dispatch.

* ``op_A``: interval quasi-interpolation, normalized by the window sum.
* ``op_B``: whole-line quasi-interpolation with certified truncation.
* ``op_C``: Kantorovich variant replacing samples f(k/n) by cell averages.
* ``op_D``: quadrature variant replacing samples by convex sub-cell combos.
* ``apply_operator``: the operator of a config's family.

All operators accept a scalar x or a 1-D array of x values, and a real
FunctionSpec or a ComplexFunctionSpec.  A complex f gets the pair
(Op re, Op im) from one kernel: the window indices, the chi matrix and
A's denominator are built once and applied to both parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DomainViolation,
    InvalidWeights,
    PreconditionViolated,
    UnboundedFunction,
)
from .funcs import ComplexFunctionSpec, FunctionSpec
from .partition import DEFAULT_POLICY, IndexWindow, TruncationPolicy, _window_offsets
from .special_functions import chi

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
        """w_0 = 1, rest 0: collapses op_D onto op_B."""
        return QuadratureWeights(theta, (1.0,) + (0.0,) * theta)

    @staticmethod
    def uniform(theta: int) -> "QuadratureWeights":
        return QuadratureWeights(theta, (1.0 / (theta + 1),) * (theta + 1))


@dataclass(frozen=True)
class OperatorConfig:
    family: str
    n: int
    interval: Optional[Tuple[float, float]] = None
    truncation: TruncationPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    kantorovich_nodes: int = 8
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
            IndexWindow.for_interval(self.n, a, b)
        if self.family == "C" and self.kantorovich_nodes < 2:
            raise PreconditionViolated("kantorovich_nodes must be >= 2")
        if self.family == "D" and self.weights is None:
            raise PreconditionViolated("family D needs quadrature weights")


def _as_points(x):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return xs, np.ndim(x) == 0


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


def _each_part(f, image, scalar: bool):
    """image(p) for every real part p of f: one result for a real f, the
    pair (re, im) for a complex one."""
    outs = tuple(float(v[0]) if scalar else v for v in map(image, f.parts))
    return outs if isinstance(f, ComplexFunctionSpec) else outs[0]


def op_A(f: FunctionSpec, x, cfg: OperatorConfig):
    """Normalized interval operator: sum f(k/n) chi(nx-k) / sum chi(nx-k)."""
    if cfg.family != "A":
        raise PreconditionViolated("cfg.family must be 'A'")
    a, b = cfg.interval
    n = cfg.n
    xs, scalar = _as_points(x)
    if np.any(xs < a) or np.any(xs > b):
        raise DomainViolation(f"x outside [{a}, {b}]")

    win = IndexWindow.for_interval(n, a, b)
    u = n * xs
    centers = np.round(u).astype(np.int64)
    radius = cfg.truncation.radius()
    ks = centers[:, None] + np.arange(-radius, radius + 1)[None, :]
    valid = (ks >= win.lo) & (ks <= win.hi)
    chiv = np.where(valid, chi(u[:, None] - ks), 0.0)
    den = chiv.sum(axis=1)
    ks = np.clip(ks, win.lo, win.hi)

    def image(p):
        return (_at_nodes(lambda kk: p.eval(kk / n), ks) * chiv).sum(axis=1) / den

    return _each_part(f, image, scalar)


def _line_operator(f: FunctionSpec, x, cfg: OperatorConfig, offsets, weights):
    """sum_k L_k(f) chi(nx-k) over the certified window around round(nx),
    with the node functional L_k(f) = sum_j weights_j f(k/n + offsets_j)."""
    for p in f.parts:
        if p.sup_norm is None:
            raise UnboundedFunction(
                f"{p.name}: op_{cfg.family} needs a finite sup_norm for its truncation certificate"
            )
    xs, scalar = _as_points(x)
    n = cfg.n
    u = n * xs
    ks = np.round(u)[:, None] + _window_offsets(cfg.truncation.radius())[None, :]
    chiv = chi(u[:, None] - ks)

    def image(p):
        def functional(kk):
            tt = kk[:, None] / n + offsets[None, :]
            return np.tensordot(p.eval(tt), weights, axes=([1], [0]))

        return (_at_nodes(functional, ks) * chiv).sum(axis=1)

    return _each_part(f, image, scalar)


def op_B(f: FunctionSpec, x, cfg: OperatorConfig):
    """Whole-line quasi-interpolation: sum f(k/n) chi(nx-k), truncated."""
    if cfg.family not in ("B", "D"):
        raise PreconditionViolated("cfg.family must be 'B'")
    return _line_operator(f, x, cfg, np.zeros(1), np.ones(1))


def op_C(f: FunctionSpec, x, cfg: OperatorConfig):
    """Kantorovich operator: sum (n * integral of f over [k/n,(k+1)/n]) chi(nx-k).

    Cell integrals use fixed-order Gauss-Legendre (cfg.kantorovich_nodes):
    the cell mean is sum_j (glw_j/2) f(k/n + (glx_j+1)/(2n)).
    """
    if cfg.family != "C":
        raise PreconditionViolated("cfg.family must be 'C'")
    glx, glw = leggauss(cfg.kantorovich_nodes)
    return _line_operator(f, x, cfg, (glx + 1.0) / (2.0 * cfg.n), glw / 2.0)


def op_D(f: FunctionSpec, x, cfg: OperatorConfig):
    """Quadrature operator: samples replaced by sum_r w_r f(k/n + r/(n*theta))."""
    if cfg.family != "D":
        raise PreconditionViolated("cfg.family must be 'D'")
    wts = cfg.weights
    rr = np.arange(wts.theta + 1, dtype=float)
    return _line_operator(f, x, cfg, rr / (cfg.n * wts.theta), np.asarray(wts.w))


_FAMILY_OPS = {"A": op_A, "B": op_B, "C": op_C, "D": op_D}


def apply_operator(f: FunctionSpec, x, cfg: OperatorConfig):
    """Op f at x for cfg's family; the pair (Op re, Op im) for a complex f."""
    return _FAMILY_OPS[cfg.family](f, x, cfg)
