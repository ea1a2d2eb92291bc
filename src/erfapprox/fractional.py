"""Caputo fractional derivatives anchored at a point x0.

For non-integer alpha > 0 with N = ceil(alpha), the left derivative is

    D(f)(x) = (1/Gamma(N - alpha)) * integral_{x0}^{x} (x - t)^(N-alpha-1) f^(N)(t) dt

for x >= x0 and 0 for x < x0; the right derivative mirrors it for x <= x0
with the factor (-1)^N, and is 0 for x > x0.  Both vanish at the anchor.
``FractionalSpec.side`` selects one.  ``caputo_table`` samples the
derivatives of several orders at one anchor and side on a sub-interval of
that side, one row per order: orders of equal N - alpha (equal fractional
parts) share one Gauss-Jacobi node matrix, each f^(N) is evaluated once
on it, the f^(N) of an expression chain all in one pass over their
shared steps (``corpus.eval_levels``), and an f^(N) that declares
sup_norm 0.0 is not evaluated at all, its rows being 0 (an expression's
derivative that simplifies to the constant 0 declares it).  ``caputo``
is the one-order case at any points, NaN at a NaN point.
``table_modulus`` reads omega_1 estimates from a table's rows at a
sequence of steps, an array in their order, with ``modulus.grid_modulus``
in one doubling pass: the grid step comes from the table's first and last
grid points, rows of tables whose grids give equal window sizes may be
stacked into one call, and a NaN value gives a NaN estimate.
``caputo_monomial`` is the closed-form oracle for monomials.

The weakly singular kernel is absorbed exactly by Gauss-Jacobi quadrature:
substituting t = x0 + (x - x0)(u + 1)/2 turns the kernel into the Jacobi
weight (1 - u)^(N-alpha-1) on [-1, 1], so fixed-order nodes integrate the
smooth remainder f^(N) to near machine accuracy.

The Gauss-Jacobi rule is built here by the Golub-Welsch method (Golub &
Welsch, Math. Comp. 23, 1969), step for step as
``scipy.special.roots_jacobi`` builds it: the same three-term recurrence,
one Newton step with ``eval_jacobi``, and the same log-normalised weights
scaled to 2^(a+b+1) B(a+1, b+1).  Only the eigenvalues of the Jacobi
matrix come from ``numpy.linalg.eigvalsh`` instead of
``scipy.linalg.eigvals_banded``; the Newton step absorbs their ulp-level
difference, so nodes and weights equal scipy's bit for bit.  Calling
``roots_jacobi`` itself would import all of ``scipy.linalg`` on the first
fractional row, which costs a verify run about 7 MB of peak memory and
80 ms for one small eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np
from scipy.special import beta, eval_jacobi

from .corpus import eval_levels
from .errors import PreconditionViolated
from .funcs import FunctionSpec
from .modulus import grid_modulus

def gamma_fn(nu: float) -> float:
    """Gamma function for positive real arguments (``math.gamma``)."""
    if not nu > 0:
        raise PreconditionViolated(f"gamma_fn needs a positive argument, got {nu}")
    return math.gamma(nu)


@dataclass(frozen=True)
class FractionalSpec:
    """Order alpha, anchor x0, and side of a Caputo derivative."""

    alpha: float
    anchor: float
    side: str = "left"
    quad_nodes: int = 32

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise PreconditionViolated(f"order must be finite and > 0, got {self.alpha}")
        if not math.isfinite(self.anchor):
            raise PreconditionViolated(f"anchor must be finite, got {self.anchor}")
        if float(self.alpha).is_integer():
            raise PreconditionViolated(
                f"order {self.alpha} is an integer; use the ordinary derivative"
            )
        if self.side not in ("left", "right"):
            raise PreconditionViolated(f"side must be 'left' or 'right', got {self.side!r}")
        if self.quad_nodes < 4:
            raise PreconditionViolated("quad_nodes must be >= 4")

    @property
    def N(self) -> int:
        """ceil(alpha): the integer derivative order the definition consumes."""
        return math.ceil(self.alpha)


@lru_cache(maxsize=64)
def _jacobi_rule(exponent: float, singular_at_right: bool, nodes: int):
    """Nodes and weights of the Gauss-Jacobi rule for (1-u)^a (1+u)^b,
    equal to ``roots_jacobi(nodes, a, b)`` for a + b in (-1, 0)."""
    # left derivative: singularity at t = x, i.e. u = 1, weight (1-u)^exponent;
    # right derivative: singularity at zeta = x, i.e. u = -1, weight (1+u)^exponent
    a, b = (exponent, 0.0) if singular_at_right else (0.0, exponent)
    k = np.arange(nodes, dtype=float)
    diag = np.where(k == 0, (b - a) / (2 + a + b),
                    (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2)))
    k = k[1:]
    off = (2.0 / (2.0 * k + a + b) * np.sqrt((k + a) * (k + b) / (2 * k + a + b + 1))
           * np.where(k == 1, 1.0, np.sqrt(k * (k + a + b) / (2.0 * k + a + b - 1))))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    # one Newton step on P_n, then weights 1 / (P_{n-1} P_n') log-normalised
    dy = 0.5 * (nodes + a + b + 1) * eval_jacobi(nodes - 1, a + 1, b + 1, x)
    x -= eval_jacobi(nodes, a, b, x) / dy
    fm = eval_jacobi(nodes - 1, a, b, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    w *= 2.0 ** (a + b + 1) * beta(a + 1, b + 1) / w.sum()
    return x, w


def _caputo_rows(f: FunctionSpec, specs: Sequence[FractionalSpec], xs: np.ndarray) -> np.ndarray:
    """Caputo derivatives of f at the points xs (1-D) for specs of one
    anchor and one side, one row per spec.  Either side integrates f^(N)
    at the nodes start + d (u+1)/2, with d = |x - x0| and start = x0
    (left) or x (right), against (d/2)^expo times the Jacobi weight
    (1-u)^expo (left) or (1+u)^expo (right), expo = N - alpha - 1.

    Specs of equal N - alpha share one node matrix and one (d/2)^(N-alpha),
    and each f^(N) is evaluated once on it, the levels of an expression
    chain all in one pass (``corpus.eval_levels``); an f^(N) that declares
    sup_norm 0.0 is not evaluated, and its rows stay 0.  A NaN x gives NaN."""
    x0, side = specs[0].anchor, specs[0].side
    if any(s.anchor != x0 or s.side != side for s in specs):
        raise PreconditionViolated("the specs of one table must share one anchor and one side")
    fNs = {s.N: f.derivative(s.N) for s in specs}
    out = np.zeros((len(specs), xs.size))
    out[:, np.isnan(xs)] = np.nan
    left = side == "left"
    live = xs > x0 if left else xs < x0
    if not np.any(live):
        return out
    d = np.abs(xs[live] - x0)
    groups = {}
    for i, s in enumerate(specs):
        groups.setdefault((s.N - s.alpha, s.quad_nodes), []).append(i)
    for (power, nodes), rows in groups.items():
        # each distinct N of this node matrix whose f^(N) may be nonzero
        Ns = [N for N in dict.fromkeys(specs[i].N for i in rows) if fNs[N].sup_norm != 0.0]
        if not Ns:
            continue
        xj, wj = _jacobi_rule(power - 1.0, left, nodes)      # expo in (-1, 0)
        tt = np.multiply.outer(d, (xj + 1.0) / 2.0)             # halving is exact
        tt += x0 if left else xs[live][:, None]
        cores = {N: np.asarray(v, dtype=float) @ wj
                 for N, v in zip(Ns, eval_levels([fNs[N] for N in Ns], tt))}
        scale, gamma = (d / 2.0) ** power, gamma_fn(power)
        for i in rows:
            N = specs[i].N
            if N in cores:
                sign = 1.0 if left else (-1.0) ** N
                out[i, live] = sign * scale * cores[N] / gamma
    return out


def caputo(f: FunctionSpec, spec: FractionalSpec, x):
    """Caputo derivative of f at x (scalar or array), zero beyond the anchor
    side and NaN at a NaN x: the one-spec case of ``caputo_table``'s rows."""
    xs = np.asarray(x, dtype=float)
    out = _caputo_rows(f, (spec,), xs.ravel())[0]
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(xs.shape)


def caputo_table(
    f: FunctionSpec, specs: Sequence[FractionalSpec], sub: Tuple[float, float],
    points: int = 4096,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (grid, values) table of Caputo derivatives on an interval of
    their side, for table_modulus to read: one row of values per spec of
    specs, which share one anchor and one side."""
    if not specs:
        raise PreconditionViolated("a Caputo table needs at least one spec")
    lo, hi = sub
    if not lo < hi:
        raise PreconditionViolated(f"need lo < hi, got [{lo}, {hi}]")
    x0 = specs[0].anchor
    if specs[0].side == "left" and lo < x0 - 1e-12:
        raise PreconditionViolated(
            f"left derivative lives on [x0, b]; sub interval starts at {lo} < {x0}"
        )
    if specs[0].side == "right" and hi > x0 + 1e-12:
        raise PreconditionViolated(
            f"right derivative lives on [a, x0]; sub interval ends at {hi} > {x0}"
        )
    xs = np.linspace(lo, hi, points)
    return xs, _caputo_rows(f, specs, xs)


def table_modulus(table: Tuple[np.ndarray, np.ndarray], steps: Sequence[float]) -> np.ndarray:
    """omega_1 estimates at every step of steps, in its order, from a
    precomputed caputo_table, or from its grid's two end points and its
    values (see ``grid_modulus``): one row per row of values, so tables
    whose grids give equal ``modulus.window_sizes`` may be stacked and
    read in one call."""
    return grid_modulus(table[0], table[1], steps)


def caputo_monomial(alpha: float, anchor: float, power: int, side: str, x):
    """Closed form for f(t) = (t - anchor)^power (left) or (anchor - t)^power (right).

    Left: the derivative of (t-x0)^p is Gamma(p+1)/Gamma(p+1-alpha) (x-x0)^(p-alpha)
    for x >= x0; the right-side derivative of (x0-t)^p mirrors it in (x0 - x).
    Requires power >= ceil(alpha) so the N-th derivative is still a monomial
    vanishing at the anchor.  A NaN x gives NaN.
    """
    N = math.ceil(alpha)
    if power < N:
        raise PreconditionViolated(f"power {power} below smoothness {N}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.where(np.isnan(xs), np.nan, 0.0)
    coeff = gamma_fn(power + 1.0) / gamma_fn(power + 1.0 - alpha)
    if side == "left":
        live = xs > anchor
        out[live] = coeff * (xs[live] - anchor) ** (power - alpha)
    else:
        live = xs < anchor
        out[live] = coeff * (anchor - xs[live]) ** (power - alpha)
    return float(out[0]) if np.ndim(x) == 0 else out
