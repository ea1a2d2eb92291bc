"""Right-hand sides of every approximation theorem, empirical error
measurement, verdicts, and convergence-rate fitting.

Theorem ids:

* T12/T13/T14/T15: first-order Jackson bounds for the A/B/C/D operators,
  one core at the modulus step n^-alpha (A, B) or 1/n + n^-alpha (C, D).
* T16: high-order bound for the interval operator using derivatives 1..N.
* T30, C31, C33: fractional bounds from Caputo moduli and T16's Taylor sum.
* T36/T37/T38/T41: complex-valued companions (componentwise ingredients
  added); T39: complex fractional companion.

Each theorem is declared by one row of ``THEOREMS``: its corpus pool,
operator families, bound function, swept parameter and default mode.

The constant 1/chi(1) ~= 4.0188 enters every interval-operator bound at
full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CriticalPointViolated, DegenerateFit, PreconditionViolated
from .fractional import (
    FractionalSpec,
    caputo_table,
    gamma_fn,
    table_modulus,
)
from .funcs import ComplexFunctionSpec, FunctionSpec
from .modulus import ModulusQuery, evaluate_modulus
from .operators import OperatorConfig, QuadratureWeights, apply_operator
from .partition import tail_bound, tail_core
from .special_functions import INV_CHI_AT_ONE


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    function_id: str
    family: str
    n: int
    rate_exponent: float
    point_mode: str             # "pointwise x" or "sup over grid"
    empirical_error: float
    bound_value: float
    terms: Dict[str, float]
    modulus_quality: str        # "exact" or "estimated"
    verdict: str                # "holds", "violated", "inconclusive-estimated", "non-finite"

    @property
    def slack(self) -> float:
        return self.bound_value - self.empirical_error


def _verdict(empirical: float, bound: float, quality: str) -> str:
    if not (math.isfinite(empirical) and math.isfinite(bound)):
        return "non-finite"
    if empirical <= bound * (1.0 + 1e-9):
        return "holds"
    return "violated" if quality == "exact" else "inconclusive-estimated"


@dataclass(frozen=True)
class GridPolicy:
    """x-sampling: grid-sup resolution, pointwise-check resolution, and
    fractional anchor grid.

    With ``refinement`` the grid sup is taken on the refined grid of
    2 * x_points - 1 points alone: it holds the x_points grid bit for bit
    as its even samples, so the coarse pass is read from it, not evaluated
    again.
    """

    x_points: int = 2048
    refinement: bool = True
    pointwise_points: int = 17
    anchors: int = 33
    table_points: int = 513


# ------------------------------------------------------- first-order bounds


def _jackson(f: FunctionSpec, n: int, alpha: float, delta: float,
             interval: Optional[Tuple[float, float]]):
    """omega_1(f, delta) + ||f|| tail, the first-order bound at the modulus
    step delta; returns (value, terms, modulus quality)."""
    mq = evaluate_modulus(ModulusQuery(f, delta, interval))
    tail = f.grid_sup_norm() * tail_core(n, alpha)
    terms = {"modulus_term": mq.value, "tail_term": tail}
    return mq.value + tail, terms, mq.quality


def mu2(f: FunctionSpec, n: int, alpha: float,
        interval: Optional[Tuple[float, float]] = None):
    """Line-operator bound: the Jackson core at the step n^-alpha."""
    return _jackson(f, n, alpha, float(n) ** (-alpha), interval)


def mu1(f: FunctionSpec, n: int, alpha: float,
        a: Optional[float] = None, b: Optional[float] = None):
    """Interval-operator bound: exactly 1/chi(1) times the mu2 core."""
    interval = (a, b) if a is not None else None
    core, terms, quality = mu2(f, n, alpha, interval)
    terms = {k: INV_CHI_AT_ONE * v for k, v in terms.items()}
    return INV_CHI_AT_ONE * core, terms, quality


def mu3(f: FunctionSpec, n: int, alpha: float,
        interval: Optional[Tuple[float, float]] = None):
    """Kantorovich/quadrature bound: the Jackson core at the step 1/n + n^-alpha."""
    return _jackson(f, n, alpha, 1.0 / n + float(n) ** (-alpha), interval)


# ------------------------------------------------------- high-order bound


def _taylor_sum(f: FunctionSpec, order: int, mode: str, x: Optional[float], n: int,
                exponent: float, width: float, tail: float) -> float:
    """T16's and T30's derivative sum_{j<=order} c_j/j! (n^(-exponent j) + width^j tail)
    with c_j = |f^(j)(x)| ("pointwise") or ||f^(j)|| ("sup").  "critical" omits
    it but requires f^(j)(x) = 0 (to 1e-12) for j = 1..order; other modes omit it."""
    if mode in ("pointwise", "critical"):
        coeffs = [abs(float(f.derivative(j)(x))) for j in range(1, order + 1)]
    elif mode == "sup":
        coeffs = [f.derivative(j).grid_sup_norm() for j in range(1, order + 1)]
    else:
        return 0.0
    if mode == "critical":
        for j, dv in enumerate(coeffs, start=1):
            if dv > 1e-12:
                raise CriticalPointViolated(f"{f.name}: |f^({j})({x})| = {dv:.3e} > 1e-12")
        return 0.0
    total = 0.0
    for j, cj in enumerate(coeffs, start=1):
        total += (cj / math.factorial(j)) * (float(n) ** (-exponent * j) + width ** j * tail)
    return total


def highorder_bound(
    f: FunctionSpec,
    n: int,
    alpha: float,
    a: float,
    b: float,
    N: int,
    mode: str,
    x: Optional[float] = None,
):
    """High-order interval bound; mode selects the pointwise form (with
    |f^(j)(x)|), the sup form (with ||f^(j)||), or the critical-point form
    (derivative sum omitted, requires f^(j)(x) = 0 for j = 1..N).

    Returns (value, terms, modulus quality).
    """
    if mode not in ("pointwise", "sup", "critical"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    tc = tail_core(n, alpha)
    width = b - a
    fN = f.derivative(N)
    mq = evaluate_modulus(ModulusQuery(fN, float(n) ** (-alpha), (a, b)))
    n_fact = math.factorial(N)
    final_block = (
        mq.value / (float(n) ** (alpha * N) * n_fact)
        + fN.grid_sup_norm() * width ** N / n_fact * tc
    )
    deriv_sum = _taylor_sum(f, N, mode, x, n, alpha, width, tc / 2.0)

    value = INV_CHI_AT_ONE * (deriv_sum + final_block)
    terms = {
        "derivative_sum": INV_CHI_AT_ONE * deriv_sum,
        "modulus_block": INV_CHI_AT_ONE * final_block,
    }
    return value, terms, mq.quality


# ------------------------------------------------------- fractional bounds


@dataclass(frozen=True)
class _AnchorData:
    """Per-anchor Caputo ingredients: the derivative tables on both sides
    and their n-independent sup norms (0 for a missing side)."""

    x: float
    table_right: Optional[Tuple[np.ndarray, np.ndarray]]   # D_{x-} on [a, x]
    table_left: Optional[Tuple[np.ndarray, np.ndarray]]    # D_{*x} on [x, b]
    sup_right: float
    sup_left: float


def _anchor_data(f: FunctionSpec, alpha: float, a: float, b: float, x: float,
                 points: int) -> _AnchorData:
    """Caputo tables on both sides of the anchor x, each with its sup."""
    tr = tl = None
    if x - a > 1e-12:
        tr = caputo_table(f, FractionalSpec(alpha, x, "right"), (a, x), points)
    if b - x > 1e-12:
        tl = caputo_table(f, FractionalSpec(alpha, x, "left"), (x, b), points)

    def sup(table):
        return 0.0 if table is None else float(np.max(np.abs(table[1])))

    return _AnchorData(x, tr, tl, sup(tr), sup(tl))


@lru_cache(maxsize=32)
def _anchor_tables(
    f: FunctionSpec,
    alpha: float,
    a: float,
    b: float,
    anchors: int,
    points: int,
) -> Tuple[_AnchorData, ...]:
    """Caputo derivative tables at a grid of anchor points; n-independent,
    cached across the whole sweep."""
    return tuple(_anchor_data(f, alpha, a, b, float(x), points)
                 for x in np.linspace(a, b, anchors))


def _anchor_ingredients(data: _AnchorData, delta: float):
    """(modulus_right, modulus_left, sup_right, sup_left) at one anchor."""
    wr = wl = 0.0
    if data.table_right is not None:
        wr = table_modulus(data.table_right, delta)
    if data.table_left is not None:
        wl = table_modulus(data.table_left, delta)
    return wr, wl, data.sup_right, data.sup_left


def fractional_bound(
    f: FunctionSpec,
    n: int,
    beta: float,
    alpha_frac: float,
    a: float,
    b: float,
    mode: str,
    x: Optional[float] = None,
    anchors: int = GridPolicy.anchors,
    table_points: int = GridPolicy.table_points,
):
    """Fractional interval-operator bound built from Caputo ingredients.

    Modes: "taylor_pointwise" (Taylor terms moved to the left-hand side),
    "critical" (same value, valid only when f^(j)(x) = 0 for j < N),
    "pointwise" (full right-hand side with |f^(j)(x)| terms), "sup"
    (uniform form, anchor-grid suprema), "n1_sup" (N = 1 uniform
    specialization) and "half_sup" (order 1/2 with prefactor 8.038/sqrt(pi)).

    Returns (value, terms, modulus quality); quality is always
    "estimated" because Caputo moduli come from sampled tables.
    """
    spec = FractionalSpec(alpha_frac, 0.5 * (a + b), "left")
    N = spec.N
    if mode in ("n1_sup", "half_sup") and N != 1:
        raise PreconditionViolated(f"mode {mode} needs 0 < alpha < 1, got {alpha_frac}")
    if mode == "half_sup" and abs(alpha_frac - 0.5) > 1e-12:
        raise PreconditionViolated("half_sup hard-wires alpha = 1/2")
    pointwise = mode in ("taylor_pointwise", "critical", "pointwise")
    if not pointwise and mode not in ("sup", "n1_sup", "half_sup"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    delta = float(n) ** (-beta)
    htc = tail_bound(n, beta)
    gamma_factor = 1.0 / gamma_fn(alpha_frac + 1.0)
    tables = _anchor_tables(f, alpha_frac, a, b, anchors, table_points)

    if pointwise:
        if x is None:
            raise PreconditionViolated(f"mode {mode} needs an evaluation point x")
        data = min(tables, key=lambda d: abs(d.x - x))
        if abs(data.x - x) > 1e-9 * (1.0 + abs(x)):
            # off-grid anchor: build its tables directly
            data = _anchor_data(f, alpha_frac, a, b, x, table_points)
        wr, wl, sr, sl = _anchor_ingredients(data, delta)
        frac_block = gamma_factor * (
            (wr + wl) / float(n) ** (alpha_frac * beta)
            + htc * (sr * (x - a) ** alpha_frac + sl * (b - x) ** alpha_frac)
        )
    else:
        ing = [_anchor_ingredients(d, delta) for d in tables]
        sup_wr, sup_wl, sup_sr, sup_sl = (max(i[k] for i in ing) for k in range(4))
        frac_block = gamma_factor * (
            (sup_wr + sup_wl) / float(n) ** (alpha_frac * beta)
            + htc * (b - a) ** alpha_frac * (sup_sr + sup_sl)
        )
    deriv_sum = _taylor_sum(f, N - 1, mode, x, n, beta, b - a, htc)
    value = INV_CHI_AT_ONE * (deriv_sum + frac_block)
    terms = {
        "derivative_sum": INV_CHI_AT_ONE * deriv_sum,
        "fractional_block": INV_CHI_AT_ONE * frac_block,
    }
    return value, terms, "estimated"


def remark34_check(
    f: FunctionSpec,
    beta: float,
    sweep: Sequence[int],
    a: float,
    b: float,
    anchors: int = GridPolicy.anchors,
    table_points: int = GridPolicy.table_points,
):
    """Certify the linear-modulus premise for the accelerated n^(-3 beta/2)
    uniform rate at fractional order 1/2.

    The premise asks sup_x omega_1(Caputo derivative, n^-beta) <= K/n^beta
    for all n.  It is certified empirically iff q(n) = n^beta * sup-modulus
    is non-increasing along the sweep; K is then max q(n).  Returns
    (certified, K).
    """
    tables = _anchor_tables(f, 0.5, a, b, anchors, table_points)
    qs = []
    for n in sweep:
        delta = float(n) ** (-beta)
        ing = [_anchor_ingredients(d, delta) for d in tables]
        sup_mod = max(i[0] for i in ing) + max(i[1] for i in ing)
        qs.append(float(n) ** beta * sup_mod)
    certified = all(
        qs[i + 1] <= qs[i] * (1.0 + 1e-9) + 1e-15 for i in range(len(qs) - 1)
    )
    return certified, max(qs) if qs else 0.0


# ------------------------------------------------------- complex bounds


def complex_bound(f: ComplexFunctionSpec, real_bound, *args, **kw):
    """Complex-operator bound: the real theorem's bound applied to the real
    and imaginary parts with the same arguments, values and terms added.

    The modulus quality is exact only when both parts' is.
    """
    v1, t1, q1 = real_bound(f.re, *args, **kw)
    v2, t2, q2 = real_bound(f.im, *args, **kw)
    terms = {k: t1[k] + t2[k] for k in t1}
    quality = "exact" if q1 == "exact" and q2 == "exact" else "estimated"
    return v1 + v2, terms, quality


# ------------------------------------------------------- empirical errors


def _monomial_images(x: float, cfg: OperatorConfig, order: int) -> List[float]:
    """Operator images at x of the shifted monomials (t - x)^j, j = 1..order-1."""
    return [
        apply_operator(FunctionSpec("shifted_power",
                                    lambda t, _j=j: (np.asarray(t, float) - x) ** _j), x, cfg)
        for j in range(1, order)
    ]


def _taylor_image(f: FunctionSpec, x: float, monomials: Sequence[float]) -> float:
    """Operator image at x of the Taylor terms of f about x of orders 1..N-1,
    from the images of the shifted monomials."""
    corr = 0.0
    for j, image in enumerate(monomials, start=1):
        corr += float(f.derivative(j)(x)) / math.factorial(j) * image
    return corr


def _deviation(f, x, cfg: OperatorConfig, taylor_order: int = 0):
    """|Op f - f| at x (a point or a grid); a complex f is measured through
    the hypot of its parts, whose images come from one operator call.  A
    taylor_order N > 1 first subtracts the operator image of f's Taylor
    terms of orders 1..N-1 at the point x; the shifted monomials' images
    are shared by both parts."""
    images = apply_operator(f, x, cfg)
    if len(f.parts) == 1:
        images = (images,)
    monomials = _monomial_images(x, cfg, taylor_order)
    devs = [
        image - _taylor_image(p, x, monomials) - p.eval(x)
        for image, p in zip(images, f.parts)
    ]
    return np.hypot(*devs) if len(devs) == 2 else np.abs(devs[0])


def _sup_error(f, cfg: OperatorConfig, window: Tuple[float, float], grid: GridPolicy,
               memo: dict) -> float:
    """Grid sup of |Op f - f| over window, on the refined grid of
    2 * x_points - 1 points when grid.refinement is on (its even samples
    are the x_points grid, so the coarse maximum is never larger).

    Each distinct (f, cfg, window, grid resolution) is measured once and
    later calls read the float stored in memo.  Threads sharing the dict
    may both measure a key; they store the same float.
    """
    key = (f, cfg, window, grid.x_points, grid.refinement)
    if key not in memo:
        points = 2 * grid.x_points - 1 if grid.refinement else grid.x_points
        xs = np.linspace(window[0], window[1], points)
        memo[key] = float(np.max(_deviation(f, xs, cfg)))
    return memo[key]


def fit_rate(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope of log error against log n, with r squared."""
    if len(points) < 3:
        raise DegenerateFit(f"need >= 3 points, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=float)
    es = np.array([p[1] for p in points], dtype=float)
    if np.any(es <= 0.0):
        raise DegenerateFit("all errors must be > 0")
    if np.all(ns == ns[0]):
        raise DegenerateFit("all n equal")
    lx, ly = np.log(ns), np.log(es)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), r2


# ------------------------------------------------------- theorem table


@dataclass(frozen=True)
class Theorem:
    """Everything the harness knows about one theorem.

    ``pool`` names the corpus dict in ``erfapprox.corpus`` that builtin
    functions are drawn from.  ``families`` are the operators measured, one
    report row each, all against one bound: ``bound`` names a real bound
    function of this module, applied through ``complex_bound`` when
    ``complex``.  ``param`` ("N" or "alpha_frac") is swept over the
    config's ``highorder_orders`` or ``fractional_orders``; only values
    inside the open range ``orders`` are admissible.  ``mode`` is the
    default bound mode, None for the first-order bounds.
    """

    pool: str
    families: Tuple[str, ...]
    bound: str
    complex: bool = False
    param: Optional[str] = None
    orders: Tuple[float, float] = (-math.inf, math.inf)
    mode: Optional[str] = None

    def derivative_order(self, kw: dict) -> int:
        """Highest derivative of f one cell with parameters kw consumes."""
        args = _BOUND_ARGS[self.bound]
        if "N" in args:
            return int(kw.get("N", _PARAM_DEFAULTS["N"]))
        if "alpha_frac" in args:
            return math.ceil(kw.get("alpha_frac", _PARAM_DEFAULTS["alpha_frac"]))
        return 0


#: cell quantities each bound function takes after (f, n, exponent); the
#: function itself is looked up by name at call time
_BOUND_ARGS = {
    "mu1": ("a", "b"),
    "mu2": ("interval",),
    "mu3": ("interval",),
    "highorder_bound": ("a", "b", "N", "mode", "x"),
    "fractional_bound": ("alpha_frac", "a", "b", "mode", "x", "anchors", "table_points"),
}

_PARAM_DEFAULTS = {"N": 1, "alpha_frac": 0.5}

THEOREMS: Dict[str, Theorem] = {
    "T12": Theorem("INTERVAL_CORPUS", ("A",), "mu1"),
    "T13": Theorem("LINE_CORPUS", ("B",), "mu2"),
    "T14": Theorem("LINE_CORPUS", ("C",), "mu3"),
    "T15": Theorem("LINE_CORPUS", ("D",), "mu3"),
    "T16": Theorem("INTERVAL_CORPUS", ("A",), "highorder_bound", param="N", mode="sup"),
    "T30": Theorem("FRACTIONAL_CORPUS", ("A",), "fractional_bound",
                   param="alpha_frac", mode="sup"),
    "C31": Theorem("FRACTIONAL_CORPUS", ("A",), "fractional_bound",
                   param="alpha_frac", orders=(0.0, 1.0), mode="n1_sup"),
    "C33": Theorem("FRACTIONAL_CORPUS", ("A",), "fractional_bound", mode="half_sup"),
    "T36": Theorem("COMPLEX_INTERVAL_CORPUS", ("A",), "mu1", complex=True),
    "T37": Theorem("COMPLEX_LINE_CORPUS", ("B",), "mu2", complex=True),
    "T38": Theorem("COMPLEX_INTERVAL_CORPUS", ("A",), "highorder_bound", complex=True,
                   param="N", mode="sup"),
    "T39": Theorem("COMPLEX_INTERVAL_CORPUS", ("A",), "fractional_bound", complex=True,
                   param="alpha_frac", orders=(0.0, 2.0), mode="sup"),
    "T41": Theorem("COMPLEX_LINE_CORPUS", ("C", "D"), "mu3", complex=True),
}


# ------------------------------------------------------- verify


_DEFAULT_THETA = 4


def _family_config(family: str, n: int, interval=None) -> OperatorConfig:
    if family == "A":
        return OperatorConfig("A", n, interval=interval)
    if family == "D":
        return OperatorConfig("D", n, weights=QuadratureWeights.uniform(_DEFAULT_THETA))
    return OperatorConfig(family, n)


def verify(
    theorem_id: str,
    f: Union[FunctionSpec, ComplexFunctionSpec],
    sweep: Sequence[int],
    rate_exponent: float,
    grid: GridPolicy = GridPolicy(),
    *,
    sup_errors: Optional[dict] = None,
    **kw,
) -> List[BoundReport]:
    """Measure empirical operator error against the theorem's bound for
    every n in the sweep; one report row per n and operator family.

    ``sup_errors``, a dict shared by the calls of one run (a fresh one per
    call when omitted), stores each distinct grid-sup error so that rows
    measuring the same operator image reuse it.

    A row whose error or bound is not finite (a pole, an overflow) at any
    of its points gets the verdict "non-finite" instead of a comparison.

    Extra keyword arguments: the theorem's parameter (N or alpha_frac),
    mode, and x0, the point the "critical" mode evaluates at (default 0).
    The "pointwise" and "taylor_pointwise" modes report the worst of
    grid.pointwise_points points by error-to-bound ratio.
    """
    th = THEOREMS.get(theorem_id)
    if th is None:
        raise PreconditionViolated(f"unknown theorem id {theorem_id!r}")
    if th.param is not None:
        lo, hi = th.orders
        value = kw.get(th.param, _PARAM_DEFAULTS[th.param])
        if not lo < value < hi:
            raise PreconditionViolated(
                f"{theorem_id} needs {lo:g} < {th.param} < {hi:g}, got {value}"
            )
    if sup_errors is None:
        sup_errors = {}
    rows: List[BoundReport] = []
    for n in sweep:
        rows.extend(_verify_one(theorem_id, th, f, int(n), rate_exponent, grid,
                                sup_errors, kw))
    return rows


def _report(theorem_id, f, family, n, ex, point_mode, emp, value, terms, quality):
    return BoundReport(
        theorem_id=theorem_id,
        function_id=f.name,
        family=family,
        n=n,
        rate_exponent=ex,
        point_mode=point_mode,
        empirical_error=emp,
        bound_value=value,
        terms=terms,
        modulus_quality=quality,
        verdict=_verdict(emp, value, quality),
    )


def _verify_one(tid, th: Theorem, f, n, ex, grid, sup_errors, kw) -> List[BoundReport]:
    mode = kw.get("mode", th.mode) if th.mode else None
    a, b = f.domain or (None, None)
    cell = {
        "a": a, "b": b, "interval": f.domain, "mode": mode,
        "anchors": grid.anchors, "table_points": grid.table_points,
        **{k: kw.get(k, v) for k, v in _PARAM_DEFAULTS.items()},
    }
    if mode == "critical":
        points, point_mode = [kw.get("x0", 0.0)], "pointwise x"
    elif mode in ("pointwise", "taylor_pointwise"):
        points = [float(x) for x in np.linspace(a, b, grid.pointwise_points)]
        point_mode = "pointwise x"
    else:
        points, point_mode = [None], "sup over grid"
    taylor = th.derivative_order(kw) if mode == "taylor_pointwise" else 0
    window = f.parts[0].sample_window()
    cfgs = [_family_config(family, n, f.domain) for family in th.families]

    # looked up at call time so rebinding a module global reaches every row
    real_bound = globals()[th.bound]
    worst = [None] * len(cfgs)
    for x in points:
        cell["x"] = x
        args = [cell[k] for k in _BOUND_ARGS[th.bound]]
        if th.complex:
            value, terms, quality = complex_bound(f, real_bound, n, ex, *args)
        else:
            value, terms, quality = real_bound(f, n, ex, *args)
        for i, cfg in enumerate(cfgs):
            if x is None:
                emp = _sup_error(f, cfg, window, grid, sup_errors)
            else:
                emp = float(_deviation(f, x, cfg, taylor))
            # a non-finite point outranks every finite one, so its row reads
            # "non-finite" (a nan ratio would never compare greater)
            finite = math.isfinite(emp) and math.isfinite(value)
            rank = (not finite, emp / value if finite and value > 0 else math.inf)
            if worst[i] is None or rank > worst[i][0]:
                worst[i] = (rank, emp, value, terms, quality)
    return [
        _report(tid, f, family, n, ex, point_mode, emp, value, terms, quality)
        for family, (_, emp, value, terms, quality) in zip(th.families, worst)
    ]
